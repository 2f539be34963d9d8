"""First-order optimizers over named parameter dicts, updated in place."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)


def adam_init(params: dict, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8) -> AdamState:
    if not 0.0 < lr:
        raise ValueError(f"lr must be positive, got {lr}")
    state = AdamState(lr=float(lr), beta1=float(beta1), beta2=float(beta2), eps=float(eps))
    for name, p in params.items():
        state.first_moment[name] = np.zeros_like(p)
        state.second_moment[name] = np.zeros_like(p)
    return state


def adam_step(state: AdamState, params: dict, grads: dict) -> None:
    """One bias-corrected update; arrays are modified in place so any
    aliases into a model structure stay live."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        if name not in grads:
            raise KeyError(f"no gradient supplied for parameter '{name}'")
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(
                f"gradient for '{name}' has shape {g.shape}, expected {p.shape}"
            )
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
