"""Adam over one flat float64 vector that a model's parameter arrays view."""

from dataclasses import dataclass

import numpy as np

from .models import flatten_parameters


@dataclass
class AdamState:
    lr: float
    beta1: float
    beta2: float
    eps: float
    flat: np.ndarray  # every parameter; the model's arrays are views of it
    params: dict  # name -> the model's own array, a reshaped view of `flat`
    first_moment: np.ndarray
    second_moment: np.ndarray
    grad: np.ndarray  # the gathered gradients, rewritten every step
    step: int = 0


def adam_init(model, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8) -> AdamState:
    """State for a ModelSpec, ChainBlock or name -> array dict, whose own
    arrays are rebound in place to views of one vector."""
    if not 0.0 < lr:
        raise ValueError(f"lr must be positive, got {lr}")
    flat, views = flatten_parameters(model)
    hyper = (float(lr), float(beta1), float(beta2), float(eps))
    return AdamState(*hyper, flat, views, *np.zeros((3, flat.size)))


def adam_step(state: AdamState, grads: dict) -> None:
    """One bias-corrected update of every parameter in one pass; `grads`
    holds a gradient of each parameter's shape, named as in `state.params`."""
    for name, p in state.params.items():
        if name not in grads:
            raise KeyError(f"no gradient supplied for parameter '{name}'")
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient for '{name}' has shape {g.shape}, expected {p.shape}")
    np.concatenate([grads[name].reshape(-1) for name in state.params], out=state.grad)
    state.step += 1
    m, v, g, t = state.first_moment, state.second_moment, state.grad, state.step
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * g * g
    m_hat, v_hat = m / (1.0 - state.beta1**t), v / (1.0 - state.beta2**t)
    state.flat -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
