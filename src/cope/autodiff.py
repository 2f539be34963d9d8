"""Tape-based reverse-mode differentiation over the ops the models use.

Graphs are built by running ordinary forward code on :class:`Var` handles;
the same forward code runs on plain ndarrays, which is what the finite
difference checker and the brute-force oracles rely on. Gradient
accumulation walks node ids in reverse, so the order is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


@dataclass
class Node:
    op: str
    value: np.ndarray
    inputs: tuple[int, ...]
    ctx: Any = None


class Tape:
    def __init__(self):
        self.nodes: list[Node] = []
        self._params: dict[str, int] = {}

    def _push(self, op, value, inputs=(), ctx=None) -> "Var":
        self.nodes.append(
            Node(op, np.asarray(value, dtype=np.float64), tuple(inputs), ctx)
        )
        return Var(self, len(self.nodes) - 1)

    def param(self, name: str, value) -> "Var":
        """Register a named trainable leaf; names must be unique per tape."""
        if name in self._params:
            raise ValueError(f"parameter '{name}' already registered on this tape")
        v = self._push("leaf", value)
        self._params[name] = v.nid
        return v

    def constant(self, value) -> "Var":
        return self._push("leaf", value)

    def custom(self, value, inputs, vjp) -> "Var":
        """A node computed off the tape from the Vars `inputs`; `vjp(g)`
        returns each input's gradient, in order."""
        if any(v.tape is not self for v in inputs):
            raise ValueError("operands live on different tapes")
        return self._push("custom", value, [v.nid for v in inputs], ctx=vjp)


class Var:
    """Handle to one tape node; supports the operators the models need."""

    __slots__ = ("tape", "nid")

    # Forces ndarray <op> Var to defer to the reflected methods below.
    __array_ufunc__ = None

    def __init__(self, tape: Tape, nid: int):
        self.tape = tape
        self.nid = nid

    @property
    def value(self) -> np.ndarray:
        return self.tape.nodes[self.nid].value

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    def _binary(self, other, op, op_const, fn):
        if isinstance(other, Var):
            if other.tape is not self.tape:
                raise ValueError("operands live on different tapes")
            return self.tape._push(
                op, fn(self.value, other.value), (self.nid, other.nid)
            )
        c = np.asarray(other, dtype=np.float64)
        return self.tape._push(op_const, fn(self.value, c), (self.nid,), ctx=c)

    def __add__(self, other):
        return self._binary(other, "add", "add_const", np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, "sub", "sub_const", np.subtract)

    def __mul__(self, other):
        return self._binary(other, "mul", "mul_const", np.multiply)

    __rmul__ = __mul__

    def __neg__(self):
        return self.tape._push("neg", -self.value, (self.nid,))

    def __matmul__(self, other):
        return _matrix_product("matmul", self, other)

    def __rmatmul__(self, other):
        return _matrix_product("matmul", other, self)

    def tanh(self):
        return self.tape._push("tanh", np.tanh(self.value), (self.nid,))

    def softplus(self):
        return self.tape._push(
            "softplus", np.logaddexp(0.0, self.value), (self.nid,)
        )

    def sum(self, axis=None, keepdims=False):
        if axis is not None and not isinstance(axis, tuple):
            axis = (axis,)
        return self.tape._push(
            "sum",
            np.sum(self.value, axis=axis, keepdims=keepdims),
            (self.nid,),
            ctx=(axis, keepdims, self.value.shape),
        )

    def mean(self):
        return self.sum() * (1.0 / self.value.size)

    def reshape(self, shape):
        return self.tape._push(
            "reshape",
            np.reshape(self.value, shape),
            (self.nid,),
            ctx=self.value.shape,
        )


def _matrix_product(op, a, b):
    """Push `a @ b` or, as "tmatmul", `a.T @ b`; plain operands become constants."""
    tape = a.tape if isinstance(a, Var) else b.tape
    a, b = (v if isinstance(v, Var) else tape.constant(v) for v in (a, b))
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"{op} expects matrices, got {a.shape} and {b.shape}")
    lhs = a.value.T if op == "tmatmul" else a.value
    return tape._push(op, lhs @ b.value, (a.nid, b.nid))


def tmatmul(a, b):
    """`a.T @ b`: one tape node when either side is a Var, no transpose node.
    Plain arrays may carry leading copy axes."""
    if isinstance(a, Var) or isinstance(b, Var):
        return _matrix_product("tmatmul", a, b)
    return a.swapaxes(-1, -2) @ b


def tanh(x):
    return x.tanh() if isinstance(x, Var) else np.tanh(x)


def softplus(x):
    return x.softplus() if isinstance(x, Var) else np.logaddexp(0.0, x)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _sum_backward(node, g, nodes):
    axis, keepdims, in_shape = node.ctx
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return (np.broadcast_to(g, in_shape),)


_RULES: dict[str, Callable] = {
    "add": lambda n, g, v: (
        _unbroadcast(g, v[n.inputs[0]].value.shape),
        _unbroadcast(g, v[n.inputs[1]].value.shape),
    ),
    "add_const": lambda n, g, v: (_unbroadcast(g, v[n.inputs[0]].value.shape),),
    "sub": lambda n, g, v: (
        _unbroadcast(g, v[n.inputs[0]].value.shape),
        _unbroadcast(-g, v[n.inputs[1]].value.shape),
    ),
    "sub_const": lambda n, g, v: (_unbroadcast(g, v[n.inputs[0]].value.shape),),
    "mul": lambda n, g, v: (
        _unbroadcast(g * v[n.inputs[1]].value, v[n.inputs[0]].value.shape),
        _unbroadcast(g * v[n.inputs[0]].value, v[n.inputs[1]].value.shape),
    ),
    "mul_const": lambda n, g, v: (
        _unbroadcast(g * n.ctx, v[n.inputs[0]].value.shape),
    ),
    "neg": lambda n, g, v: (-g,),
    "matmul": lambda n, g, v: (
        g @ v[n.inputs[1]].value.T,
        v[n.inputs[0]].value.T @ g,
    ),
    # the matmul rule's A gradient transposed: the transpose + matmul pair's bytes
    "tmatmul": lambda n, g, v: ((g @ v[n.inputs[1]].value.T).T, v[n.inputs[0]].value @ g),
    "tanh": lambda n, g, v: (g * (1.0 - n.value**2),),
    "softplus": lambda n, g, v: (
        g / (1.0 + np.exp(-v[n.inputs[0]].value)),
    ),
    "sum": _sum_backward,
    "reshape": lambda n, g, v: (np.reshape(g, n.ctx),),
    "custom": lambda n, g, v: n.ctx(g),
}


def backward(tape: Tape, out: Var, seed=None) -> dict[str, np.ndarray]:
    """Accumulate d(seed . out)/d(param) for every registered parameter.

    Parameters the output does not depend on get zero gradients. Nodes whose
    op has no registered rule raise, naming the op.
    """
    nodes = tape.nodes
    out_val = nodes[out.nid].value
    seed = np.ones_like(out_val) if seed is None else np.asarray(seed, np.float64)
    if seed.shape != out_val.shape:
        raise ValueError(
            f"seed shape {seed.shape} does not match output shape {out_val.shape}"
        )
    grads: list[np.ndarray | None] = [None] * (out.nid + 1)
    grads[out.nid] = seed
    for nid in range(out.nid, -1, -1):
        g = grads[nid]
        if g is None:
            continue
        node = nodes[nid]
        if node.op == "leaf":
            continue
        rule = _RULES.get(node.op)
        if rule is None:
            raise ValueError(f"no backward rule registered for op '{node.op}'")
        # Contributions may be read-only broadcast views, or the very object
        # held in another slot (add/sub pass `g` through), so later ones are
        # summed into a new array, never added in place.
        for inp, contrib in zip(node.inputs, rule(node, g, nodes)):
            prev = grads[inp]
            grads[inp] = contrib if prev is None else prev + contrib
    result = {}
    for name, nid in tape._params.items():
        if nid <= out.nid and grads[nid] is not None:
            # a copy, so each gradient is writable and shares no memory with
            # the seed, a node value or another gradient
            result[name] = np.array(grads[nid])
        else:
            result[name] = np.zeros_like(nodes[nid].value)
    return result


# The relative error finite_diff_check holds a gradient to, which its noise
# floors are scaled by.
FD_TOLERANCE = 1e-5


def finite_diff_check(f, model, h: float = 1e-5) -> tuple[float, str]:
    """Max relative error between tape gradients and central differences,
    and the coordinate that first reached it, named as `b0.in1.v0[3]`.

    `model` is a ModelSpec, a ChainBlock or a name -> array dict, and `f`
    takes one of the same kind. `f` gets the model lifted onto a tape once
    and returns a scalar Var. For the differences it gets a batch of
    perturbed copies: every array has one more, leading, copy axis, and
    `f` returns one value per copy. Each copy is the flat parameter vector,
    in `model_parameters` order, with one coordinate moved by +h or -h, and
    all 2n copies of an n-parameter model go in one call; the caller's
    arrays are never touched. The relative error denominator is
    max(|analytic|, |fd|, 1e-8, floor) per coordinate.

    `floor` is the difference's own rounding noise, about 2 eps |f| / h,
    over FD_TOLERANCE: a gradient too small for the difference to resolve
    to FD_TOLERANCE is held to that noise in absolute terms. It exceeds
    1e-8, and so changes anything, only when that noise exceeds the 1e-13
    that the fixed floor allows at 1e-5.

    A coordinate whose error reaches FD_TOLERANCE is redone with the
    Richardson difference (4 D(h/2) - D(h)) / 3, whose truncation error is
    O(h^4), not O(h^2), and whose rounding noise is three times D(h)'s. Its
    error is the one reported. The redo is one call of that coordinate's
    two copies. A wrong gradient is as far from either difference, so it
    still shows in full. A NaN gradient reads NaN.
    """
    # imported here: models imports this module
    from .models import flatten_parameters, lift_model, model_parameters, with_parameters

    tape = Tape()
    out = f(lift_model(tape, model))
    if not isinstance(out, Var) or out.value.size != 1:
        raise ValueError("finite_diff_check needs a scalar-valued graph output")
    analytic = backward(tape, out, np.ones_like(out.value))
    # 2 / FD_TOLERANCE rounded to the integer it stands for, 2e5 exactly
    floor = round(2 / FD_TOLERANCE) * float(np.finfo(np.float64).eps)
    floor = floor * abs(out.value.item()) / h

    work = with_parameters(model, model_parameters(model))
    flat, views = flatten_parameters(work)
    a_flat = np.concatenate([np.ravel(analytic[name]) for name in views])
    names, ends = list(views), np.cumsum([v.size for v in views.values()])

    def label(i):
        k = int(np.searchsorted(ends, i, side="right"))
        return f"{names[k]}[{i - int(ends[k]) + views[names[k]].size}]"

    def central(coords, step):
        """Central differences at `coords`, from one call of f on their
        +step copies followed by their -step copies."""
        m = len(coords)
        rows = np.tile(flat, (2 * m, 1))
        rows[np.arange(m), coords] = flat[coords] + step
        rows[np.arange(m, 2 * m), coords] = flat[coords] - step
        copies = with_parameters(model, {
            name: cols.reshape((2 * m, *views[name].shape))
            for name, cols in zip(names, np.split(rows, ends[:-1], axis=1))
        })
        vals = np.asarray(f(copies), dtype=np.float64)
        if vals.size != 2 * m:
            raise ValueError(f"f returned {vals.size} values for {2 * m} copies")
        vals = vals.reshape(2, m)
        bad = ~np.isfinite(vals).all(axis=0)
        if bad.any():
            raise ValueError(f"non-finite value while perturbing {label(coords[np.argmax(bad)])}")
        return (vals[0] - vals[1]) / (2.0 * step)

    def rel_error(a, fd, floor):
        scale = np.maximum(np.maximum(np.abs(a), np.abs(fd)), max(1e-8, floor))
        return np.abs(a - fd) / scale

    fd = central(np.arange(flat.size), h)
    rel = rel_error(a_flat, fd, floor)
    for i in np.flatnonzero(~(rel < FD_TOLERANCE)):
        fd_half = central([i], h / 2.0)[0]
        rel[i] = rel_error(a_flat[i], (4.0 * fd_half - fd[i]) / 3.0, 3.0 * floor)
    # argmax returns the first NaN, if any, else the first largest error
    worst = int(np.argmax(rel))
    return float(rel[worst]), label(worst)
