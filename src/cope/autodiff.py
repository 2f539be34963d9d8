"""Tape-based reverse-mode differentiation over the ops the models use.

Graphs are built by running ordinary forward code on :class:`Var` handles;
the same forward code runs on plain ndarrays, which is what the finite
difference checker and the brute-force oracles rely on. Every node that is
not a leaf carries its own VJP, a closure over its operands' values; a
plain operand is closed over, never pushed, so it gets no gradient.
Gradient accumulation walks node ids in reverse, so the order is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class Node:
    op: str
    value: np.ndarray
    inputs: tuple[int, ...]
    # the inputs' gradients from this node's, in order; None on a leaf
    vjp: Callable | None = None


class Tape:
    def __init__(self):
        self.nodes: list[Node] = []
        self._params: dict[str, int] = {}

    def _push(self, op, value, inputs=(), vjp=None) -> "Var":
        self.nodes.append(
            Node(op, np.asarray(value, dtype=np.float64), tuple(inputs), vjp)
        )
        return Var(self, len(self.nodes) - 1)

    def param(self, name: str, value) -> "Var":
        """Register a named trainable leaf; names must be unique per tape."""
        if name in self._params:
            raise ValueError(f"parameter '{name}' already registered on this tape")
        v = self._push("leaf", value)
        self._params[name] = v.nid
        return v

    def custom(self, value, inputs, vjp) -> "Var":
        """A node computed off the tape from the Vars `inputs`; `vjp(g)`
        returns each input's gradient, in order. `vjp` must hold no Var:
        one that reached its own tape would keep it alive until a GC pass."""
        if any(v.tape is not self for v in inputs):
            raise ValueError("operands live on different tapes")
        return self._push("custom", value, [v.nid for v in inputs], vjp)


def _binary(op, a, b, rule):
    """Push `op` of `a` and `b`, at least one of them a Var. `rule` is
    `(fn, grad_a, grad_b)`: for operand values x and y the node's value is
    `fn(x, y)`, and `grad_a(g, x, y)` and `grad_b(g, x, y)` are the
    operands' gradients. Only a Var is an input: a plain operand is closed
    over as a float64 array, and its gradient is never formed."""
    fn, grad_a, grad_b = rule
    if isinstance(a, Var):
        tape, x = a.tape, a.value
        if isinstance(b, Var):
            if b.tape is not tape:
                raise ValueError("operands live on different tapes")
            y = b.value
            return tape._push(
                op, fn(x, y), (a.nid, b.nid),
                lambda g: (grad_a(g, x, y), grad_b(g, x, y)),
            )
        y = np.asarray(b, dtype=np.float64)
        return tape._push(op, fn(x, y), (a.nid,), lambda g: (grad_a(g, x, y),))
    x = np.asarray(a, dtype=np.float64)
    y = b.value
    return b.tape._push(op, fn(x, y), (b.nid,), lambda g: (grad_b(g, x, y),))


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


def _matrix_product(op, x, y):
    """`x @ y`, or `x.T @ y` for "tmatmul", of two matrices."""
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError(f"{op} expects matrices, got {x.shape} and {y.shape}")
    return (x.T if op == "tmatmul" else x) @ y


# Each binary op's (value, first operand's gradient, second operand's
# gradient), of the operand values x, y and the output's gradient g.
_ADD = (np.add, lambda g, x, y: _unbroadcast(g, x.shape),
        lambda g, x, y: _unbroadcast(g, y.shape))
_SUB = (np.subtract, _ADD[1], lambda g, x, y: _unbroadcast(-g, y.shape))
_MUL = (np.multiply, lambda g, x, y: _unbroadcast(g * y, x.shape),
        lambda g, x, y: _unbroadcast(g * x, y.shape))
_MATMUL = (lambda x, y: _matrix_product("matmul", x, y),
           lambda g, x, y: g @ y.T, lambda g, x, y: x.T @ g)
# the matmul rule's A gradient transposed: the transpose + matmul pair's bytes
_TMATMUL = (lambda x, y: _matrix_product("tmatmul", x, y),
            lambda g, x, y: (g @ y.T).T, lambda g, x, y: x @ g)


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

    def __add__(self, other):
        return _binary("add", self, other, _ADD)

    __radd__ = __add__

    def __sub__(self, other):
        return _binary("sub", self, other, _SUB)

    def __mul__(self, other):
        return _binary("mul", self, other, _MUL)

    __rmul__ = __mul__

    def __neg__(self):
        return self.tape._push("neg", -self.value, (self.nid,), lambda g: (-g,))

    def __matmul__(self, other):
        return _binary("matmul", self, other, _MATMUL)

    def __rmatmul__(self, other):
        return _binary("matmul", other, self, _MATMUL)

    def tanh(self):
        y = np.tanh(self.value)
        return self.tape._push(
            "tanh", y, (self.nid,), lambda g: (g * (1.0 - y**2),)
        )

    def softplus(self):
        x = self.value
        return self.tape._push(
            "softplus", np.logaddexp(0.0, x), (self.nid,),
            lambda g: (g / (1.0 + np.exp(-x)),),
        )

    def sum(self, axis=None, keepdims=False):
        if axis is not None and not isinstance(axis, tuple):
            axis = (axis,)
        shape = self.value.shape

        def vjp(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape),)

        return self.tape._push(
            "sum", np.sum(self.value, axis=axis, keepdims=keepdims), (self.nid,), vjp
        )

    def mean(self):
        return self.sum() * (1.0 / self.value.size)

    def reshape(self, shape):
        in_shape = self.value.shape
        return self.tape._push(
            "reshape", np.reshape(self.value, shape), (self.nid,),
            lambda g: (np.reshape(g, in_shape),),
        )


def tmatmul(a, b):
    """`a.T @ b`: one tape node when either side is a Var, no transpose node.
    Plain arrays may carry leading copy axes."""
    if isinstance(a, Var) or isinstance(b, Var):
        return _binary("tmatmul", a, b, _TMATMUL)
    return a.swapaxes(-1, -2) @ b


def tanh(x):
    return x.tanh() if isinstance(x, Var) else np.tanh(x)


def softplus(x):
    return x.softplus() if isinstance(x, Var) else np.logaddexp(0.0, x)


def backward(tape: Tape, out: Var, seed=None) -> dict[str, np.ndarray]:
    """Accumulate d(seed . out)/d(param) for every registered parameter.

    Parameters the output does not depend on get zero gradients.
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
        g, vjp = grads[nid], nodes[nid].vjp
        if g is None or vjp is None:
            continue
        # Contributions may be read-only broadcast views, or the very object
        # held in another slot (add/sub pass `g` through), so later ones are
        # summed into a new array, never added in place.
        for inp, contrib in zip(nodes[nid].inputs, vjp(g)):
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
    analytic = backward(tape, out)
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
