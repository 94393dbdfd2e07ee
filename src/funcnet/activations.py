"""Pointwise activations with hand-coded derivatives."""

from __future__ import annotations

import numpy as np


def _out(x, out):
    """The caller's output array, or a new one shaped like x."""
    return np.empty(np.shape(x)) if out is None else out


def _relu(x, out=None):
    return np.maximum(x, 0.0, out=out)


def _relu_deriv(x, out=None):
    # subgradient at 0 fixed to 0
    return np.greater(x, 0.0, out=_out(x, out))


def _sigmoid(x, out=None):
    out = np.clip(x, -500.0, 500.0, out=_out(x, out))
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _sigmoid_deriv(x, out=None):
    s = _sigmoid(x, out)
    return np.multiply(s, 1.0 - s, out=s)


def _tanh_deriv(x, out=None):
    t = np.tanh(x, out=_out(x, out))
    np.multiply(t, t, out=t)
    return np.subtract(1.0, t, out=t)


def _identity(x, out=None):
    if out is None or out is x:
        return x
    np.copyto(out, x)
    return out


def _one(x, out=None):
    out = _out(x, out)
    out.fill(1.0)
    return out


_TABLE = {
    "relu": (_relu, _relu_deriv),
    "tanh": (np.tanh, _tanh_deriv),
    "sigmoid": (_sigmoid, _sigmoid_deriv),
    "identity": (_identity, _one),
}


class Activation:
    """An activation tag that can be applied and differentiated."""

    __slots__ = ("name", "_fn", "_deriv")

    def __init__(self, name: str):
        if name not in _TABLE:
            raise ValueError(
                f"unknown activation {name!r}; choose from {sorted(_TABLE)}"
            )
        self.name = name
        self._fn, self._deriv = _TABLE[name]

    def __call__(self, x, out=None):
        """act(x); with ``out`` (which may be ``x`` itself) the result is
        written there and returned instead of a new array."""
        return self._fn(x, out)

    def deriv(self, x, out=None):
        """act'(x), written to ``out`` when it is given."""
        return self._deriv(x, out)

    def __eq__(self, other):
        return isinstance(other, Activation) and other.name == self.name

    def __hash__(self):
        return hash(("Activation", self.name))

    def __repr__(self):
        return f"Activation({self.name!r})"
