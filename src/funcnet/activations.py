"""Pointwise activations with hand-coded derivatives, taken from the
activated output."""

from __future__ import annotations

import numpy as np


def _out(x, out):
    """The caller's output array, or a new one shaped like x."""
    return np.empty(np.shape(x)) if out is None else out


def _relu(x, out=None):
    return np.maximum(x, 0.0, out=out)


def _relu_deriv(h, out=None):
    # relu(x) > 0 exactly when x > 0: the subgradient at 0 is 0
    return np.greater(h, 0.0, out=_out(h, out))


def _sigmoid(x, out=None):
    out = np.clip(x, -500.0, 500.0, out=_out(x, out))
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _sigmoid_deriv(h, out=None):
    out = np.subtract(1.0, h, out=_out(h, out))
    return np.multiply(h, out, out=out)


def _tanh_deriv(h, out=None):
    out = np.multiply(h, h, out=_out(h, out))
    return np.subtract(1.0, out, out=out)


def _identity(x, out=None):
    if out is None or out is x:
        return x
    np.copyto(out, x)
    return out


def _one(h, out=None):
    out = _out(h, out)
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

    def deriv(self, h, out=None):
        """act'(x) from the activated output h = act(x), written to ``out``
        (not ``h`` itself) when it is given.  Each derivative is a
        function of the output (relu h > 0, tanh 1 - h h, sigmoid
        h (1 - h), identity 1), so a forward pass need keep only its
        activated arrays."""
        return self._deriv(h, out)

    def __eq__(self, other):
        return isinstance(other, Activation) and other.name == self.name

    def __hash__(self):
        return hash(("Activation", self.name))

    def __repr__(self):
        return f"Activation({self.name!r})"
