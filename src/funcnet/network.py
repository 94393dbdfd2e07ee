"""The layer stack shared by the direct, basis and vector networks.

A :class:`Network` runs a list of layers: each maps a batch of shape
``(n, *layer.in_shape)`` to pre-activations of shape
``(n, *layer.out_shape)`` and applies its activation pointwise.  The
network owns the loops (forward with a cache, predict without one,
reverse mode), the parameter list, the penalty sum, the scratch arrays
and serialization.  A layer type supplies only what differs:

- ``in_shape``, ``out_shape`` and ``activation``;
- ``param_names``: the attributes holding its intercept and weight arrays;
- ``affine(h, a, buffer, reuse_input)``: its contraction of ``h`` plus
  intercept, written to ``a``; returns what its adjoint needs besides
  ``h`` (or None).  With ``reuse_input`` the layer may overwrite ``h``;
- ``backward(h, saved, delta_a, buffer, need_dh)``: the adjoint, returning
  the intercept gradient, the weight gradient and, when asked, the
  sensitivity to ``h``;
- ``roughness(which, lam, buffer, grad)``: the value of the penalty on
  parameter ``which`` (0 intercept, 1 weight) at level ``lam > 0``,
  adding its gradient into ``grad``;
- ``to_dict()`` and ``from_dict(spec, in_grid)`` for its part of the
  document.

``buffer(name, shape)`` hands out the network's scratch arrays.  Every
pass writes its intermediate arrays there, each grown to the largest
batch seen, instead of allocating fresh ones; predictions and gradients
handed back are always new arrays that belong to the caller.
"""

from __future__ import annotations

import math

import numpy as np

from .activations import Activation
from .grids import Grid

SCHEMA_VERSION = 1


class GridLayer:
    """A continuous layer: J incoming curves on ``in_grid``, K outgoing
    curves on ``out_grid``, an intercept array of shape (K, b_size) and a
    weight array of shape (K, J, *w_tail), stored under ``param_names``."""

    param_names = ("b", "w")

    def __init__(self, b, w, in_grid: Grid, out_grid: Grid, activation: Activation,
                 b_size: int, w_tail: tuple[int, int]):
        b = np.asarray(b, dtype=float)
        w = np.asarray(w, dtype=float)
        if b.ndim != 2 or w.ndim != 4 or b.shape != (w.shape[0], b_size) or w.shape[2:] != w_tail:
            raise ValueError(f"parameter shapes {b.shape} / {w.shape} are not "
                             f"(K, {b_size}) / (K, J, {w_tail[0]}, {w_tail[1]})")
        for name, value in zip(self.param_names, (b, w)):
            setattr(self, name, value)
        self.out_count, self.in_count = w.shape[:2]
        self.in_grid = in_grid
        self.out_grid = out_grid
        self.activation = activation
        self.in_shape = (self.in_count, in_grid.m)
        self.out_shape = (self.out_count, out_grid.m)

    def _quadrature(self, h, buffer, reuse_input) -> np.ndarray:
        """h times the incoming grid's trapezoid weights: in place when
        ``reuse_input`` allows it, else in scratch."""
        if reuse_input:
            h *= self.in_grid.trapezoid_weights
            return h
        return np.multiply(h, self.in_grid.trapezoid_weights, out=buffer("hq", h.shape))


class _ForwardCache(list):
    """Per-layer ``(h_in, saved, h_out)`` triples of one forward pass,
    where ``h_out`` is the layer's activated output and the next layer's
    ``h_in``: one array per layer.

    The arrays live in the network's scratch space, so the cache is
    valid only until the next :meth:`Network.forward` on that network;
    ``stamp`` tells :meth:`Network.backward` which of the network's
    passes made it.
    """

    __slots__ = ("stamp",)


class Network:
    """Hidden layers plus a single output neuron, evaluated on a grid.

    Input batches have shape (n, input_count, input_grid.m); predictions
    have shape (n, output_grid.m).
    """

    kind: str
    layer_type: type

    def __init__(self, layers: list, input_grid: Grid, input_count: int):
        if not layers:
            raise ValueError("network needs at least the output layer")
        if layers[0].in_shape != (input_count, input_grid.m):
            raise ValueError("first layer incompatible with the declared input")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.in_shape != prev.out_shape:
                raise ValueError("adjacent layers are incompatible")
        if layers[-1].out_shape[0] != 1:
            raise ValueError("output layer must have exactly one neuron")
        self.layers = layers
        self.input_grid = input_grid
        self.input_count = input_count
        self.output_grid = Grid(layers[-1].out_shape[1])
        self._scratch: dict = {}
        self._forwards = 0  # stamps each forward cache

    def _buffer(self, name, shape) -> np.ndarray:
        """The leading part of scratch array ``name``, viewed with ``shape``."""
        size = math.prod(shape)
        buf = self._scratch.get(name)
        if buf is None or buf.size < size:
            buf = self._scratch[name] = np.empty(size)
        return buf[:size].reshape(shape)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def _check_input(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 3 or x.shape[1:] != (self.input_count, self.input_grid.m):
            raise ValueError(
                f"expected input of shape (n, {self.input_count}, "
                f"{self.input_grid.m}), got {x.shape}"
            )
        return x

    def forward(self, x):
        """Evaluate the network on a batch x of shape (n, R, input_m).

        Returns ``(pred, cache)`` where pred has shape (n, output_m) and
        cache holds, per layer, what :meth:`backward` needs.  The cache
        is valid until the next ``forward`` on this network.
        """
        h = self._check_input(x)
        n = h.shape[0]
        cache = _ForwardCache()
        for idx, layer in enumerate(self.layers):
            a = self._buffer(("a", idx), (n, *layer.out_shape))
            saved = layer.affine(h, a, self._buffer, False)
            layer.activation(a, out=a)
            cache.append((h, saved, a))
            h = a
        self._forwards += 1
        cache.stamp = self._forwards
        return h[:, 0, :].copy(), cache

    def predict(self, x):
        """Predictions for x, without keeping a cache for :meth:`backward`."""
        h = self._check_input(x)
        n = h.shape[0]
        last = len(self.layers) - 1
        for idx, layer in enumerate(self.layers):
            shape = (n, *layer.out_shape)
            a = np.empty(shape) if idx == last else self._buffer(("p", idx % 2), shape)
            # past the first layer, h is the previous layer's scratch output
            layer.affine(h, a, self._buffer, idx > 0)
            h = layer.activation(a, out=a)
        return h[:, 0, :]

    def backward(self, cache, residuals):
        """Gradients of the discretized batch loss given residuals yhat - y.

        The loss is mean-over-samples of the trapezoid integral of the
        squared residual.  Gradients come back interleaved like
        :meth:`parameters`.  ``cache`` must come from this network's most
        recent :meth:`forward`; an older one raises ValueError.  That
        forward may have run on more curves than there are residuals: the
        batch is then its first ``residuals.shape[0]`` curves, whose
        cached rows are the same as those of a forward on them alone.
        """
        if getattr(cache, "stamp", None) != self._forwards:
            raise ValueError("stale cache: backward needs this network's latest forward")
        n = residuals.shape[0]
        if len(cache) != len(self.layers) or cache[0][0].shape[0] < n:
            raise ValueError("cache does not match this network/batch")
        cache = [tuple(None if arr is None else arr[:n] for arr in entry) for entry in cache]
        qy = self.output_grid.trapezoid_weights
        delta_h = (2.0 / n) * residuals * qy  # d loss / d prediction values
        last = len(self.layers) - 1
        h_out = cache[last][2]
        delta_a = self.layers[last].activation.deriv(
            h_out, out=self._buffer("delta", h_out.shape))
        delta_a *= delta_h[:, None, :]
        grads: list[np.ndarray] = [None] * (2 * len(self.layers))
        for idx in range(last, -1, -1):
            h_in, saved, _ = cache[idx]
            grads[2 * idx], grads[2 * idx + 1], dh = self.layers[idx].backward(
                h_in, saved, delta_a, self._buffer, idx > 0
            )
            if idx > 0:
                # the activated output of layer idx - 1 is h_in
                delta_a = self.layers[idx - 1].activation.deriv(
                    h_in, out=self._buffer("delta", h_in.shape)
                )
                delta_a *= dh
        return grads

    # ------------------------------------------------------------------
    # parameters and penalty
    # ------------------------------------------------------------------

    def parameters(self) -> list[np.ndarray]:
        """Live parameter arrays, interleaved [b0, w0, b1, w1, ...]."""
        return [getattr(layer, name) for layer in self.layers for name in layer.param_names]

    def set_parameters(self, values):
        for target, src in zip(self.parameters(), values):
            target[...] = src

    def penalty(self, lam_b: float, lam_w: float, grads=None):
        """Roughness penalty and its exact gradient, interleaved like
        :meth:`parameters`: lam_b weighs the intercepts' roughness and
        lam_w the weights'.  With ``grads`` (interleaved the same way)
        the penalty gradient is added into them in place and they are
        returned; else it comes back in new arrays."""
        if lam_b < 0 or lam_w < 0:
            raise ValueError("smoothing parameters must be non-negative")
        if grads is None:
            grads = [np.zeros_like(p) for p in self.parameters()]
        value = 0.0
        for idx, layer in enumerate(self.layers):
            for which, lam in enumerate((lam_b, lam_w)):
                if lam > 0.0:
                    value += layer.roughness(which, lam, self._buffer, grads[2 * idx + which])
        return value, grads

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, "kind": self.kind, **self._layout()}

    def _layout(self) -> dict:
        return {
            "input_m": self.input_grid.m,
            "input_count": self.input_count,
            "layers": [layer.to_dict() for layer in self.layers],
        }

    @classmethod
    def from_dict(cls, doc: dict):
        """The network of a :meth:`to_dict` document; called on ``Network``
        itself, an instance of the subclass whose ``kind`` it names."""
        if cls is Network:
            kinds = {sub.kind: sub for sub in Network.__subclasses__()}
        else:
            kinds = {cls.kind: cls}
        if doc.get("kind") not in kinds:
            raise ValueError(f"document kind {doc.get('kind')!r} is not one of {sorted(kinds)}")
        return kinds[doc["kind"]]._from_layout(doc)

    @classmethod
    def _from_layout(cls, doc: dict):
        input_grid = in_grid = Grid(doc["input_m"])
        layers = []
        for spec in doc["layers"]:
            layers.append(cls.layer_type.from_dict(spec, in_grid))
            in_grid = layers[-1].out_grid
        return cls(layers, input_grid, doc["input_count"])


# ----------------------------------------------------------------------
# architecture of the continuous networks
# ----------------------------------------------------------------------


def check_architecture(config) -> None:
    """Checks shared by FdnnConfig and FbnnConfig.

    A single hidden grid size is repeated for every hidden layer.
    """
    if config.input_count < 1:
        raise ValueError("need at least one predictor function")
    if not config.hidden_neurons:
        config.hidden_points = ()
    elif len(config.hidden_points) == 1 and len(config.hidden_neurons) > 1:
        config.hidden_points = config.hidden_points * len(config.hidden_neurons)
    if len(config.hidden_points) != len(config.hidden_neurons):
        raise ValueError("hidden_points and hidden_neurons lengths differ")
    if any(k < 1 for k in config.hidden_neurons):
        raise ValueError("every hidden layer needs at least one neuron")
    Activation(config.activation)  # reject unknown names early


def build(cls, config, seed, make_layer):
    """A new ``cls`` network with ``config``'s hidden layers and an identity
    output neuron.  ``make_layer(rng, in_grid, in_count, out_grid,
    out_count, activation)`` makes each layer, first to last, drawing
    its parameters from one generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    act = Activation(config.activation)
    outs = [(Grid(m), k, act) for k, m in zip(config.hidden_neurons, config.hidden_points)]
    outs.append((Grid(config.output_points), 1, Activation("identity")))
    input_grid = in_grid = Grid(config.input_points)
    in_count = config.input_count
    layers = []
    for out_grid, out_count, layer_act in outs:
        layers.append(make_layer(rng, in_grid, in_count, out_grid, out_count, layer_act))
        in_grid, in_count = out_grid, out_count
    return cls(layers, input_grid, config.input_count)
