"""Functional direct neural network (FDNN).

A network of continuous layers whose parameters are sampled directly on
grids: layer ``l`` holds intercept curves b_k(s) and weight surfaces
w_{j,k}(s, t) and maps J incoming functions to K outgoing ones via

    H_k(s) = act( b_k(s) + sum_j  integral  w_{j,k}(s, t) H_j(t) dt )

with all integrals taken as trapezoid sums on the incoming grid.  The
final layer has a single neuron with identity activation, evaluated on
the response grid.

Gradients returned by :meth:`FdnnNetwork.backward` are the exact
gradients of the quadrature-discretized squared-error loss, so central
finite differences of that loss reproduce them to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .activations import Activation
from .grids import Grid, second_diff, second_diff_adjoint

SCHEMA_VERSION = 1


class FdnnLayer:
    """One continuous layer: J incoming curves, K outgoing curves.

    b has shape (K, out_m); w has shape (K, J, out_m, in_m) with the
    first grid axis indexing the output argument s and the second the
    integration variable t.
    """

    def __init__(self, b, w, in_grid: Grid, out_grid: Grid, activation: Activation):
        b = np.asarray(b, dtype=float)
        w = np.asarray(w, dtype=float)
        if b.ndim != 2 or w.ndim != 4:
            raise ValueError("b must be (K, out_m) and w must be (K, J, out_m, in_m)")
        k, j = w.shape[0], w.shape[1]
        if b.shape != (k, out_grid.m) or w.shape[2:] != (out_grid.m, in_grid.m):
            raise ValueError(
                f"parameter shapes b{b.shape} / w{w.shape} do not match grids "
                f"(out_m={out_grid.m}, in_m={in_grid.m})"
            )
        self.b = b
        self.w = w
        self.in_count = j
        self.out_count = k
        self.in_grid = in_grid
        self.out_grid = out_grid
        self.activation = activation


class _ForwardCache(list):
    """Per-layer ``(h_in, a)`` pairs of one forward pass.

    The arrays live in the network's scratch space, so the cache is
    valid only until the next :meth:`FdnnNetwork.forward` on that
    network; ``stamp`` tells :meth:`FdnnNetwork.backward` which of the
    network's passes made it.
    """

    __slots__ = ("stamp",)


class FdnnNetwork:
    """Continuous hidden layers plus a single identity output neuron.

    The passes below write their intermediate arrays into scratch arrays
    the network keeps between calls, each grown to the largest batch
    seen, instead of allocating fresh ones.  Predictions and gradients
    handed back are always new arrays that belong to the caller.
    """

    kind = "fdnn"

    def __init__(self, layers: list[FdnnLayer], input_grid: Grid, input_count: int):
        if not layers:
            raise ValueError("network needs at least the output layer")
        if layers[0].in_count != input_count or layers[0].in_grid != input_grid:
            raise ValueError("first layer incompatible with the declared input")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.in_count != prev.out_count or nxt.in_grid != prev.out_grid:
                raise ValueError("adjacent layers are incompatible")
        if layers[-1].out_count != 1:
            raise ValueError("output layer must have exactly one neuron")
        self.layers = layers
        self.input_grid = input_grid
        self.input_count = input_count
        self._scratch: dict = {}
        self._forwards = 0  # stamps each forward cache

    @property
    def output_grid(self) -> Grid:
        return self.layers[-1].out_grid

    def _buffer(self, name, shape) -> np.ndarray:
        """The leading part of scratch array ``name``, viewed with ``shape``."""
        size = math.prod(shape)
        buf = self._scratch.get(name)
        if buf is None or buf.size < size:
            buf = self._scratch[name] = np.empty(size)
        return buf[:size].reshape(shape)

    def _weights(self, layer: FdnnLayer, axes) -> np.ndarray:
        """layer.w with its axes reordered to ``axes``, as a 2-D matrix
        whose rows run over the first two of them."""
        w = layer.w.transpose(axes)
        wt = self._buffer("wt", w.shape)
        np.copyto(wt, w)
        return wt.reshape(w.shape[0] * w.shape[1], -1)

    def _affine(self, layer: FdnnLayer, hq, a):
        """a = b + the quadrature contraction of w against hq = h * q."""
        n = hq.shape[0]
        np.dot(hq.reshape(n, -1), self._weights(layer, (1, 3, 0, 2)), out=a.reshape(n, -1))
        a += layer.b

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def _check_input(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 3 or x.shape[1] != self.input_count or x.shape[2] != self.input_grid.m:
            raise ValueError(
                f"expected input of shape (n, {self.input_count}, "
                f"{self.input_grid.m}), got {x.shape}"
            )
        return x

    def forward(self, x):
        """Evaluate the network on a batch x of shape (n, R, input_m).

        Returns ``(pred, cache)`` where pred has shape (n, output_m) and
        cache holds, per layer, the incoming curves and pre-activations
        needed by :meth:`backward`.  The cache is valid until the next
        ``forward`` on this network.
        """
        h = self._check_input(x)
        n = h.shape[0]
        cache = _ForwardCache()
        last = len(self.layers) - 1
        for idx, layer in enumerate(self.layers):
            hq = self._buffer("hq", h.shape)
            np.multiply(h, layer.in_grid.trapezoid_weights, out=hq)
            a = self._buffer(("a", idx), (n, layer.out_count, layer.out_grid.m))
            self._affine(layer, hq, a)
            cache.append((h, a))
            h = np.empty(a.shape) if idx == last else self._buffer(("h", idx + 1), a.shape)
            layer.activation(a, out=h)
        self._forwards += 1
        cache.stamp = self._forwards
        return h[:, 0, :], cache

    def predict(self, x):
        """Predictions for x, without keeping a cache for :meth:`backward`."""
        h = self._check_input(x)
        n = h.shape[0]
        last = len(self.layers) - 1
        for idx, layer in enumerate(self.layers):
            q = layer.in_grid.trapezoid_weights
            if idx == 0:  # x is the caller's
                hq = np.multiply(h, q, out=self._buffer("hq", h.shape))
            else:  # h is the previous layer's output, no longer needed
                hq = h
                hq *= q
            shape = (n, layer.out_count, layer.out_grid.m)
            a = np.empty(shape) if idx == last else self._buffer(("p", idx % 2), shape)
            self._affine(layer, hq, a)
            h = layer.activation(a, out=a)
        return h[:, 0, :]

    def backward(self, cache, residuals):
        """Gradients of the discretized batch loss given residuals yhat - y.

        The loss is mean-over-samples of the trapezoid integral of the
        squared residual.  Local sensitivities are act'(a) for intercepts
        and act'(a(s)) H_in(t) for weight surfaces; across layers the
        adjoint contracts the weight surface against the downstream
        sensitivity with the incoming grid's quadrature weights.

        ``cache`` must come from this network's most recent
        :meth:`forward`; an older one raises ValueError.
        """
        if getattr(cache, "stamp", None) != self._forwards:
            raise ValueError("stale cache: backward needs this network's latest forward")
        n = residuals.shape[0]
        if len(cache) != len(self.layers) or cache[0][0].shape[0] != n:
            raise ValueError("cache does not match this network/batch")
        qy = self.output_grid.trapezoid_weights
        delta_h = (2.0 / n) * residuals * qy  # d loss / d prediction values
        last = len(self.layers) - 1
        a = cache[last][1]
        delta_a = self.layers[last].activation.deriv(a, out=self._buffer("delta", a.shape))
        delta_a *= delta_h[:, None, :]
        grads: list[np.ndarray] = [None] * (2 * len(self.layers))
        for idx in range(last, -1, -1):
            layer = self.layers[idx]
            h_in = cache[idx][0]
            q = layer.in_grid.trapezoid_weights
            grads[2 * idx] = delta_a.sum(axis=0)
            hq = np.multiply(h_in, q, out=self._buffer("hq", h_in.shape))
            gw = np.dot(delta_a.reshape(n, -1).T, hq.reshape(n, -1))
            k, j, s, t = layer.w.shape
            grads[2 * idx + 1] = gw.reshape(k, s, j, t).transpose(0, 2, 1, 3)
            if idx > 0:
                dh = hq  # h_in * q has been used; its space takes dh
                np.dot(delta_a.reshape(n, -1), self._weights(layer, (0, 2, 1, 3)),
                       out=dh.reshape(n, -1))
                dh *= q
                prev = self.layers[idx - 1]
                delta_a = prev.activation.deriv(cache[idx - 1][1],
                                                out=self._buffer("delta", dh.shape))
                delta_a *= dh
        return grads

    # ------------------------------------------------------------------
    # parameters and penalty
    # ------------------------------------------------------------------

    def parameters(self) -> list[np.ndarray]:
        """Live parameter arrays, interleaved [b0, w0, b1, w1, ...]."""
        out = []
        for layer in self.layers:
            out.append(layer.b)
            out.append(layer.w)
        return out

    def set_parameters(self, values):
        for target, src in zip(self.parameters(), values):
            target[...] = src

    def penalty(self, lam_b: float, lam_w: float):
        """Roughness penalty and its exact gradient.

        Value: lam_b * sum of integral(b'')^2 over all intercepts plus
        lam_w * sum of the double integral of the squared Laplacian over
        all weight surfaces, with derivatives by zero-padded central
        differences and integrals by trapezoid.
        """
        if lam_b < 0 or lam_w < 0:
            raise ValueError("smoothing parameters must be non-negative")
        value = 0.0
        grads = []
        for layer in self.layers:
            hs = layer.out_grid.h
            ht = layer.in_grid.h
            qs = layer.out_grid.trapezoid_weights
            qt = layer.in_grid.trapezoid_weights
            if lam_b > 0.0:
                value += self._roughness(layer.b, ((1, hs),), qs, lam_b, grads)
            else:
                grads.append(np.zeros_like(layer.b))
            if lam_w > 0.0:
                quad = qs[:, None] * qt[None, :]
                value += self._roughness(layer.w, ((2, hs), (3, ht)), quad, lam_w, grads)
            else:
                grads.append(np.zeros_like(layer.w))
        return value, grads

    def _roughness(self, f, steps, quad, lam: float, grads: list) -> float:
        """lam * sum(quad * (D f)^2), appending its gradient to ``grads``.

        D f sums the second differences of f along each ``(axis, h)`` of
        ``steps``; the gradient is 2 lam D^T (quad * D f).
        """
        d, tmp, adj = (self._buffer(("pen", i), f.shape) for i in range(3))
        (axis, h), *rest = steps
        second_diff(f, h, axis=axis, out=d)
        for other, h_other in rest:
            d += second_diff(f, h_other, axis=other, out=tmp)
        np.multiply(d, d, out=tmp)
        tmp *= quad
        value = lam * float(np.sum(tmp))
        u = np.multiply(quad, d, out=tmp)
        second_diff_adjoint(u, h, axis=axis, out=adj)
        for other, h_other in rest:
            adj += second_diff_adjoint(u, h_other, axis=other, out=d)
        grads.append(2.0 * lam * adj)
        return value

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "input_m": self.input_grid.m,
            "input_count": self.input_count,
            "layers": [
                {
                    "activation": layer.activation.name,
                    "out_m": layer.out_grid.m,
                    "b": layer.b.tolist(),
                    "w": layer.w.tolist(),
                }
                for layer in self.layers
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FdnnNetwork":
        if doc.get("kind") != cls.kind:
            raise ValueError(f"not an {cls.kind} document: kind={doc.get('kind')!r}")
        input_grid = Grid(doc["input_m"])
        in_grid = input_grid
        layers = []
        for spec in doc["layers"]:
            out_grid = Grid(spec["out_m"])
            layers.append(
                FdnnLayer(
                    np.asarray(spec["b"], dtype=float),
                    np.asarray(spec["w"], dtype=float),
                    in_grid,
                    out_grid,
                    Activation(spec["activation"]),
                )
            )
            in_grid = out_grid
        return cls(layers, input_grid, doc["input_count"])


@dataclass
class FdnnConfig:
    """Architecture description used by :func:`init`."""

    input_points: int = 100
    output_points: int = 75
    input_count: int = 1
    hidden_neurons: tuple[int, ...] = (4,)
    hidden_points: tuple[int, ...] = (50,)
    activation: str = "tanh"

    def __post_init__(self):
        if self.input_count < 1:
            raise ValueError("need at least one predictor function")
        if not self.hidden_neurons:
            self.hidden_points = ()
        elif len(self.hidden_points) == 1 and len(self.hidden_neurons) > 1:
            self.hidden_points = self.hidden_points * len(self.hidden_neurons)
        if len(self.hidden_points) != len(self.hidden_neurons):
            raise ValueError("hidden_points and hidden_neurons lengths differ")
        if any(k < 1 for k in self.hidden_neurons):
            raise ValueError("every hidden layer needs at least one neuron")
        Activation(self.activation)  # reject unknown names early


def init(config: FdnnConfig, seed) -> FdnnNetwork:
    """Random network: weight values iid N(0, 2/J), intercepts zero."""
    rng = np.random.default_rng(seed)
    act = Activation(config.activation)
    input_grid = Grid(config.input_points)
    layers = []
    in_grid, in_count = input_grid, config.input_count
    plan = [
        (k, Grid(m), act)
        for k, m in zip(config.hidden_neurons, config.hidden_points)
    ]
    plan.append((1, Grid(config.output_points), Activation("identity")))
    for out_count, out_grid, layer_act in plan:
        scale = np.sqrt(2.0 / in_count)
        w = scale * rng.standard_normal((out_count, in_count, out_grid.m, in_grid.m))
        b = np.zeros((out_count, out_grid.m))
        layers.append(FdnnLayer(b, w, in_grid, out_grid, layer_act))
        in_grid, in_count = out_grid, out_count
    return FdnnNetwork(layers, input_grid, config.input_count)
