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

from dataclasses import dataclass

import numpy as np

from .activations import Activation
from .grids import Grid, second_diff, second_diff_adjoint
from .network import GridLayer, Network, build, check_architecture


class FdnnLayer(GridLayer):
    """One continuous layer: J incoming curves, K outgoing curves.

    b has shape (K, out_m); w has shape (K, J, out_m, in_m) with the
    first grid axis indexing the output argument s and the second the
    integration variable t.
    """

    def __init__(self, b, w, in_grid: Grid, out_grid: Grid, activation: Activation):
        super().__init__(b, w, in_grid, out_grid, activation,
                         out_grid.m, (out_grid.m, in_grid.m))

    def _weights(self, buffer, axes) -> np.ndarray:
        """w with its axes reordered to ``axes``, as a 2-D scratch matrix
        whose rows run over the first two of them."""
        w = self.w.transpose(axes)
        wt = buffer("wt", w.shape)
        np.copyto(wt, w)
        return wt.reshape(w.shape[0] * w.shape[1], -1)

    def affine(self, h, a, buffer, reuse_input):
        """a = b + the quadrature contraction of w against h * q: one GEMM."""
        n = h.shape[0]
        hq = self._quadrature(h, buffer, reuse_input)
        np.dot(hq.reshape(n, -1), self._weights(buffer, (1, 3, 0, 2)), out=a.reshape(n, -1))
        a += self.b

    def backward(self, h_in, _saved, delta_a, buffer, need_dh):
        """Local sensitivities are act'(a) for intercepts and act'(a(s))
        H_in(t) for weight surfaces; the adjoint contracts the weight
        surface against them with the incoming grid's quadrature weights."""
        n = h_in.shape[0]
        gb = delta_a.sum(axis=0)
        hq = self._quadrature(h_in, buffer, False)
        gw = np.dot(delta_a.reshape(n, -1).T, hq.reshape(n, -1))
        k, j, s, t = self.w.shape
        gw = gw.reshape(k, s, j, t).transpose(0, 2, 1, 3)
        if not need_dh:
            return gb, gw, None
        dh = hq  # h_in * q has been used; its space takes dh
        np.dot(delta_a.reshape(n, -1), self._weights(buffer, (0, 2, 1, 3)),
               out=dh.reshape(n, -1))
        dh *= self.in_grid.trapezoid_weights
        return gb, gw, dh

    def roughness(self, which, lam, buffer, grad):
        """lam * integral(b'')^2 summed over intercepts (which 0), or lam *
        the double integral of the squared Laplacian summed over weight
        surfaces (which 1), with derivatives by zero-padded central
        differences and integrals by trapezoid."""
        hs, qs = self.out_grid.h, self.out_grid.trapezoid_weights
        if which == 0:
            return _roughness(self.b, ((1, hs),), qs, lam, buffer, grad)
        quad = qs[:, None] * self.in_grid.trapezoid_weights[None, :]
        return _roughness(self.w, ((2, hs), (3, self.in_grid.h)), quad, lam, buffer, grad)

    def to_dict(self) -> dict:
        return {
            "activation": self.activation.name,
            "out_m": self.out_grid.m,
            "b": self.b.tolist(),
            "w": self.w.tolist(),
        }

    @classmethod
    def from_dict(cls, spec: dict, in_grid: Grid) -> "FdnnLayer":
        return cls(spec["b"], spec["w"], in_grid, Grid(spec["out_m"]),
                   Activation(spec["activation"]))


def _roughness(f, steps, quad, lam: float, buffer, grad):
    """lam * sum(quad * (D f)^2); adds its gradient 2 lam D^T (quad * D f)
    into ``grad``.

    D f sums the second differences of f along each ``(axis, h)`` of
    ``steps``.
    """
    d, tmp, adj = (buffer(("pen", i), f.shape) for i in range(3))
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
    adj *= 2.0 * lam
    grad += adj
    return value


class FdnnNetwork(Network):
    """Continuous hidden layers plus a single identity output neuron."""

    kind = "fdnn"
    layer_type = FdnnLayer


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
        check_architecture(self)


def init(config: FdnnConfig, seed) -> FdnnNetwork:
    """Random network: weight values iid N(0, 2/J), intercepts zero."""

    def layer(rng, in_grid, in_count, out_grid, out_count, act):
        scale = np.sqrt(2.0 / in_count)
        w = scale * rng.standard_normal((out_count, in_count, out_grid.m, in_grid.m))
        return FdnnLayer(np.zeros((out_count, out_grid.m)), w, in_grid, out_grid, act)

    return build(FdnnNetwork, config, seed, layer)
