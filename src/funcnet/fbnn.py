"""Functional basis neural network (FBNN).

Same architecture as the direct network, but every parameter function is
expanded in clamped B-splines and learning happens on the expansion
coefficients.  Per layer, with bases v* (intercept, size B), v (output
argument s, size C) and u (integration variable t, size D):

    H_k(s) = act( b_k . v*(s) + sum_j  v(s)^T W_{j,k} A_j ),
    A_j[d] = integral of u_d(t) H_j(t) dt  (trapezoid on the incoming grid).

Hidden curves are still realized on grids because the activation acts
pointwise.  Roughness penalties are transferred to the bases: they
become quadratic forms in the coefficients with Gram-matrix kernels, so
penalty values and gradients are cheap and independent of grid size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .activations import Activation
from .bsplines import BSplineBasis, curvature_penalty_matrix, laplacian_penalty_matrix
from .fdnn import FdnnLayer, FdnnNetwork
from .grids import Grid
from .network import GridLayer, Network, build, check_architecture


class FbnnLayer(GridLayer):
    """Coefficient-valued continuous layer.

    b_coef: (K, B) intercept coefficients; w_coef: (K, J, C, D) weight
    coefficients with C on the output axis and D on the incoming axis.
    """

    param_names = ("b_coef", "w_coef")

    def __init__(
        self,
        b_coef,
        w_coef,
        intercept_basis: BSplineBasis,
        row_basis: BSplineBasis,
        col_basis: BSplineBasis,
        in_grid: Grid,
        out_grid: Grid,
        activation: Activation,
    ):
        super().__init__(b_coef, w_coef, in_grid, out_grid, activation,
                         intercept_basis.num_basis, (row_basis.num_basis, col_basis.num_basis))
        self.intercept_basis = intercept_basis
        self.row_basis = row_basis
        self.col_basis = col_basis
        # design matrices are fixed for the life of the layer
        self.design_intercept = intercept_basis.design(out_grid.points)
        self.design_row = row_basis.design(out_grid.points)
        self.design_col = col_basis.design(in_grid.points)

    @cached_property
    def curvature_matrix(self) -> np.ndarray:
        return curvature_penalty_matrix(self.intercept_basis)

    @cached_property
    def laplacian_matrix(self) -> np.ndarray:
        return laplacian_penalty_matrix(self.row_basis, self.col_basis)

    def affine(self, h, a, buffer, reuse_input):
        """a = b_coef v*(s) + v(s)^T W A, through the low-rank functionals
        A = integral u(t) h(t) dt; returns A for the adjoint."""
        hq = self._quadrature(h, buffer, reuse_input)
        a_vec = np.tensordot(hq, self.design_col, axes=([2], [0]))  # (n, J, D)
        mixed = np.tensordot(a_vec, self.w_coef, axes=([1, 2], [1, 3]))  # (n, K, C)
        n, k, c = mixed.shape
        np.dot(mixed.reshape(n * k, c), self.design_row.T, out=a.reshape(n * k, -1))
        a += self.b_coef @ self.design_intercept.T
        return a_vec

    def backward(self, _h_in, a_vec, delta_a, _buffer, need_dh):
        """Local pieces: act'(a) v*(s) for intercept coefficients and
        act'(a(s)) v(s) A_j[d] for weight coefficients; the adjoint
        pushes sensitivities back through both the row-basis evaluation
        and the incoming-axis functionals."""
        gb = np.tensordot(delta_a, self.design_intercept, axes=([2], [0])).sum(axis=0)
        u = np.tensordot(delta_a, self.design_row, axes=([2], [0]))  # (n, K, C)
        gw = np.tensordot(u, a_vec, axes=([0], [0])).transpose(0, 2, 1, 3)
        if not need_dh:
            return gb, gw, None
        v = np.tensordot(u, self.w_coef, axes=([1, 2], [0, 2]))  # (n, J, D)
        dh = np.tensordot(v, self.design_col, axes=([2], [1]))
        dh *= self.in_grid.trapezoid_weights
        return gb, gw, dh

    def roughness(self, which, lam, _buffer, grad):
        """Roughness as Gram-matrix quadratic forms in the coefficients."""
        if which == 0:
            bg = self.b_coef @ self.curvature_matrix
            value = lam * float(np.sum(bg * self.b_coef))
        else:
            k, j, c, d = self.w_coef.shape
            flat = self.w_coef.reshape(k * j, c * d)
            bg = flat @ self.laplacian_matrix
            value = lam * float(np.sum(bg * flat))
        bg *= 2.0 * lam
        grad += bg.reshape(grad.shape)
        return value

    def to_dict(self) -> dict:
        return {
            "activation": self.activation.name,
            "out_m": self.out_grid.m,
            "intercept_basis": [self.intercept_basis.num_basis, self.intercept_basis.order],
            "row_basis": [self.row_basis.num_basis, self.row_basis.order],
            "col_basis": [self.col_basis.num_basis, self.col_basis.order],
            "b_coef": self.b_coef.tolist(),
            "w_coef": self.w_coef.tolist(),
        }

    @classmethod
    def from_dict(cls, spec: dict, in_grid: Grid) -> "FbnnLayer":
        return cls(
            spec["b_coef"],
            spec["w_coef"],
            BSplineBasis(*spec["intercept_basis"]),
            BSplineBasis(*spec["row_basis"]),
            BSplineBasis(*spec["col_basis"]),
            in_grid,
            Grid(spec["out_m"]),
            Activation(spec["activation"]),
        )


class FbnnNetwork(Network):
    kind = "fbnn"
    layer_type = FbnnLayer


@dataclass
class FbnnConfig:
    input_points: int = 100
    output_points: int = 75
    input_count: int = 1
    hidden_neurons: tuple[int, ...] = (4,)
    hidden_points: tuple[int, ...] = (50,)
    num_intercept_basis: int = 15
    num_row_basis: int = 15
    num_col_basis: int = 15
    order: int = 4
    activation: str = "tanh"

    def __post_init__(self):
        check_architecture(self)
        for count in (self.num_intercept_basis, self.num_row_basis, self.num_col_basis):
            if count < self.order:
                raise ValueError(
                    f"basis sizes must be at least the spline order ({self.order})"
                )


def init(config: FbnnConfig, seed) -> FbnnNetwork:
    """Random network: weight coefficients iid N(0, 2/(J*D)), intercepts zero."""
    b_basis = BSplineBasis(config.num_intercept_basis, config.order)
    s_basis = BSplineBasis(config.num_row_basis, config.order)
    t_basis = BSplineBasis(config.num_col_basis, config.order)

    def layer(rng, in_grid, in_count, out_grid, out_count, act):
        scale = np.sqrt(2.0 / (in_count * t_basis.num_basis))
        w_coef = scale * rng.standard_normal(
            (out_count, in_count, s_basis.num_basis, t_basis.num_basis)
        )
        b_coef = np.zeros((out_count, b_basis.num_basis))
        return FbnnLayer(b_coef, w_coef, b_basis, s_basis, t_basis, in_grid, out_grid, act)

    return build(FbnnNetwork, config, seed, layer)


def expand_to_direct(net: FbnnNetwork) -> FdnnNetwork:
    """Materialize the basis expansions as grid-valued parameter functions.

    The result evaluates identically (up to float reassociation) because
    both networks use the same trapezoid rule on the same grids.
    """
    layers = []
    for layer in net.layers:
        b = layer.b_coef @ layer.design_intercept.T  # (K, out_m)
        w = np.einsum(
            "sc,kjcd,td->kjst",
            layer.design_row,
            layer.w_coef,
            layer.design_col,
            optimize=True,
        )
        layers.append(FdnnLayer(b, w, layer.in_grid, layer.out_grid, layer.activation))
    return FdnnNetwork(layers, net.input_grid, net.input_count)
