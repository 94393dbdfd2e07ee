"""Simulation scenarios on Matérn Gaussian-process predictors, plus CSV I/O.

Six generative mappings from a single functional predictor X on [0,1]
to a functional response Y, each with unit-variance white observation
noise on the response grid.  All inner and double integrals are
trapezoid sums on the predictor grid.
"""

from __future__ import annotations

import copy
import csv
import math
from dataclasses import dataclass

import numpy as np

from .gp import MaternParams, gp_sample
from .grids import Grid, resample_values

SCENARIOS = (
    "linear",
    "cam",
    "single_index",
    "multiple_index",
    "quadratic",
    "complex_quadratic",
)


@dataclass
class Scenario:
    """A named generative mapping.

    ``first_term`` only matters for complex_quadratic, whose integrand
    can be read with the predictor evaluated at the response argument
    ("as_printed": X(t)^2 s t) or at the integration variable
    ("s": X(s)^2 s t); the second (squared) term follows the same
    reading.
    """

    kind: str
    first_term: str = "as_printed"

    def __post_init__(self):
        if self.kind not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.kind!r}; choose from {SCENARIOS}")
        if self.first_term not in ("as_printed", "s"):
            raise ValueError("first_term must be 'as_printed' or 's'")


@dataclass
class FuncDataset:
    """Batch of predictor curves (n, r, m) and response curves (n, m_y)."""

    x: np.ndarray
    y: np.ndarray
    x_grid: Grid
    y_grid: Grid
    y_clean: np.ndarray | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 3 or self.y.ndim != 2:
            raise ValueError("x must be (n, r, m) and y (n, m_y)")
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError("x and y disagree on the number of samples")
        if self.x.shape[2] != self.x_grid.m or self.y.shape[1] != self.y_grid.m:
            raise ValueError("curve lengths do not match the declared grids")
        if self.y_clean is not None and np.shape(self.y_clean) != self.y.shape:
            raise ValueError("y_clean must match y")
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise ValueError("x and y must be finite")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def subset(self, idx) -> "FuncDataset":
        idx = np.asarray(idx)
        clean = None if self.y_clean is None else self.y_clean[idx]
        return FuncDataset(self.x[idx], self.y[idx], self.x_grid, self.y_grid, clean)


def noiseless_response(scenario: Scenario, x, x_grid: Grid, y_grid: Grid) -> np.ndarray:
    """Evaluate the scenario mapping without observation noise.

    ``x`` is an (n, m) stack of predictor curves; the result is (n, m_y).
    """
    x = np.asarray(x, dtype=float)
    s = x_grid.points
    t = y_grid.points
    q = x_grid.trapezoid_weights
    kind = scenario.kind

    if kind == "linear":
        inner = x @ (q * 5.0 * np.sin(2.0 * np.pi * s))
        return np.outer(inner, 3.0 * np.sin(3.0 * np.pi * t))

    if kind == "cam":
        inner = (x * x) @ (q * s)
        return np.outer(inner, t)

    if kind == "single_index":
        # g(a, b) = a^0 b^2 with b(t) = <beta, X>(t) = beta2(t) ∫ beta1 X
        inner = x @ (q * 5.0 * np.sin(2.0 * np.pi * s))
        return np.outer(inner**2, (3.0 * np.sin(3.0 * np.pi * t)) ** 2)

    if kind == "multiple_index":
        i1 = x @ (q * 5.0 * np.sin(2.0 * np.pi * s))
        i2 = x @ (q * 4.0 * np.sin(5.0 * np.pi * s))
        tb = (3.0 * np.sin(3.0 * np.pi * t)) ** 2
        td = (2.0 * np.sin(3.0 * np.pi * t)) ** 2
        return (i1**2 * i2**2)[:, None] * (tb * td)[None, :]

    if kind == "quadratic":
        lin = x @ (q * 5.0 * np.sin(2.0 * np.pi * s))
        iq = x @ (q * 5.0 * np.sin(3.0 * np.pi * s))
        js = x @ (q * 5.0 * np.sin(np.pi * s))
        first = np.outer(lin, 3.0 * np.sin(3.0 * np.pi * t))
        second = np.outer(iq * js, 5.0 * np.sin(np.pi * t))
        return first + second

    if kind == "complex_quadratic":
        # second term squares the first term's integrand, scaled by the
        # same 5x amplitude the other scenarios put on their coefficient
        # functions (unit scale would leave the interaction buried in
        # the noise)
        if scenario.first_term == "as_printed":
            x_on_t = resample_values(x, x_grid, y_grid)
            first = x_on_t**2 * t * float(np.sum(q * s))
            second = 5.0 * x_on_t**4 * t * t / 3.0
        else:
            first = np.outer((x * x) @ (q * s), t)
            second = 5.0 * np.outer((x**4) @ (q * s * s), t * t)
        return first + second

    raise ValueError(f"unknown scenario {kind!r}")


def generate(scenario: Scenario | str, n: int = 1100, m: int = 100, m_y: int = 75,
             matern: MaternParams | None = None, seed: int = 0) -> FuncDataset:
    """Draw n predictor curves from the Matérn GP and build noisy responses.

    Noise is iid standard normal at each response point.  The predictor
    and noise streams are split from one seed, so a dataset is fully
    reproducible from (scenario, n, m, m_y, matern, seed).
    """
    if isinstance(scenario, str):
        scenario = Scenario(scenario)
    if n < 1 or m < 2 or m_y < 2:
        raise ValueError("need n >= 1 and at least two grid points per axis")
    if matern is None:
        matern = MaternParams()
    x_grid = Grid(m)
    y_grid = Grid(m_y)
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    # spawn from a copy: the caller's seed is left as it was, so it gives
    # the same dataset each time it is passed
    gp_seed, noise_seed = copy.deepcopy(seed).spawn(2)
    x = gp_sample(x_grid, matern, n, gp_seed)
    clean = noiseless_response(scenario, x, x_grid, y_grid)
    noise = np.random.default_rng(noise_seed).standard_normal(clean.shape)
    return FuncDataset(x[:, None, :], clean + noise, x_grid, y_grid, clean)


@dataclass
class SplitSpec:
    n_train: int = 500
    n_val: int = 100
    n_test: int = 500
    seed: int = 0

    def __post_init__(self):
        if min(self.n_train, self.n_val, self.n_test) < 0:
            raise ValueError("split sizes must be non-negative")


def split(data: FuncDataset, spec: SplitSpec):
    """Deterministic shuffled partition into (train, val, test)."""
    total = spec.n_train + spec.n_val + spec.n_test
    if total != data.n:
        raise ValueError(f"split sizes sum to {total}, dataset has {data.n}")
    perm = np.random.default_rng(spec.seed).permutation(data.n)
    a = spec.n_train
    b = a + spec.n_val
    return (
        data.subset(perm[:a]),
        data.subset(perm[a:b]),
        data.subset(perm[b:]),
    )


def save_table(path, data: FuncDataset):
    """One row per sample: id, m predictor values, m_y response values."""
    if data.x.shape[1] != 1:
        raise ValueError("table layout holds a single predictor per row")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = (
            ["id"]
            + [f"x{j}" for j in range(data.x_grid.m)]
            + [f"y{j}" for j in range(data.y_grid.m)]
        )
        writer.writerow(header)
        for i in range(data.n):
            row = [i]
            row += [repr(float(v)) for v in data.x[i, 0]]
            row += [repr(float(v)) for v in data.y[i]]
            writer.writerow(row)


def _fill_missing(values: np.ndarray) -> np.ndarray:
    """Linear interpolation over missing entries; endpoints extend flat."""
    missing = np.isnan(values)
    if not missing.any():
        return values
    idx = np.arange(values.size)
    values[missing] = np.interp(idx[missing], idx[~missing], values[~missing])
    return values


def load_table(path, m: int, m_y: int, max_missing: float = 0.2) -> FuncDataset:
    """Read curves from CSV: id column, then m predictor and m_y response cells.

    Empty cells are treated as missing and filled by linear
    interpolation along the curve; rows missing more than
    ``max_missing`` of their values are dropped.  The first row is a
    header if one of its value cells is neither empty nor a number.
    Any other non-numeric cell, and any inf or nan, is an error.
    """
    rows_x: list[np.ndarray] = []
    rows_y: list[np.ndarray] = []
    expected = 1 + m + m_y
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader):
            if lineno == 0 and any(c.strip() and not _is_number(c) for c in row[1:]):
                continue  # header
            if not row:
                continue
            if len(row) != expected:
                raise ValueError(
                    f"line {lineno + 1}: expected {expected} columns, got {len(row)}"
                )
            cells = np.array([_cell(c, lineno) for c in row[1:]])
            n_missing = int(np.isnan(cells).sum())
            if n_missing > max_missing * cells.size:
                continue
            xc = cells[:m]
            yc = cells[m:]
            if np.isnan(xc).all() or np.isnan(yc).all():
                raise ValueError(f"line {lineno + 1}: a curve is entirely missing")
            rows_x.append(_fill_missing(xc))
            rows_y.append(_fill_missing(yc))
    if not rows_x:
        raise ValueError(f"{path}: no usable rows")
    x = np.stack(rows_x)[:, None, :]
    y = np.stack(rows_y)
    return FuncDataset(x, y, Grid(m), Grid(m_y))


def _cell(text: str, lineno: int) -> float:
    """A finite value, or nan for an empty (missing) cell."""
    if not text.strip():
        return np.nan
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"line {lineno + 1}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"line {lineno + 1}: non-finite value {text!r}")
    return value


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True
