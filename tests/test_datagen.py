"""Simulation scenarios, noise floor, splitting, and the CSV table format."""

import numpy as np
import numpy.testing as npt
import pytest

from funcnet.datagen import (
    FuncDataset,
    SCENARIOS,
    Scenario,
    SplitSpec,
    generate,
    load_table,
    noiseless_response,
    save_table,
    split,
)
from funcnet.gp import MaternParams
from funcnet.grids import Grid


FINE = Grid(4001)


def refine(values, grid):
    """Curves re-sampled onto the fine quadrature grid (linear interp)."""
    return np.stack([np.interp(FINE.points, grid.points, v) for v in values])


def integral(values):
    return values @ FINE.trapezoid_weights


# ---------------------------------------------------------------- scenarios


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario("cubic")
    with pytest.raises(ValueError):
        Scenario("complex_quadratic", first_term="t")
    assert Scenario("linear").first_term == "as_printed"
    assert set(SCENARIOS) == {
        "linear",
        "cam",
        "single_index",
        "multiple_index",
        "quadratic",
        "complex_quadratic",
    }


def known_curves(m):
    """Two deterministic predictor curves with analytically easy integrals."""
    g = Grid(m)
    return np.stack([np.ones(m), g.points.copy()]), g


def test_linear_scenario_oracle():
    # with X(s) = s: integral of 5 sin(2 pi s) s ds = -5 / (2 pi)
    x, g = known_curves(400)
    y_grid = Grid(75)
    out = noiseless_response(Scenario("linear"), x, g, y_grid)
    inner_const = 0.0  # integral of sin over whole periods
    inner_ramp = -5.0 / (2.0 * np.pi)
    t = y_grid.points
    npt.assert_allclose(out[0], inner_const * 3 * np.sin(3 * np.pi * t), atol=1e-4)
    npt.assert_allclose(out[1], inner_ramp * 3 * np.sin(3 * np.pi * t), atol=1e-4)


def test_cam_scenario_oracle():
    # f(X(s), s, t) = X(s)^2 s t; for X = 1 the integral is t/2,
    # for X(s) = s it is t/4
    x, g = known_curves(300)
    y_grid = Grid(40)
    out = noiseless_response(Scenario("cam"), x, g, y_grid)
    npt.assert_allclose(out[0], y_grid.points / 2.0, atol=1e-5)
    npt.assert_allclose(out[1], y_grid.points / 4.0, atol=1e-5)


def test_single_index_scenario_oracle():
    x, g = known_curves(400)
    y_grid = Grid(30)
    out = noiseless_response(Scenario("single_index"), x, g, y_grid)
    a = -5.0 / (2.0 * np.pi)
    t = y_grid.points
    npt.assert_allclose(out[1], a**2 * (3 * np.sin(3 * np.pi * t)) ** 2, atol=5e-4)
    npt.assert_allclose(out[0], 0.0, atol=1e-6)


def test_multiple_index_scenario_oracle():
    x, g = known_curves(600)
    y_grid = Grid(30)
    out = noiseless_response(Scenario("multiple_index"), x, g, y_grid)
    # ramp curve: i1 = -5/(2 pi), i2 = integral of 4 sin(5 pi s) s ds
    s = FINE.points
    i1 = integral(5 * np.sin(2 * np.pi * s) * s)
    i2 = integral(4 * np.sin(5 * np.pi * s) * s)
    t = y_grid.points
    expected = (
        i1**2 * i2**2 * (3 * np.sin(3 * np.pi * t)) ** 2 * (2 * np.sin(3 * np.pi * t)) ** 2
    )
    npt.assert_allclose(out[1], expected, rtol=5e-4, atol=1e-6)


def test_quadratic_scenario_oracle():
    # refined-grid Riemann evaluation of both terms for the ramp curve
    x, g = known_curves(500)
    y_grid = Grid(25)
    out = noiseless_response(Scenario("quadratic"), x, g, y_grid)
    s = FINE.points
    lin = integral(5 * np.sin(2 * np.pi * s) * s)
    iq = integral(5 * np.sin(3 * np.pi * s) * s)
    js = integral(5 * np.sin(np.pi * s) * s)
    t = y_grid.points
    expected = lin * 3 * np.sin(3 * np.pi * t) + iq * js * 5 * np.sin(np.pi * t)
    npt.assert_allclose(out[1], expected, rtol=5e-4, atol=1e-6)


def test_complex_quadratic_as_printed_oracle():
    # X evaluated at the response argument: with X = 1 identically,
    # first term = t * int s ds = t/2, second = 5 t^2 / 3
    x, g = known_curves(200)
    y_grid = Grid(50)
    out = noiseless_response(Scenario("complex_quadratic"), x, g, y_grid)
    t = y_grid.points
    npt.assert_allclose(out[0], t / 2.0 + 5.0 * t * t / 3.0, atol=1e-4)
    # ramp curve resampled to the t-grid: X(t) = t
    expected = t**2 * t * 0.5 + 5.0 * t**4 * t * t / 3.0
    npt.assert_allclose(out[1], expected, atol=1e-4)


def test_complex_quadratic_s_reading_oracle():
    x, g = known_curves(500)
    y_grid = Grid(50)
    out = noiseless_response(Scenario("complex_quadratic", "s"), x, g, y_grid)
    t = y_grid.points
    # X = 1: int s ds = 1/2 and int s^2 ds = 1/3
    npt.assert_allclose(out[0], t / 2.0 + 5.0 * t * t / 3.0, atol=1e-5)
    # X(s) = s: int s^3 ds = 1/4 and int s^6 ds = 1/7
    npt.assert_allclose(out[1], t / 4.0 + 5.0 * t * t / 7.0, atol=5e-5)


def test_first_term_readings_disagree_on_generic_curves():
    rng = np.random.default_rng(0)
    g = Grid(80)
    x = rng.normal(size=(3, 80))
    a = noiseless_response(Scenario("complex_quadratic"), x, g, Grid(40))
    b = noiseless_response(Scenario("complex_quadratic", "s"), x, g, Grid(40))
    assert np.abs(a - b).max() > 0.1


# ----------------------------------------------------------------- generate


def test_generate_shapes_and_determinism():
    data = generate("linear", n=50, m=40, m_y=30, seed=7)
    assert data.x.shape == (50, 1, 40)
    assert data.y.shape == (50, 30)
    assert data.y_clean.shape == (50, 30)
    again = generate(Scenario("linear"), n=50, m=40, m_y=30, seed=7)
    npt.assert_array_equal(data.x, again.x)
    npt.assert_array_equal(data.y, again.y)
    other = generate("linear", n=50, m=40, m_y=30, seed=8)
    assert np.abs(data.y - other.y).max() > 0.1


def test_generate_leaves_a_seed_sequence_as_it_was():
    seed = np.random.SeedSequence(7).spawn(3)[1]
    first = generate("linear", n=20, m=10, m_y=8, seed=seed)
    assert seed.n_children_spawned == 0
    again = generate("linear", n=20, m=10, m_y=8, seed=seed)
    npt.assert_array_equal(first.x, again.x)
    npt.assert_array_equal(first.y, again.y)


def test_generate_noise_is_unit_variance():
    data = generate("cam", n=400, m=30, m_y=60, seed=3)
    noise = data.y - data.y_clean
    npt.assert_allclose(noise.mean(), 0.0, atol=0.02)
    npt.assert_allclose(noise.std(), 1.0, atol=0.02)
    # noise must be independent of the clean signal
    corr = np.corrcoef(noise.ravel(), data.y_clean.ravel())[0, 1]
    assert abs(corr) < 0.05


def test_generate_matches_noiseless_response():
    data = generate("quadratic", n=20, m=50, m_y=25, seed=9)
    direct = noiseless_response(Scenario("quadratic"), data.x[:, 0, :],
                                data.x_grid, data.y_grid)
    npt.assert_allclose(data.y_clean, direct, rtol=1e-12)


def test_generate_custom_matern():
    rough = generate("linear", n=60, m=50, m_y=20,
                     matern=MaternParams(rho=0.1), seed=5)
    smooth = generate("linear", n=60, m=50, m_y=20,
                      matern=MaternParams(rho=2.0), seed=5)
    # rougher kernels produce larger increments
    inc_rough = np.abs(np.diff(rough.x[:, 0, :], axis=1)).mean()
    inc_smooth = np.abs(np.diff(smooth.x[:, 0, :], axis=1)).mean()
    assert inc_rough > 3 * inc_smooth


def test_generate_validates():
    with pytest.raises(ValueError):
        generate("linear", n=0)
    with pytest.raises(ValueError):
        generate("nonsense", n=10)


# -------------------------------------------------------------------- split


def test_split_is_a_partition():
    data = generate("linear", n=44, m=20, m_y=10, seed=1)
    tr, va, te = split(data, SplitSpec(30, 6, 8, seed=2))
    assert (tr.n, va.n, te.n) == (30, 6, 8)
    stacked = np.concatenate([tr.y, va.y, te.y])
    assert stacked.shape == data.y.shape
    # every original row appears exactly once
    orig = {tuple(row) for row in data.y.round(12)}
    got = {tuple(row) for row in stacked.round(12)}
    assert orig == got


def test_split_deterministic_and_seed_dependent():
    data = generate("linear", n=30, m=20, m_y=10, seed=1)
    a = split(data, SplitSpec(20, 5, 5, seed=3))
    b = split(data, SplitSpec(20, 5, 5, seed=3))
    c = split(data, SplitSpec(20, 5, 5, seed=4))
    npt.assert_array_equal(a[0].y, b[0].y)
    assert np.abs(a[0].y - c[0].y).max() > 1e-8


def test_split_size_mismatch():
    data = generate("linear", n=30, m=20, m_y=10, seed=1)
    with pytest.raises(ValueError):
        split(data, SplitSpec(20, 5, 6))


# ---------------------------------------------------------------- CSV table


def test_save_load_round_trip(tmp_path):
    data = generate("cam", n=12, m=15, m_y=9, seed=6)
    path = tmp_path / "data.csv"
    save_table(path, data)

    header = path.read_text().splitlines()[0].split(",")
    assert header[0] == "id"
    assert header[1] == "x0" and header[15] == "x14"
    assert header[16] == "y0" and header[-1] == "y8"

    back = load_table(path, m=15, m_y=9)
    npt.assert_array_equal(back.x, data.x)  # repr round-trips exactly
    npt.assert_array_equal(back.y, data.y)


def test_load_table_fills_missing_values(tmp_path):
    data = generate("cam", n=4, m=10, m_y=6, seed=2)
    path = tmp_path / "data.csv"
    save_table(path, data)
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[2] = ""  # x1 of the first sample
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")

    back = load_table(path, m=10, m_y=6)
    assert back.n == 4
    x = back.x[0, 0]
    npt.assert_allclose(x[1], 0.5 * (x[0] + x[2]))


def test_load_table_drops_rows_with_too_many_gaps(tmp_path):
    data = generate("cam", n=5, m=10, m_y=6, seed=4)
    path = tmp_path / "data.csv"
    save_table(path, data)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    for j in range(1, 6):  # 5 of 16 values missing (> 20%)
        cells[j] = ""
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")

    back = load_table(path, m=10, m_y=6)
    assert back.n == 4


def test_load_table_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,x0,x1,y0,y1\n0,1.0,2.0,3.0\n")
    with pytest.raises(ValueError):
        load_table(path, m=2, m_y=2)

    # a curve that is entirely blank cannot be interpolated
    path2 = tmp_path / "blank.csv"
    path2.write_text("id,x0,x1,y0,y1\n0,,,1.0,2.0\n")
    with pytest.raises(ValueError):
        load_table(path2, m=2, m_y=2, max_missing=0.9)

    path3 = tmp_path / "empty.csv"
    path3.write_text("id,x0,x1,y0,y1\n")
    with pytest.raises(ValueError):
        load_table(path3, m=2, m_y=2)


def test_headerless_table_is_accepted(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("0,1.0,2.0,3.0,4.0\n1,5.0,6.0,7.0,8.0\n")
    back = load_table(path, m=2, m_y=2)
    assert back.n == 2
    npt.assert_allclose(back.x[1, 0], [5.0, 6.0])


def test_headerless_table_with_blank_first_cell_keeps_every_row(tmp_path):
    path = tmp_path / "plain.csv"
    rows = [f"{i},{'' if i == 0 else i}," + ",".join(["1.0"] * 9) for i in range(5)]
    path.write_text("\n".join(rows) + "\n")
    back = load_table(path, m=5, m_y=5)
    assert back.n == 5
    npt.assert_allclose(back.x[0, 0], 1.0)  # the blank x0 is filled, not a header


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "NaN"])
def test_load_table_rejects_non_finite_cells(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"id,x0,x1,y0,y1\n0,1.0,2.0,3.0,4.0\n1,5.0,{cell},7.0,8.0\n")
    with pytest.raises(ValueError, match="line 3"):
        load_table(path, m=2, m_y=2)


def test_load_table_names_the_line_of_a_non_numeric_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,x0,x1,y0,y1\n0,1.0,2.0,3.0,4.0\n1,5.0,6.0,seven,8.0\n")
    with pytest.raises(ValueError, match="line 3"):
        load_table(path, m=2, m_y=2)


# ------------------------------------------------------------------ dataset


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_dataset_rejects_non_finite_curves(value):
    g10, g5 = Grid(10), Grid(5)
    x, y = np.zeros((4, 1, 10)), np.zeros((4, 5))
    x[2, 0, 3] = value
    with pytest.raises(ValueError, match="finite"):
        FuncDataset(x, y, g10, g5)
    y[1, 4] = value
    with pytest.raises(ValueError, match="finite"):
        FuncDataset(np.zeros((4, 1, 10)), y, g10, g5)


def test_dataset_validation_and_subset():
    g10, g5 = Grid(10), Grid(5)
    x = np.zeros((4, 1, 10))
    y = np.zeros((4, 5))
    data = FuncDataset(x, y, g10, g5)
    sub = data.subset([2, 0])
    assert sub.n == 2
    with pytest.raises(ValueError):
        FuncDataset(np.zeros((4, 10)), y, g10, g5)
    with pytest.raises(ValueError):
        FuncDataset(x, np.zeros((3, 5)), g10, g5)
