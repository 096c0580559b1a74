import hashlib
import tracemalloc

import numpy as np
import pytest
from dense_reference import stacked_step_dB

from gcontrol import rng
from gcontrol import scenarios as sc
from gcontrol.jumps import MarkSpace, sample_drivers


def test_grid_basics():
    grid = sc.TimeGrid(T=2.0, n_steps=8)
    assert grid.dt == 0.25
    assert grid.times[0] == 0.0 and grid.times[-1] == 2.0
    with pytest.raises(ValueError):
        sc.TimeGrid(T=0.0, n_steps=4)
    with pytest.raises(ValueError):
        sc.TimeGrid(T=1.0, n_steps=0)


def test_grid_times_are_computed_once_and_read_only():
    grid = sc.TimeGrid(T=2.0, n_steps=8)
    times = grid.times
    assert grid.times is times
    assert not times.flags.writeable
    assert np.array_equal(times, np.linspace(0.0, 2.0, 9))
    # equality and hashing stay field-based
    fresh = sc.TimeGrid(T=2.0, n_steps=8)
    assert grid == fresh and hash(grid) == hash(fresh)
    assert grid != sc.TimeGrid(T=2.0, n_steps=4)


def test_bounds_validation():
    with pytest.raises(ValueError):
        sc.VolatilityBounds(4.0, 1.0)  # order violated
    with pytest.raises(ValueError):
        sc.VolatilityBounds(0.0, 0.0)  # upper bound must be definite


def test_corners_degenerate_interval():
    grid = sc.TimeGrid(T=1.0, n_steps=10)
    fam = sc.build_scenario_family(sc.VolatilityBounds(1.0, 1.0), grid, "corners")
    assert fam.n_scenarios == 1
    assert np.all(fam.scalar_values() == 1.0)


def test_corners_one_block():
    grid = sc.TimeGrid(T=1.0, n_steps=10)
    fam = sc.build_scenario_family(sc.VolatilityBounds(1.0, 4.0), grid, "corners", blocks=1)
    assert fam.n_scenarios == 2
    assert np.all(fam.scalar_values()[0] == 1.0)
    assert np.all(fam.scalar_values()[1] == 4.0)


def test_corners_default_two_blocks():
    grid = sc.TimeGrid(T=1.0, n_steps=10)
    fam = sc.build_scenario_family(sc.VolatilityBounds(1.0, 4.0), grid, "corners")
    assert fam.n_scenarios == 4
    # every path is constant on each half and hits only the corner values
    vals = fam.scalar_values()
    assert set(np.unique(vals)) == {1.0, 4.0}


def test_random_strategy_respects_bounds():
    grid = sc.TimeGrid(T=1.0, n_steps=25)
    fam = sc.build_scenario_family(
        sc.VolatilityBounds(1.0, 4.0), grid, "random", count=8, seed=7
    )
    assert fam.n_scenarios == 8
    vals = fam.scalar_values()
    assert np.all(vals >= 1.0) and np.all(vals <= 4.0)
    with pytest.raises(ValueError):
        sc.build_scenario_family(sc.VolatilityBounds(1.0, 4.0), grid, "random", count=0, seed=7)
    with pytest.raises(ValueError):
        sc.build_scenario_family(sc.VolatilityBounds(1.0, 4.0), grid, "bogus")


def test_scenario_outside_bounds_rejected():
    b = sc.VolatilityBounds(1.0, 4.0)
    with pytest.raises(ValueError):
        sc.ScenarioFamily(bounds=b, values=np.full((1, 4), 5.0))


def test_family_shape_checks():
    b = sc.VolatilityBounds(1.0, 4.0)
    with pytest.raises(ValueError, match="nonempty"):
        sc.ScenarioFamily(bounds=b, values=np.ones((0, 4)))
    with pytest.raises(ValueError, match="shape"):
        sc.ScenarioFamily(bounds=b, values=np.ones(4))
    with pytest.raises(ValueError, match="scenario 1 leaves"):
        sc.ScenarioFamily(bounds=b, values=[[1.0, 2.0], [4.0, np.nan]])
    fam = sc.ScenarioFamily(bounds=b, values=np.full((2, 4), 2.0))
    assert (fam.n_scenarios, fam.n_steps) == (2, 4)
    assert not fam.values.flags.writeable


# ---------------------------------------------------------------------------
# Brownian sampling
# ---------------------------------------------------------------------------


# no jumps: only the Brownian part of the drivers is read
SILENT = MarkSpace(marks=np.array([0.0]), intensities=np.array([0.0]))


def _increments(fam, grid, n_paths, seed):
    """The drivers' Brownian increments of every step, (n_steps, n_scenarios, n_paths)."""
    return stacked_step_dB(sample_drivers(fam, grid, SILENT, n_paths, seed))


def test_brownian_zero_scenario_is_zero():
    grid = sc.TimeGrid(T=1.0, n_steps=10)
    b = sc.VolatilityBounds(0.0, 1.0)
    fam = sc.ScenarioFamily(bounds=b, values=np.zeros((1, 10)))
    dB = _increments(fam, grid, 32, seed=5)
    assert np.all(dB == 0.0)


def test_brownian_determinism():
    grid = sc.TimeGrid(T=1.0, n_steps=10)
    fam = sc.build_scenario_family(sc.VolatilityBounds(1.0, 4.0), grid, "corners", blocks=1)
    n1 = sc.sample_brownian(fam, grid, 100, seed=42)
    n2 = sc.sample_brownian(fam, grid, 100, seed=42)
    assert np.array_equal(n1, n2)
    n3 = sc.sample_brownian(fam, grid, 100, seed=43)
    assert not np.array_equal(n1, n3)


def test_brownian_variance_matches_scenario():
    # sample variance of B_T should sit within 3 chi-square standard errors
    grid = sc.TimeGrid(T=1.0, n_steps=20)
    fam = sc.build_scenario_family(sc.VolatilityBounds(2.0, 2.0), grid, "corners")
    P = 10_000
    dB = _increments(fam, grid, P, seed=11)
    bT = dB[:, 0].sum(axis=0)
    var = bT.var(ddof=1)
    se = var * np.sqrt(2.0 / (P - 1))
    assert abs(var - 2.0) <= 3 * se


def test_brownian_covariance_per_scenario():
    grid = sc.TimeGrid(T=1.0, n_steps=20)
    fam = sc.build_scenario_family(sc.VolatilityBounds(1.0, 4.0), grid, "corners", blocks=1)
    P = 10_000
    dB = _increments(fam, grid, P, seed=12)
    for s, target in ((0, 1.0), (1, 4.0)):
        bT = dB[:, s].sum(axis=0)
        var = bT.var(ddof=1)
        se = var * np.sqrt(2.0 / (P - 1))
        assert abs(var - target) <= 3 * se


def test_brownian_common_random_numbers():
    # scenario increments are deterministic transforms of shared draws
    grid = sc.TimeGrid(T=1.0, n_steps=5)
    fam = sc.build_scenario_family(sc.VolatilityBounds(1.0, 4.0), grid, "corners", blocks=1)
    dB = _increments(fam, grid, 50, seed=3)
    ratio = dB[:, 1] / dB[:, 0]
    assert np.allclose(ratio, 2.0)


def test_brownian_reproduces_frozen_increments():
    # sha256 of the increments in (scenario, path, step) order; each increment
    # is a square-root-times-draw product with no BLAS reduction, so these
    # bits hold on any platform and across refactors of the sampler
    grid = sc.TimeGrid(T=1.0, n_steps=12)
    corners = sc.build_scenario_family(sc.VolatilityBounds(1.0, 4.0), grid, "corners")
    rand = sc.build_scenario_family(sc.VolatilityBounds(0.0, 2.5), grid, "random",
                                    count=3, seed=9)
    frozen = (
        (corners, 4, "096b0f2839ab0030619494afccead8044e69b39244e1a867774c2d8de3559129"),
        (rand, 3, "0978d9af7b8138e2bc6f4f2e82eeda7dba856a9ceb08365be9d6213ff465dcdc"),
    )
    for fam, n_scen, digest in frozen:
        assert fam.n_scenarios == n_scen
        xi = sc.sample_brownian(fam, grid, 40, seed=17)
        assert xi.shape == (12, 40) and xi.flags.c_contiguous
        assert not xi.flags.writeable
        drivers = sample_drivers(fam, grid, SILENT, 40, seed=17)
        steps = [drivers.step_dB(k) for k in range(grid.n_steps)]
        assert all(dB.shape == (n_scen, 40) and dB.flags.c_contiguous for dB in steps)
        spk = np.ascontiguousarray(np.stack(steps, axis=-1))
        assert hashlib.sha256(spk.tobytes()).hexdigest() == digest


def test_step_increments_equal_the_whole_array_product_bitwise():
    # the (K, S, P) product the sampler used to return, rounded in the same
    # order, against every step the drivers form from the path-major draws
    grid = sc.TimeGrid(T=0.7, n_steps=9)
    for fam in (sc.build_scenario_family(sc.VolatilityBounds(1.0, 4.0), grid, "corners"),
                sc.build_scenario_family(sc.VolatilityBounds(0.0, 2.5), grid, "random",
                                         count=3, seed=4)):
        xi = rng.substream(21, rng.BROWNIAN).standard_normal((30, grid.n_steps))
        whole = np.multiply(np.sqrt(fam.values).T[:, :, None], xi.T[:, None, :])
        whole = whole * np.sqrt(grid.dt)
        drivers = sample_drivers(fam, grid, SILENT, 30, seed=21)
        assert np.array_equal(drivers.xi, xi.T)
        assert stacked_step_dB(drivers).tobytes() == whole.tobytes()


def test_drivers_hold_no_scenario_array_of_increments():
    # the sampling peak stays below one (K, S, P) float array: the drivers
    # keep the (K, P) draws, not S scaled copies of them
    grid = sc.TimeGrid(T=1.0, n_steps=128)
    fam = sc.build_scenario_family(sc.VolatilityBounds(1.0, 4.0), grid, "corners")
    marks = MarkSpace(marks=np.array([-0.4, 0.6]), intensities=np.array([0.7, 0.3]))
    P = 4000
    increments_bytes = grid.n_steps * fam.n_scenarios * P * 8
    tracemalloc.start()
    try:
        drivers = sample_drivers(fam, grid, marks, P, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fam.n_scenarios == 4 and drivers.n_paths == P
    assert peak < increments_bytes, peak / increments_bytes


# ---------------------------------------------------------------------------
# upper expectation, generator
# ---------------------------------------------------------------------------


def test_upper_expectation_examples():
    one = sc.upper_expectation([np.array([1.0, 2.0, 3.0])], "x")
    assert one.value == 2.0 and one.scenario_id == 0

    same = np.array([0.5, 1.5])
    tie = sc.upper_expectation([same, same.copy()], "x")
    assert tie.scenario_id == 0 and tie.value == 1.0

    three = sc.upper_expectation(
        [np.array([0.5, 1.5]), np.array([1.5, 2.5]), np.array([1.0, 2.0])], "x"
    )
    assert three.value == 2.0 and three.scenario_id == 1

    with pytest.raises(ValueError):
        sc.upper_expectation([], "x")
    with pytest.raises(ValueError):
        sc.upper_expectation([np.array([1.0])], "x")


@pytest.mark.filterwarnings("ignore:overflow")
def test_upper_expectation_refuses_a_mean_that_overflows_from_finite_samples():
    with pytest.raises(FloatingPointError, match="^non-finite payoff under scenario 0$"):
        sc.upper_expectation(np.full((2, 2), 1e308), "payoff")
    # the stderr alone overflows in scenario 1; scenario 0 is finite
    with pytest.raises(FloatingPointError, match="^non-finite payoff under scenario 1$"):
        sc.upper_expectation([[1.0, 2.0], [-1e200, 1e200]], "payoff")


def test_upper_expectation_ties_go_to_the_lowest_scenario():
    rows = np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 1.0], [1.5, 1.5]])
    um = sc.upper_expectation(rows, "x")
    assert (um.value, um.scenario_id) == (1.5, 1)
    assert um.stderr == um.stderrs[1] and um.stderrs[3] == 0.0


def test_upper_expectation_rows_give_the_bits_of_the_array_and_of_each_row_alone():
    rng = np.random.default_rng(7)
    arr = rng.normal(size=(5, 1001)) * np.exp(rng.normal(size=(5, 1)) * 3)
    whole = sc.upper_expectation(arr, "x")
    for samples in (list(arr), np.asfortranarray(arr), arr.T.copy().T):
        um = sc.upper_expectation(samples, "x")
        assert um.means.tobytes() == whole.means.tobytes()
        assert um.stderrs.tobytes() == whole.stderrs.tobytes()
        assert um[:3] == whole[:3]
    for s, row in enumerate(arr):
        assert whole.means[s] == row.mean()
        assert whole.stderrs[s] == row.std(ddof=1) / np.sqrt(row.size)


def test_upper_expectation_monotone_in_family():
    rng = np.random.default_rng(0)
    samples = [rng.normal(size=50) for _ in range(3)]
    base = sc.upper_expectation(samples, "x").value
    extended = sc.upper_expectation(samples + [rng.normal(size=50)], "x").value
    assert extended >= base


def test_generator_examples():
    assert sc.generator_G(2.0, sc.VolatilityBounds(1.0, 1.0)) == pytest.approx(1.0)
    b = sc.VolatilityBounds(1.0, 4.0)
    assert sc.generator_G(2.0, b) == pytest.approx(4.0)
    assert sc.generator_G(-2.0, b) == pytest.approx(-1.0)


def test_generator_ellipticity():
    # G(A) - G(Abar) >= beta (A - Abar) over random ordered pairs A >= Abar
    rng = np.random.default_rng(1)
    bounds = sc.VolatilityBounds(1.0, 2.0)
    beta = bounds.sigma_low / 2.0
    abar = rng.normal(size=200)
    a = abar + rng.normal(size=200) ** 2
    gap = sc.generator_G(a, bounds) - sc.generator_G(abar, bounds)
    assert np.all(gap >= beta * (a - abar) - 1e-10)
