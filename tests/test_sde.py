import numpy as np
import pytest
from dense_reference import dense_counts, stacked_step_dB
from oracles import bilinear_mean_continuous, bilinear_mean_discrete, sup_distance

from gcontrol import models as md
from gcontrol import sde
from gcontrol.controls import (
    ActionGrid,
    RelaxedControl,
    StrictControl,
    chattering,
    constant_strict,
    embed_strict,
    spike,
)
from gcontrol.jumps import MarkSpace, sample_drivers
from gcontrol.scenarios import TimeGrid, VolatilityBounds, build_scenario_family


MARKS = MarkSpace(marks=np.array([-0.4, 0.6]), intensities=np.array([0.7, 0.3]))
QUIET = MarkSpace(marks=np.array([1.0]), intensities=np.array([0.0]))
ACTIONS = ActionGrid(np.array([-1.0, 0.5, 2.0]))


def _family(lo, hi, grid, blocks=1):
    return build_scenario_family(VolatilityBounds(lo, hi), grid, "corners", blocks=blocks)


def test_zero_model_state_is_constant():
    grid = TimeGrid(T=1.0, n_steps=16)
    fam = _family(1.0, 4.0, grid)
    model = md.build_model("zero", {})
    u = constant_strict(ACTIONS, 16, 1)
    ens = sde.simulate(model, u, sample_drivers(fam, grid, MARKS, 20, 3), 1.5)
    assert np.all(ens.states == 1.5)


def test_constant_drift_exact_terminal_state():
    grid = TimeGrid(T=1.0, n_steps=16)  # dt is a binary fraction, sum is exact
    fam = _family(1.0, 1.0, grid)
    model = md.build_model("constant_drift", {"mu": 1.0, "sigma0": 0.0})
    u = constant_strict(ACTIONS, 16, 0)
    ens = sde.simulate(model, u, sample_drivers(fam, grid, QUIET, 4, 0), 2.0)
    assert np.all(ens.states[-1] == 3.0)


def test_linear_model_mean_matches_oracles():
    params = {"th0": 0.3, "th1": 0.0, "s1": 0.2, "gl": 1.0}
    grid = TimeGrid(T=1.0, n_steps=200)
    fam = _family(1.0, 1.0, grid)
    model = md.build_model("bilinear", params)
    u = constant_strict(ACTIONS, 200, 1)
    P = 20_000
    ens = sde.simulate(model, u, sample_drivers(fam, grid, QUIET, P, 14), 1.0)
    xT = ens.states[-1, 0]
    se = xT.std(ddof=1) / np.sqrt(P)
    u_path = np.zeros(200)  # th1 = 0, control irrelevant
    assert abs(xT.mean() - bilinear_mean_discrete(params, grid, 1.0, u_path)) <= 3 * se
    assert abs(xT.mean() - bilinear_mean_continuous(params, grid, 1.0, u_path)) <= 3 * se


def test_lq_mean_matches_discrete_moment_recursion():
    params = dict(b1=0.2, b2=0.5, s0=0.3, s1=0.1, c1=0.1, c2=0.3, f1=0.1, f2=0.1, h1=0.5, h2=0.5, gq=0.5)
    grid = TimeGrid(T=1.0, n_steps=64)
    fam = _family(2.0, 2.0, grid)
    model = md.build_model("linear_jump_lq", params)
    u = constant_strict(ACTIONS, 64, 1)  # action 0.5
    P = 20_000
    ens = sde.simulate(model, u, sample_drivers(fam, grid, MARKS, P, 15), 1.0)
    xT = ens.states[-1, 0]
    se = xT.std(ddof=1) / np.sqrt(P)
    u_mean = np.full(64, 0.5)
    m1, _, _ = md.lq_moments_discrete(params, grid, 1.0, u_mean, u_mean**2, np.full(64, 2.0), MARKS)
    assert abs(xT.mean() - m1[-1]) <= 3 * se


def test_relaxed_dirac_reduction_is_bitwise():
    params = dict(b1=0.2, b2=0.5, s0=0.3, s1=0.1, c1=0.1, c2=0.3, f1=0.1, f2=0.1, h1=0.5, h2=0.5, gq=0.5)
    grid = TimeGrid(T=1.0, n_steps=32)
    fam = _family(1.0, 4.0, grid, blocks=2)
    model = md.build_model("linear_jump_lq", params)
    idx = np.tile(np.array([0, 2, 1, 1]), 8)
    u = StrictControl(ACTIONS, idx)
    drivers = sample_drivers(fam, grid, MARKS, 50, 16)
    strict = sde.simulate(model, u, drivers, 1.0)
    relaxed = sde.simulate(model, embed_strict(u), drivers, 1.0)
    assert strict.states.tobytes() == relaxed.states.tobytes()


def test_jump_free_model_ignores_jump_stream():
    # with f identically zero the mark space cannot influence the state
    grid = TimeGrid(T=1.0, n_steps=32)
    fam = _family(1.0, 4.0, grid)
    model = md.build_model("bilinear", {})
    u = constant_strict(ACTIONS, 32, 2)
    busy = sde.simulate(model, u, sample_drivers(fam, grid, MARKS, 40, 17), 1.0)
    quiet = sde.simulate(model, u, sample_drivers(fam, grid, QUIET, 40, 17), 1.0)
    assert busy.states.tobytes() == quiet.states.tobytes()


def test_variance_monotone_in_volatility_scenario():
    grid = TimeGrid(T=1.0, n_steps=50)
    fam = _family(1.0, 4.0, grid)  # scenario 0: a=1, scenario 1: a=4
    model = md.build_model("constant_drift", {"mu": 0.0, "sigma0": 1.0})
    u = constant_strict(ACTIONS, 50, 0)
    P = 10_000
    ens = sde.simulate(model, u, sample_drivers(fam, grid, QUIET, P, 18), 0.0)
    var = ens.states[-1].var(axis=1, ddof=1)
    for s, target in ((0, 1.0), (1, 4.0)):
        se = var[s] * np.sqrt(2.0 / (P - 1))
        assert abs(var[s] - target) <= 3 * se
    assert var[1] > var[0]


def test_sup_distance_identity_and_separation():
    grid = TimeGrid(T=1.0, n_steps=32)
    fam = _family(1.0, 1.0, grid)
    model = md.build_model("bilinear", {"th0": -0.2, "th1": 0.6, "s1": 0.0, "gl": 1.0})
    actions = ActionGrid(np.array([0.2, 0.9]))
    ua = constant_strict(actions, 32, 0)
    ub = constant_strict(actions, 32, 1)
    drivers = sample_drivers(fam, grid, QUIET, 3, 19)
    ea = sde.simulate(model, ua, drivers, 1.0)
    eb = sde.simulate(model, ub, drivers, 1.0)
    same = sup_distance(ea, ea)
    assert np.all(same.sup == 0.0) and np.all(same.mean_square == 0.0)
    apart = sup_distance(ea, eb)
    assert np.all(apart.sup > 0.0)
    # deterministic dynamics: sup is attained at the terminal step
    expect = abs(ea.states[-1, 0, 0] - eb.states[-1, 0, 0])
    assert apart.sup[0, 0] == pytest.approx(expect)


def test_sup_distance_rejects_mismatched_seeds():
    grid = TimeGrid(T=1.0, n_steps=8)
    fam = _family(1.0, 1.0, grid)
    model = md.build_model("zero", {})
    u = constant_strict(ACTIONS, 8, 0)
    e1 = sde.simulate(model, u, sample_drivers(fam, grid, QUIET, 3, 1), 0.0)
    e2 = sde.simulate(model, u, sample_drivers(fam, grid, QUIET, 3, 2), 0.0)
    with pytest.raises(ValueError):
        sup_distance(e1, e2)


def test_chattering_approximation_tightens_with_blocks():
    grid = TimeGrid(T=1.0, n_steps=256)
    fam = _family(1.0, 1.0, grid)
    model = md.build_model("bilinear", {"th0": -0.2, "th1": 0.6, "s1": 0.1, "gl": 1.0})
    actions = ActionGrid(np.array([-1.0, 1.0]))
    mu = RelaxedControl(actions, np.full((256, 2), 0.5))
    drivers = sample_drivers(fam, grid, QUIET, 200, 20)
    base = sde.simulate(model, mu, drivers, 1.0)
    msq = []
    for n in (4, 16, 64):
        ens = sde.simulate(model, chattering(mu, n), drivers, 1.0)
        msq.append(float(sup_distance(base, ens).mean_square[0]))
    assert msq[0] > msq[1] > msq[2]


@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_state_aborts_with_step_info():
    grid = TimeGrid(T=1.0, n_steps=8)
    fam = _family(1.0, 1.0, grid)
    model = md.build_model("bilinear", {"th0": 1e160, "th1": 0.0, "s1": 0.0, "gl": 1.0})
    u = constant_strict(ACTIONS, 8, 0)
    with pytest.raises(FloatingPointError, match="step"):
        sde.simulate(model, u, sample_drivers(fam, grid, QUIET, 2, 21), 1.0)


def test_explicit_noise_and_jump_reuse():
    # the kernel accepts pre-sampled randomness
    grid = TimeGrid(T=1.0, n_steps=16)
    fam = _family(1.0, 4.0, grid)
    model = md.build_model("linear_jump_lq", {})
    u = constant_strict(ACTIONS, 16, 1)
    drivers = sample_drivers(fam, grid, MARKS, 30, seed=22)
    x1 = sde.simulate(model, u, drivers, 1.0).states
    e2 = sde.simulate(model, u, sample_drivers(fam, grid, MARKS, 30, 22), 1.0)
    assert x1.tobytes() == e2.states.tobytes()

    mu = embed_strict(u)
    x3 = sde.simulate(model, mu, drivers, 1.0).states
    assert x3.tobytes() == x1.tobytes()


LQ = dict(b1=0.2, b2=0.5, s0=0.3, s1=0.1, c1=0.1, c2=0.3, f1=0.1, f2=0.1, h1=0.5, h2=0.5, gq=0.5)


def _alone(model, controls, drivers, x0):
    """Each control's states from its own run, (n_steps + 1, n_controls, S, P)."""
    return np.stack([sde.simulate(model, c, drivers, x0).states for c in controls], axis=1)


def _assert_streams(model, controls, drivers, x0, expected):
    """:func:`sde.stream_batch` hands step k of the batch with the bits of ``expected[k]``."""
    seen = []

    def check(k, x):
        assert x.shape == expected[k].shape
        seen.append(x.tobytes() == np.ascontiguousarray(expected[k]).tobytes())

    sde.stream_batch(model, controls, drivers, x0, check)
    assert seen == [True] * len(expected)


def _reference_loop(model, control, drivers, x0):
    """Scenario-by-scenario Euler loop, one control, as the kernel was first written.

    Kept as the arithmetic reference for the batched kernel: same
    operations in the same order, so results must agree bit for bit.
    """
    grid, marks = drivers.grid, drivers.marks
    dB = np.moveaxis(stacked_step_dB(drivers), 0, -1)
    a_vals = drivers.family.scalar_values()
    S, P, K = dB.shape
    relaxed = isinstance(control, RelaxedControl)
    actions = control.grid.actions
    counts = (dense_counts(drivers, drivers.tags(control), actions.size) if relaxed
              else dense_counts(drivers))
    dt = grid.dt
    x = np.empty((S, P, K + 1))
    x[:, :, 0] = x0
    for s in range(S):
        for k in range(K):
            t = grid.times[k]
            a = float(a_vals[s, k])
            xk = x[s, :, k]
            if relaxed:
                w = control.weights
                b_bar = g_bar = 0.0
                for al in range(actions.size):
                    b_bar = b_bar + w[k, al] * model.b(t, xk, float(actions[al]))
                    g_bar = g_bar + w[k, al] * model.gamma(t, xk, float(actions[al]))
            else:
                uk = float(control.values[k])
                b_bar, g_bar = model.b(t, xk, uk), model.gamma(t, xk, uk)
            incr = b_bar * dt
            incr = incr + model.sigma(t, xk) * dB[s, :, k]
            incr = incr + g_bar * (a * dt)
            jump_sum = comp_rate = 0.0
            for i in range(marks.n_marks):
                th = float(marks.marks[i])
                if relaxed:
                    jump_i = f_bar = 0.0
                    for al in range(actions.size):
                        f_ia = model.f(t, xk, th, float(actions[al]))
                        jump_i = jump_i + f_ia * counts[k, i, al]
                        f_bar = f_bar + control.weights[k, al] * f_ia
                else:
                    f_bar = model.f(t, xk, th, uk)
                    jump_i = f_bar * counts[k, i]
                jump_sum = jump_sum + jump_i
                comp_rate = comp_rate + f_bar * marks.intensities[i]
            x[s, :, k + 1] = xk + (incr + (jump_sum - comp_rate * dt))
    return np.moveaxis(x, -1, 0)


def test_batch_matches_reference_loop():
    grid = TimeGrid(T=1.0, n_steps=32)
    fam = _family(1.0, 4.0, grid, blocks=2)
    # LQ has f2 != 0, so f depends on the action a tag selects
    model = md.build_model("linear_jump_lq", LQ)
    # busy marks put several events in one (step, path) cell, next to a silent mark
    busy = MarkSpace(marks=np.array([-0.4, 0.6, 0.9]), intensities=np.array([40.0, 0.0, 25.0]))
    mu = RelaxedControl(ACTIONS, np.tile(np.array([0.2, 0.5, 0.3]), (32, 1)))
    for marks in (MARKS, busy):
        drivers = sample_drivers(fam, grid, marks, 40, seed=28)
        for batch in ([constant_strict(ACTIONS, 32, 1), chattering(mu, 8)],
                      [mu, embed_strict(chattering(mu, 4))]):
            ref = np.stack([_reference_loop(model, c, drivers, 0.7) for c in batch], axis=1)
            _assert_streams(model, batch, drivers, 0.7, ref)
    assert dense_counts(drivers).max() >= 2


def test_strict_batch_rows_equal_single_runs():
    grid = TimeGrid(T=1.0, n_steps=32)
    fam = _family(1.0, 4.0, grid, blocks=2)
    model = md.build_model("linear_jump_lq", LQ)
    controls = [constant_strict(ACTIONS, 32, i) for i in range(3)]
    drivers = sample_drivers(fam, grid, MARKS, 40, seed=23)
    alone = _alone(model, controls, drivers, 1.0)
    assert alone.shape == (33, 3, 4, 40)
    _assert_streams(model, controls, drivers, 1.0, alone)


def test_batch_of_time_varying_controls():
    # chattering ladders and spikes change action mid-run, per control
    grid = TimeGrid(T=1.0, n_steps=32)
    fam = _family(1.0, 4.0, grid, blocks=2)
    model = md.build_model("linear_jump_lq", LQ)
    mu = RelaxedControl(ACTIONS, np.tile(np.array([0.2, 0.5, 0.3]), (32, 1)))
    base = StrictControl(ACTIONS, np.tile(np.array([0, 2, 1, 1]), 8))
    controls = [chattering(mu, 4), chattering(mu, 16), base,
                spike(base, 2, 8, 4),
                spike(base, 0, 16, 1)]
    drivers = sample_drivers(fam, grid, MARKS, 40, seed=24)
    _assert_streams(model, controls, drivers, 0.5, _alone(model, controls, drivers, 0.5))
    # relaxed rows likewise match their own runs
    relaxed = [mu, RelaxedControl(ACTIONS, np.full((32, 3), 1 / 3))]
    ralone = _alone(model, relaxed, drivers, 0.5)
    _assert_streams(model, relaxed, drivers, 0.5, ralone)
    assert not np.array_equal(ralone[:, 0], ralone[:, 1])


def test_dirac_embedded_relaxed_batch_equals_strict_batch():
    grid = TimeGrid(T=1.0, n_steps=32)
    fam = _family(1.0, 4.0, grid, blocks=2)
    model = md.build_model("linear_jump_lq", LQ)
    strict = [StrictControl(ACTIONS, np.tile(np.array([0, 2, 1, 1]), 8)),
              constant_strict(ACTIONS, 32, 2),
              StrictControl(ACTIONS, np.repeat(np.array([2, 0, 1, 0]), 8))]
    drivers = sample_drivers(fam, grid, MARKS, 50, seed=25)
    x_strict = _alone(model, strict, drivers, 1.0)
    _assert_streams(model, strict, drivers, 1.0, x_strict)
    _assert_streams(model, [embed_strict(u) for u in strict], drivers, 1.0, x_strict)


def test_batch_rejects_mixed_kinds_and_foreign_drivers():
    grid = TimeGrid(T=1.0, n_steps=8)
    fam = _family(1.0, 4.0, grid)
    model = md.build_model("linear_jump_lq", {})
    u = constant_strict(ACTIONS, 8, 0)
    drivers = sample_drivers(fam, grid, MARKS, 5, seed=26)
    with pytest.raises(ValueError, match="strict or relaxed"):
        sde.stream_batch(model, [u, embed_strict(u)], drivers, 0.0, lambda k, x: None)
    # drivers sampled on an 8-step grid cannot drive a 16-step control
    with pytest.raises(ValueError, match="controls and grid must agree on n_steps"):
        sde.stream_batch(model, [constant_strict(ACTIONS, 16, 0)], drivers, 0.0,
                         lambda k, x: None)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_diverging_batch_names_step_scenario_and_control():
    grid = TimeGrid(T=1.0, n_steps=8)
    fam = _family(1.0, 1.0, grid)
    # b = (th0 + th1 u) x: finite under u = 0, blows up under u = 1 at step 1
    model = md.build_model("bilinear", {"th0": 0.0, "th1": 1e160, "s1": 0.0, "gl": 1.0})
    actions = ActionGrid(np.array([0.0, 1.0]))
    controls = [constant_strict(actions, 8, 0), constant_strict(actions, 8, 1)]
    drivers = sample_drivers(fam, grid, QUIET, 3, seed=27)
    with pytest.raises(FloatingPointError,
                       match="after step 1 under scenario 0 of control 1 on 3 paths"):
        sde.stream_batch(model, controls, drivers, 1.0, lambda k, x: None)
