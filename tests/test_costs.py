import numpy as np
import pytest

from gcontrol import costs as co
from gcontrol import models as md
from gcontrol.adjoint import mp_check_near
from gcontrol.controls import (
    ActionGrid,
    RelaxedControl,
    StrictControl,
    constant_strict,
    embed_strict,
    uniform_relaxed,
)
from gcontrol.experiments import run_document
from gcontrol.jumps import MarkSpace, sample_drivers
from gcontrol.scenarios import TimeGrid, VolatilityBounds, build_scenario_family
from gcontrol.variational import spike_report


MARKS = MarkSpace(marks=np.array([-0.4, 0.6]), intensities=np.array([0.7, 0.3]))
ACTIONS = ActionGrid(np.array([0.0, 0.5, 1.0]))


def _fam(lo, hi, grid, blocks=1):
    return build_scenario_family(VolatilityBounds(lo, hi), grid, "corners", blocks=blocks)


def _artifact(tmp_path, name, **doc):
    """The text of artifact ``name`` of a run of ``doc`` on a one-block corner family."""
    run_document({"scenarios": {"strategy": "corners", "blocks": 1}, **doc}, output_dir=tmp_path)
    return (tmp_path / name).read_text()


# a config document on MARKS, ACTIONS and corners in [1, 4]
_DOC = {
    "bounds": {"sigma_low": 1.0, "sigma_high": 4.0},
    "marks": {"values": [-0.4, 0.6], "intensities": [0.7, 0.3]},
    "actions": [0.0, 0.5, 1.0],
}


def test_terminal_only_cost_is_exact():
    grid = TimeGrid(T=2.0, n_steps=8)
    fam = _fam(1.0, 4.0, grid)
    rep = co.evaluate_cost(md.build_model("zero", {}), constant_strict(ACTIONS, 8, 1),
                           sample_drivers(fam, grid, MARKS, 16, 1), 5.0)
    assert np.all(rep.scenario_means == 5.0)
    assert np.all(rep.scenario_stderrs == 0.0)
    assert rep.upper_value == 5.0
    assert rep.argmax_scenario == 0
    # one path gives no standard error
    with pytest.raises(ValueError, match="^scenario 0 needs at least 2 samples$"):
        co.evaluate_cost(md.build_model("zero", {}), constant_strict(ACTIONS, 8, 1),
                         sample_drivers(fam, grid, MARKS, 1, 1), 5.0)


def test_running_only_cost_is_exact_quadrature():
    # h = h2 u^2 with u = 1 integrates to T on a dyadic grid, bit for bit
    params = dict(b1=0.0, b2=0.0, s0=0.0, s1=0.0, c1=0.0, c2=0.0,
                  f1=0.0, f2=0.0, h1=0.0, h2=1.0, gq=0.0)
    model = md.build_model("linear_jump_lq", params)
    grid = TimeGrid(T=2.0, n_steps=16)
    fam = _fam(1.0, 1.0, grid)
    rep = co.evaluate_cost(model, constant_strict(ACTIONS, 16, 2),
                           sample_drivers(fam, grid, MARKS, 8, 2), 0.0)
    assert rep.upper_value == 2.0


def test_lq_cost_matches_moment_oracle():
    params = dict(b1=0.2, b2=0.5, s0=0.3, s1=0.1, c1=0.1, c2=0.3,
                  f1=0.1, f2=0.0, h1=0.5, h2=0.5, gq=0.5)
    model = md.build_model("linear_jump_lq", params)
    grid = TimeGrid(T=1.0, n_steps=100)
    fam = _fam(1.0, 1.0, grid)
    rep = co.evaluate_cost(model, constant_strict(ACTIONS, 100, 1),
                           sample_drivers(fam, grid, MARKS, 4000, 2026), 1.0)
    u_mean = np.full(100, 0.5)
    oracle = md.lq_cost_discrete(params, grid, 1.0, u_mean, u_mean**2, np.ones(100), MARKS)
    assert abs(rep.upper_value - oracle) <= 3 * rep.scenario_stderrs[rep.argmax_scenario]


def test_embedded_control_cost_is_bitwise_equal():
    model = md.build_model("linear_jump_lq", {})
    grid = TimeGrid(T=1.0, n_steps=32)
    fam = _fam(1.0, 4.0, grid)
    u = StrictControl(ACTIONS, np.tile(np.array([0, 2, 1, 1]), 8))
    drivers = sample_drivers(fam, grid, MARKS, 64, 3)
    r1 = co.evaluate_cost(model, u, drivers, 1.0)
    r2 = co.evaluate_cost(model, embed_strict(u), drivers, 1.0)
    assert r1.per_path.tobytes() == r2.per_path.tobytes()
    assert r1.upper_value == r2.upper_value


# upper value, then scenario means and stderrs, as float.hex, recorded before
# every run became a stream of the one kernel; a lone control's cost is a
# one-control batch of :func:`evaluate_cost`
_FROZEN_COSTS = {
    "constant": ("0x1.01cf8830d65afp+3",
                 ("0x1.865a16f7de7dbp+1", "0x1.32ddb98a00393p+2", "0x1.58f5ae11fe71cp+2",
                  "0x1.01cf8830d65afp+3"),
                 ("0x1.78d5e0b701374p-3", "0x1.6a7375a0e10c5p-2", "0x1.f7cb0f1fdc483p-2",
                  "0x1.8e93c7cd4caaap-1")),
    "uniform": ("0x1.05ab8f609a298p+3",
                ("0x1.92fb14ed5b1a8p+1", "0x1.39850b32532a0p+2", "0x1.60154a3a41312p+2",
                 "0x1.05ab8f609a298p+3"),
                ("0x1.80228169a0a86p-3", "0x1.6f1848c354763p-2", "0x1.ff0ece9d4e9f1p-2",
                 "0x1.93a91a167687ap-1")),
}


@pytest.mark.parametrize("name", sorted(_FROZEN_COSTS))
def test_single_control_costs_are_frozen(name):
    grid = TimeGrid(T=1.0, n_steps=16)
    control = {"constant": constant_strict(ACTIONS, 16, 1),
               "uniform": uniform_relaxed(ACTIONS, 16)}[name]
    rep = co.evaluate_cost(md.build_model("linear_jump_lq", {"f2": 0.1}), control,
                           sample_drivers(_fam(1.0, 4.0, grid, blocks=2), grid, MARKS, 64, 11),
                           1.0)
    upper, means, stderrs = _FROZEN_COSTS[name]
    assert rep.upper_value.hex() == upper
    assert tuple(float(m).hex() for m in rep.scenario_means) == means
    assert tuple(float(s).hex() for s in rep.scenario_stderrs) == stderrs


@pytest.mark.filterwarnings("ignore:overflow")
def test_non_finite_cost_names_its_scenario_and_control():
    # gamma = c2 u rides the volatility: under u = 1 the high corner (scenario 1)
    # drives x_T to about 4e4, where g = gq x^2 overflows, and the low one to 1e4
    grid = TimeGrid(T=1.0, n_steps=16)
    drivers = sample_drivers(_fam(1.0, 4.0, grid), grid, MARKS, 64, 5)
    model = md.build_model("linear_jump_lq", {"gq": 1e300, "s1": 0.0, "f1": 0.0, "c1": 0.0,
                                              "c2": 1e4})
    low, high = constant_strict(ACTIONS, 16, 0), constant_strict(ACTIONS, 16, 2)
    assert np.isfinite(co.evaluate_cost(model, low, drivers, 1.0).upper_value)
    with pytest.raises(FloatingPointError, match="non-finite path cost of control 1 under scenario 1$"):
        co.value_bruteforce(model, [low, high], drivers, 1.0)
    # the base of a spike runs as row 0 of its spikes' batch, named by its role
    with pytest.raises(FloatingPointError,
                       match="non-finite path cost of the base control under scenario 1$"):
        spike_report(model, high, 0, 0.25, [0.25], drivers, 1.0)
    # every scenario overflows at x0 = 1e5: the first is named
    with pytest.raises(FloatingPointError, match="non-finite path cost of control 0 under scenario 0$"):
        co.evaluate_cost(md.build_model("linear_jump_lq", {"gq": 1e300}),
                         constant_strict(ACTIONS, 16, 1), drivers, 1e5)


@pytest.mark.filterwarnings("ignore:overflow")
def test_diverging_base_and_first_spike_are_named_apart():
    # the base and its spikes run as one batch, the base as row 0; the
    # message names the role, not the position in the batch
    grid = TimeGrid(T=1.0, n_steps=16)
    drivers = sample_drivers(_fam(1.0, 4.0, grid), grid, MARKS, 64, 5)
    model = md.build_model("linear_jump_lq", {"gq": 1e300, "s1": 0.0, "f1": 0.0, "c1": 0.0,
                                              "c2": 1e4})
    low, high = constant_strict(ACTIONS, 16, 0), constant_strict(ACTIONS, 16, 2)
    with pytest.raises(FloatingPointError,
                       match="non-finite path cost of the base control under scenario 1$"):
        spike_report(model, high, 0, 0.25, [0.75, 0.25], drivers, 1.0)
    # the base u = 0 is finite; spiked to u = 1 over [0.25, 1) it diverges
    assert np.isfinite(co.evaluate_cost(model, low, drivers, 1.0).upper_value)
    with pytest.raises(FloatingPointError,
                       match="non-finite path cost of spike h=0.75 under scenario 1$"):
        spike_report(model, low, 2, 0.25, [0.75, 0.25], drivers, 1.0)


@pytest.mark.filterwarnings("ignore:overflow")
def test_near_check_names_u_n_and_a_candidate_by_its_index():
    # u_n and the candidates run as one batch, u_n in row 0: a cost still names
    # u_n by its role and a candidate by its index in the candidate list
    grid = TimeGrid(T=1.0, n_steps=16)
    drivers = sample_drivers(_fam(1.0, 4.0, grid), grid, MARKS, 64, 5)
    model = md.build_model("linear_jump_lq", {"gq": 1e300, "s1": 0.0, "f1": 0.0, "c1": 0.0,
                                              "c2": 1e4})
    low, high = constant_strict(ACTIONS, 16, 0), constant_strict(ACTIONS, 16, 2)
    # candidate 0 equals u_n throughout; candidate 1 overflows (row 2 of the batch)
    with pytest.raises(FloatingPointError, match="non-finite path cost of control 1 under scenario 1$"):
        mp_check_near(model, low, [low, high], 1.0, drivers, 1.0, n_blocks=4)
    with pytest.raises(FloatingPointError, match="non-finite path cost of u_n under scenario 1$"):
        mp_check_near(model, high, [low], 1.0, drivers, 1.0, n_blocks=4)


@pytest.mark.filterwarnings("ignore:overflow")
def test_non_finite_candidate_is_named_by_its_index():
    # the strict batch is [constant 0, constant 2]: the diverging candidate sits
    # at position 1 of its batch and at index 2 of the candidate list
    grid = TimeGrid(T=1.0, n_steps=16)
    drivers = sample_drivers(_fam(1.0, 4.0, grid), grid, MARKS, 64, 5)
    model = md.build_model("linear_jump_lq", {"gq": 1e300, "s1": 0.0, "f1": 0.0, "c1": 0.0,
                                              "c2": 1e4})
    candidates = [uniform_relaxed(ACTIONS, 16), constant_strict(ACTIONS, 16, 0),
                  constant_strict(ACTIONS, 16, 2)]
    with pytest.raises(FloatingPointError, match="non-finite path cost of control 2 under scenario 1$"):
        co.evaluate_costs(model, candidates, drivers, 1.0)
    with pytest.raises(FloatingPointError, match="non-finite path cost of control 2 under scenario 1$"):
        co.value_bruteforce(model, candidates, drivers, 1.0)


def test_cost_report_csv_layout(tmp_path):
    fam = _fam(1.0, 4.0, TimeGrid(T=2.0, n_steps=8))
    text = _artifact(tmp_path, "cost.csv", **_DOC, kind="cost", model={"name": "zero"},
                     grid={"T": 2.0, "n_steps": 8}, control={"type": "constant", "index": 1},
                     n_paths=16, seed=1, x0=5.0)
    lines = text.strip().split("\n")
    assert lines[0] == "scenario_id,mean,stderr,n_paths,seed"
    assert lines[1] == "0,5.0,0.0,16,1"
    assert len(lines) == 1 + fam.n_scenarios


def test_bruteforce_singleton_and_min_property():
    model = md.build_model("linear_jump_lq", {})
    grid = TimeGrid(T=1.0, n_steps=32)
    fam = _fam(1.0, 4.0, grid)
    u0 = constant_strict(ACTIONS, 32, 0)
    u2 = constant_strict(ACTIONS, 32, 2)
    drivers = sample_drivers(fam, grid, MARKS, 100, 7)
    single = co.value_bruteforce(model, [u2], drivers, 1.0)
    assert single.value == single.table[0][1]
    assert single.minimizer_index == 0

    res = co.value_bruteforce(model, [u0, u2], drivers, 1.0)
    assert all(res.value <= j for _, j in res.table)
    with pytest.raises(ValueError):
        co.value_bruteforce(model, [], drivers, 1.0)


def test_bruteforce_minimizer_stable_under_dominated_candidates():
    model = md.build_model("linear_jump_lq", {})
    grid = TimeGrid(T=1.0, n_steps=32)
    fam = _fam(1.0, 4.0, grid)
    base = [constant_strict(ACTIONS, 32, 0), constant_strict(ACTIONS, 32, 1)]
    drivers = sample_drivers(fam, grid, MARKS, 200, 7)
    res1 = co.value_bruteforce(model, base, drivers, 1.0)
    res2 = co.value_bruteforce(model, base + [constant_strict(ACTIONS, 32, 2)], drivers, 1.0)
    assert res2.minimizer_index == res1.minimizer_index
    assert res2.value == res1.value


def test_bruteforce_self_consistency_at_higher_path_count():
    # two actions, two time blocks: four candidates; re-evaluating the
    # winner at 4x paths should land within 3 combined standard errors
    model = md.build_model("linear_jump_lq", {})
    grid = TimeGrid(T=1.0, n_steps=32)
    fam = _fam(1.0, 4.0, grid)
    two = ActionGrid(np.array([0.0, 1.0]))
    cands = []
    for i in (0, 1):
        for j in (0, 1):
            idx = np.concatenate([np.full(16, i), np.full(16, j)])
            cands.append(StrictControl(two, idx))
    res = co.value_bruteforce(model, cands, sample_drivers(fam, grid, MARKS, 1000, 7), 1.0)
    rep = co.evaluate_cost(model, res.minimizer, sample_drivers(fam, grid, MARKS, 4000, 1007), 1.0)
    se1 = res.reports[res.minimizer_index].scenario_stderrs[
        res.reports[res.minimizer_index].argmax_scenario
    ]
    se2 = rep.scenario_stderrs[rep.argmax_scenario]
    assert abs(res.value - rep.upper_value) <= 3 * np.hypot(se1, se2)


def test_chattering_report_dirac_is_all_zero():
    model = md.build_model("linear_jump_lq", {})
    grid = TimeGrid(T=1.0, n_steps=64)
    fam = _fam(1.0, 4.0, grid)
    mu = embed_strict(constant_strict(ACTIONS, 64, 1))
    rep = co.chattering_report(model, mu, [4, 16, 64], sample_drivers(fam, grid, MARKS, 200, 5),
                               1.0)
    for _, msq, gap, _ in rep.rows:
        assert msq == 0.0
        assert gap == 0.0
    assert rep.msq_nonincreasing and rep.cost_nonincreasing


def test_chattering_report_gaps_shrink():
    params = dict(b1=0.3, b2=0.8, s0=0.4, s1=0.0, c1=0.0, c2=0.0,
                  f1=0.0, f2=0.0, h1=0.4, h2=0.0, gq=0.5)
    model = md.build_model("linear_jump_lq", params)
    grid = TimeGrid(T=1.0, n_steps=256)
    fam = _fam(1.0, 4.0, grid)
    two = ActionGrid(np.array([-1.0, 1.0]))
    mu = RelaxedControl(two, np.full((256, 2), 0.5))
    rep = co.chattering_report(model, mu, [4, 16, 64], sample_drivers(fam, grid, MARKS, 2000, 13),
                               0.0)
    assert rep.msq_nonincreasing
    assert rep.fitted_C >= 0.0
    # the cost gap at the finest blocks is statistically indistinguishable from 0
    n, msq, gap, gap_se = rep.rows[-1]
    assert n == 64
    assert gap <= 3 * max(gap_se, 1e-12)
    # inf-consistency: the best chattering cost cannot undercut the relaxed
    # cost by more than noise
    worst_se = max(r[3] for r in rep.rows)
    assert rep.min_chattering_j >= rep.j_relaxed - 3 * (rep.j_relaxed_stderr + worst_se)
    # C/n envelope reproduces the measured gaps to within noise
    for n, _, gap, gap_se in rep.rows:
        assert gap <= rep.fitted_C / n + 3 * max(gap_se, 1e-12)


def test_chattering_report_validation():
    model = md.build_model("linear_jump_lq", {})
    grid = TimeGrid(T=1.0, n_steps=64)
    fam = _fam(1.0, 4.0, grid)
    mu = embed_strict(constant_strict(ACTIONS, 64, 1))
    drivers = sample_drivers(fam, grid, MARKS, 50, 5)
    with pytest.raises(ValueError):
        co.chattering_report(model, mu, [16, 4], drivers, 1.0)
    with pytest.raises(ValueError):
        co.chattering_report(model, mu, [3, 6], drivers, 1.0)


def test_chattering_csv_and_summary(tmp_path):
    # the Dirac embedding of the constant control at index 1
    csv = _artifact(tmp_path, "chattering.csv", **_DOC, kind="chattering",
                    model={"name": "linear_jump_lq"}, grid={"T": 1.0, "n_steps": 64},
                    control={"type": "weights", "weights": [[0.0, 1.0, 0.0]] * 64},
                    n_paths=100, seed=5, x0=1.0, options={"n_list": [4, 16]})
    assert csv.splitlines()[0] == "n,msq_gap,cost_gap,cost_gap_stderr"
    assert len(csv.splitlines()) == 3
