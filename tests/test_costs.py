import numpy as np
import pytest

from gcontrol import costs as co
from gcontrol import models as md
from gcontrol.adjoint import mp_check_near
from gcontrol.controls import (
    ActionGrid,
    RelaxedControl,
    StrictControl,
    chattering,
    constant_strict,
    embed_strict,
    uniform_relaxed,
)
from gcontrol.experiments import run_document, validate_document
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
    # drives x_T to about 2.4e154, where g = x^2 overflows, and the low one to
    # 6e153 (g about 3.5e307); under u = 0 every cost, and its variance, is O(1)
    grid = TimeGrid(T=1.0, n_steps=16)
    drivers = sample_drivers(_fam(1.0, 4.0, grid), grid, MARKS, 64, 5)
    model = md.build_model("linear_jump_lq", {"gq": 1.0, "s1": 0.0, "f1": 0.0, "c1": 0.0,
                                              "c2": 5e153})
    low, high = constant_strict(ACTIONS, 16, 0), constant_strict(ACTIONS, 16, 2)
    rep = co.evaluate_cost(model, low, drivers, 1.0)
    assert np.isfinite(rep.upper_value) and np.isfinite(rep.scenario_stderrs).all()
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
def test_failed_costed_batch_stays_failed():
    # every scenario's g = gq x^2 overflows at x0 = 1e5 on the last step's fold
    grid = TimeGrid(T=1.0, n_steps=16)
    drivers = sample_drivers(_fam(1.0, 4.0, grid), grid, MARKS, 64, 5)
    batch = co._PathCosts(md.build_model("linear_jump_lq", {"gq": 1e300}),
                          [constant_strict(ACTIONS, 16, 1)], drivers, 1e5)
    with pytest.raises(FloatingPointError, match="non-finite path cost of control 0") as first:
        for _ in batch:
            pass
    # a later pull or report raises the same error, and hands back no inf cost
    for again in (lambda: next(batch), batch.reports, batch.reports):
        with pytest.raises(FloatingPointError) as later:
            again()
        assert later.value is first.value


@pytest.mark.filterwarnings("ignore:overflow")
def test_diverging_base_and_first_spike_are_named_apart():
    # the base and its spikes run as one batch, the base as row 0; the
    # message names the role, not the position in the batch (the model of
    # test_non_finite_cost_names_its_scenario_and_control)
    grid = TimeGrid(T=1.0, n_steps=16)
    drivers = sample_drivers(_fam(1.0, 4.0, grid), grid, MARKS, 64, 5)
    model = md.build_model("linear_jump_lq", {"gq": 1.0, "s1": 0.0, "f1": 0.0, "c1": 0.0,
                                              "c2": 5e153})
    low, high = constant_strict(ACTIONS, 16, 0), constant_strict(ACTIONS, 16, 2)
    with pytest.raises(FloatingPointError,
                       match="non-finite path cost of the base control under scenario 1$"):
        spike_report(model, high, 0, 0.25, [0.75, 0.25], drivers, 1.0)
    # the base u = 0 is finite, its stderrs too; spiked to u = 1 over [0.25, 1)
    # it diverges
    rep = co.evaluate_cost(model, low, drivers, 1.0)
    assert np.isfinite(rep.upper_value) and np.isfinite(rep.scenario_stderrs).all()
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


@pytest.mark.filterwarnings("ignore:overflow")
def test_chattering_names_the_relaxed_control_and_each_rung():
    # the relaxed control and its ladder are two batches pulled in lockstep;
    # a cost names its control by its role, and at a step the relaxed
    # control's cost is checked first
    grid = TimeGrid(T=1.0, n_steps=16)
    drivers = sample_drivers(_fam(1.0, 4.0, grid), grid, MARKS, 64, 5)
    quiet = dict(b1=0.0, b2=0.0, s0=0.0, s1=0.0, c1=0.0, c2=0.0, f1=0.0, f2=0.0)
    # h = h2 u^2 overflows at u = 1e154, where the relaxed control puts weight
    # 1/64 and no rung of 2 or 4 blocks plays a step
    rare = RelaxedControl(ActionGrid(np.array([0.0, 1e154])), np.array([[63 / 64, 1 / 64]] * 16))
    model = md.build_model("linear_jump_lq", dict(quiet, h2=100.0))
    ladder = [chattering(rare, n) for n in (2, 4)]
    assert all(np.isfinite(r.upper_value) for r in co.evaluate_costs(model, ladder, drivers, 1.0))
    with pytest.raises(FloatingPointError,
                       match="^non-finite path cost of the relaxed control under scenario 0$"):
        co.chattering_report(model, rare, [2, 4], drivers, 1.0)
    # gamma = c2 u averages to exactly 0 under uniform weights on -1 and 1; a
    # rung's first half-block at u = -1 drives h1 x^2 past the float range
    # under the high corner (scenario 1) only
    pm = uniform_relaxed(ActionGrid(np.array([-1.0, 1.0])), 16)
    model = md.build_model("linear_jump_lq", dict(quiet, c2=5e154))
    assert np.isfinite(co.evaluate_cost(model, pm, drivers, 1.0).upper_value)
    with pytest.raises(FloatingPointError,
                       match="^non-finite path cost of rung n=2 under scenario 1$"):
        co.chattering_report(model, pm, [2, 4], drivers, 1.0)
    # every state stays at x0 = 1e5 and only g = gq x^2 overflows, at the
    # last step of every run: the relaxed control is named
    model = md.build_model("linear_jump_lq", dict(quiet, gq=1e300))
    with pytest.raises(FloatingPointError,
                       match="^non-finite path cost of control 0 under scenario 0$"):
        co.evaluate_costs(model, [chattering(pm, 2)], drivers, 1e5)
    with pytest.raises(FloatingPointError,
                       match="^non-finite path cost of the relaxed control under scenario 0$"):
        co.chattering_report(model, pm, [2, 4], drivers, 1e5)


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


@pytest.mark.parametrize("f2", [0.0, 0.3])
def test_chattering_ladder_converges_on_the_exact_chain(f2):
    # the workloads' setting: uniform weights over -1, 0 and 1, four corners;
    # f2 = 0.3 makes the jump size depend on the action (controlled jumps)
    model = md.build_model("linear_jump_lq", {"f2": f2})
    grid = TimeGrid(T=1.0, n_steps=64)
    fam = _fam(1.0, 4.0, grid, blocks=2)
    acts = ActionGrid(np.array([-1.0, 0.0, 1.0]))
    mu = uniform_relaxed(acts, 64)
    ladder = [chattering(mu, n) for n in (4, 8, 16, 32, 64)]

    def exact(u_mean, u_sq):
        return max(md.lq_cost_discrete(model.params, grid, 1.0, u_mean, u_sq, a, MARKS)
                   for a in fam.scalar_values())

    j_mu = exact(mu.weights @ acts.actions, mu.weights @ acts.actions**2)
    gaps = [exact(u.values, u.values**2) - j_mu for u in ladder]
    assert all(abs(b) < abs(a) for a, b in zip(gaps, gaps[1:])), gaps
    P = 1000
    base, *reports = co.evaluate_costs(model, [mu] + ladder, sample_drivers(fam, grid, MARKS, P, 1),
                                       1.0)
    s = base.argmax_scenario
    for rep, gap in zip(reports, gaps):
        paired_se = (rep.per_path[s] - base.per_path[s]).std(ddof=1) / np.sqrt(P)
        assert abs(rep.upper_value - base.upper_value - gap) <= 4 * paired_se


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


# finite per-path samples whose reported mean or stderr is not: the cost's
# stderr (g = 1e300 x^2) overflows, and so does the rungs' mean-square gap
# (x gains a factor 1 + 5000 dt per step, to about 1e205). Both documents
# are valid; each run raises and writes no summary, where it used to write
# inf into its CSV
_OVERFLOWING = {
    "cost": ({**_DOC, "kind": "cost",
              "model": {"name": "linear_jump_lq",
                        "params": {"gq": 1e300, "c2": 1e4, "s1": 0.0, "f1": 0.0, "c1": 0.0}},
              "grid": {"T": 1.0, "n_steps": 16}, "control": {"type": "constant", "index": 0},
              "n_paths": 64, "seed": 5, "x0": 1.0},
             "^non-finite cost of control 0 under scenario 0$"),
    "chattering": ({**_DOC, "kind": "chattering",
                    "model": {"name": "bilinear", "params": {"th0": 5000.0, "th1": 1.0}},
                    "marks": {"values": [-0.4, 0.6], "intensities": [1.0, 1.0]},
                    "actions": [-1.0, 0.0, 1.0], "grid": {"T": 1.0, "n_steps": 128},
                    "control": {"type": "uniform"}, "n_paths": 64, "seed": 1, "x0": 1.0,
                    "options": {"n_list": [4, 16]}},
                   "^non-finite mean-square gap of rung n=4 under scenario 0$"),
}


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("kind", sorted(_OVERFLOWING))
def test_a_non_finite_reported_mean_raises_and_writes_no_summary(kind, tmp_path):
    doc, message = _OVERFLOWING[kind]
    doc = {"scenarios": {"strategy": "corners", "blocks": 1}, **doc}
    assert validate_document(doc) == []
    with pytest.raises(FloatingPointError, match=message):
        run_document(doc, output_dir=tmp_path)
    assert not (tmp_path / "summary.json").exists()
