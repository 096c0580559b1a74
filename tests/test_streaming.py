"""Streamed batches: the same bits as the whole-array expressions, in bounded memory.

Brute-force candidates, chattering rungs, spiked controls and their base
run through the kernel without keeping their trajectories; each step is
folded into path costs, pathwise sups and the spike's first-order formula
as it is written. The references below are the whole-array expressions
those reductions replaced, evaluated on each control's own stored
:func:`simulate` run, and every comparison is exact.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from oracles import solve_variational

from gcontrol import models as md
from gcontrol.controls import (
    ActionGrid,
    RelaxedControl,
    StrictControl,
    chattering,
    embed_strict,
    spike,
    spike_window,
    uniform_relaxed,
)
from gcontrol.costs import _PathCosts, chattering_report, evaluate_cost, evaluate_costs
from gcontrol.jumps import MarkSpace, sample_drivers
from gcontrol.scenarios import TimeGrid, VolatilityBounds, build_scenario_family, upper_expectation
from gcontrol import sde
from gcontrol.sde import _batch_steps, _branches, simulate
from gcontrol.variational import QuotientRow, spike_report

K = 16
GRID = TimeGrid(T=1.0, n_steps=K)
# asymmetric actions and a width that is no power of two, so a reordered
# sum or a reciprocal multiply would change bits
ACTIONS = ActionGrid(np.array([-1.0, 0.5, 2.0]))
BUSY = MarkSpace(marks=np.array([-0.4, 0.6]), intensities=np.array([2.0, 1.5]))
QUIET = MarkSpace(marks=np.array([1.0]), intensities=np.array([0.0]))
CORNERS = build_scenario_family(VolatilityBounds(1.0, 4.0), GRID, "corners", blocks=2)
LONE = dataclasses.replace(CORNERS, values=CORNERS.values[:1])
MODEL = md.build_model("linear_jump_lq", {"c2": 0.3, "f2": 0.05, "h1": 0.2, "h2": 0.1})

# every weight row has a zero, and the last rows are one-hot
_ZERO_WEIGHTS = RelaxedControl(ACTIONS, np.array([[0.3, 0.0, 0.7]] * (K - 4)
                                                  + [[0.0, 1.0, 0.0]] * 4))
_PATTERN = StrictControl(ACTIONS, np.tile(np.array([0, 2, 1, 1]), K // 4))

# rows that branch: spikes at the first and the last step, a row equal to
# row 0 throughout (it never starts), two nested spikes (the narrower one's
# parent has not started either before step 9), and three descending widths
# from one opening step, whose narrower rows start out of batch order
_SPIKES = [_PATTERN, spike(_PATTERN, 2, 0, 1), spike(_PATTERN, 0, K - 1, 1),
           StrictControl(ACTIONS, _PATTERN.indices.copy()),
           spike(_PATTERN, 0, 9, 4), spike(_PATTERN, 0, 9, 2)]
_NESTED = [spike(_PATTERN, 0, 5, span) for span in (8, 6, 3)]
# zero weights for 6 steps, then uniform: it shares the uniform rows' tail
# but branches from _ZERO_WEIGHTS, whose weights and tags it has until step 6
_PREFIX = RelaxedControl(ACTIONS, np.concatenate([_ZERO_WEIGHTS.weights[:6],
                                                  uniform_relaxed(ACTIONS, K - 6).weights]))
# the first action's weight of _ZERO_WEIGHTS until step K - 4, the others swapped
_SWAPPED = RelaxedControl(ACTIONS, np.array([[0.3, 0.7, 0.0]] * K))

# (family, marks, controls) per case
CASES = {
    "strict": (CORNERS, BUSY, [_PATTERN] + [StrictControl(ACTIONS, np.full(K, i))
                                            for i in range(3)]),
    "relaxed-zero-weights": (CORNERS, BUSY, [_ZERO_WEIGHTS, uniform_relaxed(ACTIONS, K)]),
    "lone-quiet": (LONE, QUIET, [_PATTERN, StrictControl(ACTIONS, np.full(K, 2))]),
    "spikes-at-the-ends": (CORNERS, BUSY, _SPIKES),
    "nested-widths": (CORNERS, BUSY, _NESTED),
    "relaxed-shared-prefix": (CORNERS, BUSY, [uniform_relaxed(ACTIONS, K), _ZERO_WEIGHTS,
                                              _PREFIX, _SWAPPED]),
}
# each case's (starts, parents) from sde._branches
BRANCHES = {
    "strict": ([0, 1, 0, 0], [-1, 0, 0, 0]),
    "relaxed-zero-weights": ([0, 0], [-1, 0]),
    "lone-quiet": ([0, 0], [-1, 0]),
    "spikes-at-the-ends": ([0, 0, K - 1, K, 9, 11], [-1, 0, 0, 0, 0, 4]),
    "nested-widths": ([0, 11, 9], [-1, 0, 0]),
    "relaxed-shared-prefix": ([0, 0, 6, 0], [-1, 0, 1, 0]),
}


def _stored(model, controls, drivers, x0):
    """Each control's states from its own run, (n_steps + 1, n_controls, S, P)."""
    return np.stack([simulate(model, c, drivers, x0).states for c in controls], axis=1)


def _whole_array_path_costs(model, control, grid, states):
    """Left-endpoint path costs of stored states (n_steps + 1, S, P), whole-array form."""
    dt = grid.dt
    running = np.zeros(states.shape[1:])
    if isinstance(control, RelaxedControl):
        actions = control.grid.actions
        for k in range(grid.n_steps):
            xk = states[k]
            t = float(grid.times[k])
            hk = np.zeros_like(xk)
            for a_i, a in enumerate(actions):
                w = control.weights[k, a_i]
                if w != 0.0:
                    hk = hk + w * np.asarray(model.h(t, xk, a))
            running += hk * dt
    else:
        values = control.values
        for k in range(grid.n_steps):
            xk = states[k]
            t = float(grid.times[k])
            running += np.asarray(model.h(t, xk, float(values[k]))) * dt
    return running + np.asarray(model.g(states[-1]))


@pytest.mark.parametrize("case", list(CASES))
def test_stream_batch_hands_every_step_with_the_stored_bits(case):
    family, marks, controls = CASES[case]
    drivers = sample_drivers(family, GRID, marks, 30, 4)
    stored = _stored(MODEL, controls, drivers, 1.0)
    # pulled one step at a time, the batch hands each control's stored bits in one slot
    pulled = _batch_steps(MODEL, controls, drivers, 1.0)
    k, slot = next(pulled)
    assert (k, slot.tobytes()) == (0, stored[0].tobytes())
    for k, x in pulled:
        assert x is slot
        assert x.tobytes() == stored[k].tobytes()
    assert k == K


@pytest.mark.parametrize("case", list(CASES))
def test_only_started_rows_are_stepped(case, monkeypatch):
    # a row starts where its actions leave an earlier row's; until then the
    # increment never sees it, and it takes its parent's new state
    family, marks, controls = CASES[case]
    starts, parents = BRANCHES[case]
    strict = isinstance(controls[0], StrictControl)
    table = np.stack([u.values for u in controls] if strict else [mu.weights for mu in controls])
    assert [v.tolist() for v in _branches(table)] == [starts, parents]
    name, at = ("_strict_increment", 2) if strict else ("_relaxed_increment", 3)
    increment, rows = getattr(sde, name), []

    def counted(*args):
        rows.append(args[at].shape[0])
        return increment(*args)

    monkeypatch.setattr(sde, name, counted)
    for _ in _batch_steps(MODEL, controls, sample_drivers(family, GRID, marks, 30, 4), 1.0):
        pass
    assert rows == [sum(s <= k for s in starts) for k in range(K)]


def test_nested_spike_windows_branch_where_each_closes():
    # the forward-sweep variational windows, t0 = 0.25 and widths 1/16, 1/32
    # and 1/64 on 128 steps: [32, 40), [32, 36) and [32, 34) on a constant base
    grid = TimeGrid(T=1.0, n_steps=128)
    base = StrictControl(ACTIONS, np.full(128, 1))
    windows = [spike_window(0.25, h, grid) for h in (1 / 16, 1 / 32, 1 / 64)]
    assert windows == [(32, 8), (32, 4), (32, 2)]
    spikes = [spike(base, 2, k0, span).values for k0, span in windows]
    starts, parents = _branches(np.stack(spikes))
    assert starts.tolist() == [0, 36, 34]
    assert parents.tolist() == [-1, 0, 0]
    # with the base in the batch, the widest spike branches from it at its opening
    starts, parents = _branches(np.stack([base.values] + spikes))
    assert starts.tolist() == [0, 32, 36, 34]
    assert parents.tolist() == [-1, 0, 1, 1]


def test_strict_cost_fold_is_the_per_row_weight_mix_stacked():
    # a strict batch folds h once per step on its whole slot with the rows'
    # action values; each row equals the weight mix of its Dirac embedding,
    # the per-row fold a relaxed batch runs
    controls = _SPIKES + _NESTED + [StrictControl(ACTIONS, np.full(K, i)) for i in range(3)]
    shape = (len(controls), 4, 30)
    drivers = sample_drivers(CORNERS, GRID, BUSY, shape[2], 3)
    rng = np.random.default_rng(3)
    stacked = _PathCosts(MODEL, controls, drivers, 1.0)
    mixed = _PathCosts(MODEL, [embed_strict(u) for u in controls], drivers, 1.0)
    assert stacked.values is not None and mixed.values is None
    for k in range(K):
        xk = rng.normal(scale=k + 1.0, size=shape)
        xk[:, 0, :3] = -0.0
        stacked.fold(k, xk)
        mixed.fold(k, xk)
    assert stacked.costs.tobytes() == mixed.costs.tobytes()
    x_T = rng.normal(size=shape)
    stacked.fold(K, x_T)
    mixed.fold(K, x_T)
    assert stacked.costs.tobytes() == mixed.costs.tobytes()


def test_batch_pull_refuses_a_bad_batch_before_any_step():
    drivers = sample_drivers(CORNERS, GRID, BUSY, 5, 6)
    # the refusals come from building the pull, plain or costed: no step is pulled
    for pull in (_batch_steps, _PathCosts):
        with pytest.raises(ValueError, match="strict or relaxed"):
            pull(MODEL, [_PATTERN, _ZERO_WEIGHTS], drivers, 1.0)
        with pytest.raises(ValueError, match="controls and grid must agree on n_steps"):
            pull(MODEL, [StrictControl(ACTIONS, np.zeros(K + 1, dtype=int))], drivers, 1.0)


@pytest.mark.parametrize("stop", [0, 1, K // 2, K])
def test_costed_batch_reports_pull_what_is_left(stop):
    # a consumer may stop pulling at any step and ask for the reports: they
    # pull the steps left, and carry the bits of a full pull
    controls = CASES["spikes-at-the-ends"][2]
    drivers = sample_drivers(CORNERS, GRID, BUSY, 30, 4)
    full = _PathCosts(MODEL, controls, drivers, 1.0)
    assert [k for k, _ in full] == list(range(K + 1))
    partial = _PathCosts(MODEL, controls, drivers, 1.0)
    for k, _ in partial:
        if k == stop:
            break
    for rep, ref in zip(partial.reports(), full.reports(), strict=True):
        assert rep.per_path.tobytes() == ref.per_path.tobytes()
        assert rep.scenario_means.tobytes() == ref.scenario_means.tobytes()
        assert rep.scenario_stderrs.tobytes() == ref.scenario_stderrs.tobytes()
    # a batch pulled to its end reports the same again
    assert [r.per_path.tobytes() for r in partial.reports()] == [
        r.per_path.tobytes() for r in full.reports()]


@pytest.mark.parametrize("case", list(CASES))
def test_streamed_costs_equal_whole_array_costs_bitwise(case):
    family, marks, controls = CASES[case]
    drivers = sample_drivers(family, GRID, marks, 40, 5)
    stored = _stored(MODEL, controls, drivers, 1.0)
    reports = evaluate_costs(MODEL, controls, drivers, 1.0)
    for c, (u, rep) in enumerate(zip(controls, reports)):
        ref = _whole_array_path_costs(MODEL, u, GRID, stored[:, c])
        assert rep.per_path.tobytes() == ref.tobytes()
        assert rep.per_path.flags["C_CONTIGUOUS"]
        assert (rep.scenario_means == ref.mean(axis=1)).all()
        assert rep.upper_value == upper_expectation(list(ref), "cost").value


@pytest.mark.parametrize("case", ["strict", "lone-quiet"])
def test_streamed_quotient_and_slope_rows_equal_whole_array_rows_bitwise(case):
    family, marks, _ = CASES[case]
    ai, t0, h_list = 2, 0.25, [0.1875, 0.125, 0.0625]
    # on these drivers the formula's mean or its stderr changes in both
    # cases when its summands are added in step order, the terminal one last
    drivers = sample_drivers(family, GRID, marks, 40, 11)
    ens = simulate(MODEL, _PATTERN, drivers, 1.0)
    derivative, rows = spike_report(MODEL, _PATTERN, ai, t0, h_list, drivers, 1.0)

    windows = [spike_window(t0, h, GRID) for h in h_list]
    spikes = [spike(_PATTERN, ai, k0, span) for k0, span in windows]
    spiked = _stored(MODEL, spikes, drivers, 1.0)
    z = solve_variational(ens, ai, windows[0][0])
    base = _whole_array_path_costs(MODEL, _PATTERN, GRID, ens.states)
    s_star = upper_expectation(list(base), "cost").scenario_id
    ref_rows, ref_slopes = [], []
    for j, (h, u, (k0, span)) in enumerate(zip(h_list, spikes, windows)):
        y = (spiked[:, j] - ens.states) / h - z
        um = upper_expectation(list(np.max(y[k0 + span:] ** 2, axis=0)), "sup")
        ref_rows.append(QuotientRow(h, um.value, um.stderr, um.scenario_id))
        pert = _whole_array_path_costs(MODEL, u, GRID, spiked[:, j])
        diff = (pert[s_star] - base[s_star]) / h
        ref_slopes.append((h, float(diff.mean()), float(diff.std(ddof=1) / np.sqrt(40))))
    assert rows == tuple(ref_rows)
    assert derivative.rows == tuple(ref_slopes)
    assert derivative.scenario_id == s_star
    # the formula's terminal summand first, then the running ones in step order
    formula = np.asarray(MODEL.g_x(ens.states[-1])) * z[-1]
    for k in range(windows[0][0], K):
        hx = md._coeff(MODEL.h_x(float(GRID.times[k]), ens.states[k], float(_PATTERN.values[k])))
        formula = formula + hx * z[k] * GRID.dt
    um = upper_expectation(list(formula), "formula")
    assert ((derivative.formula.hex(), derivative.formula_stderr.hex())
            == (um.value.hex(), um.stderr.hex()))


@pytest.mark.parametrize("case", ["relaxed-zero-weights", "lone-quiet"])
def test_streamed_chattering_sups_equal_whole_array_sups_bitwise(case):
    family, marks, _ = CASES[case]
    mu, n_list = _ZERO_WEIGHTS, [2, 4, 8]
    drivers = sample_drivers(family, GRID, marks, 40, 7)
    rep = chattering_report(MODEL, mu, n_list, drivers, 1.0)

    ladder = [chattering(mu, n) for n in n_list]
    base = simulate(MODEL, mu, drivers, 1.0).states
    states = _stored(MODEL, ladder, drivers, 1.0)
    base_cost = _whole_array_path_costs(MODEL, mu, GRID, base)
    s_star = upper_expectation(list(base_cost), "cost").scenario_id
    ref = []
    for c, (n, u) in enumerate(zip(n_list, ladder)):
        sup = np.abs(base - states[:, c]).max(axis=0)
        cost = _whole_array_path_costs(MODEL, u, GRID, states[:, c])
        gap = abs(upper_expectation(list(cost), "cost").value
                  - upper_expectation(list(base_cost), "cost").value)
        diff = cost[s_star] - base_cost[s_star]
        ref.append((n, float(np.max((sup**2).mean(axis=1))), float(gap),
                    float(diff.std(ddof=1) / np.sqrt(diff.size))))
    assert rep.rows == tuple(ref)


def test_candidate_costs_peak_below_two_state_arrays():
    # a stored batch of C candidates holds C state arrays; streamed, the
    # kernel holds one step of the batch and the costs one (S, P) sum each
    k, p, n_candidates = 32, 2000, 8
    grid = TimeGrid(T=1.0, n_steps=k)
    family = build_scenario_family(VolatilityBounds(1.0, 4.0), grid, "corners", blocks=2)
    model = md.build_model("linear_jump_lq", {})
    md.ensure_validated(model)
    drivers = sample_drivers(family, grid, BUSY, p, 8)
    rng = np.random.default_rng(0)
    candidates = [StrictControl(ACTIONS, rng.integers(0, 3, k)) for _ in range(n_candidates)]
    state_bytes = (k + 1) * family.n_scenarios * p * 8
    tracemalloc.start()
    try:
        evaluate_costs(model, candidates, drivers, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * state_bytes


def test_relaxed_candidate_costs_hold_no_whole_run_counts():
    # each step's tagged counts are formed on its event paths only,
    # (C, n_event_paths, m, A), from that step's events and per-event tags,
    # and f dN is summed on those paths (the run peaks near 2.4 state
    # arrays); a whole-run (K, m, A, P) array per control would add about
    # 2.6 state arrays here even as int8
    k, p, n_candidates = 32, 2000, 8
    grid = TimeGrid(T=1.0, n_steps=k)
    family = build_scenario_family(VolatilityBounds(1.0, 4.0), grid, "corners", blocks=2)
    model = md.build_model("linear_jump_lq", {})
    md.ensure_validated(model)
    actions = ActionGrid(np.array([-1.0, 0.5, 2.0, 3.0]))
    marks = MarkSpace(marks=np.array([-0.4, 0.6, 0.9]), intensities=np.array([2.0, 1.5, 1.0]))
    drivers = sample_drivers(family, grid, marks, p, 8)
    rng = np.random.default_rng(0)
    candidates = [RelaxedControl(actions, w / w.sum(axis=1, keepdims=True))
                  for w in rng.random((n_candidates, k, 4))]
    state_bytes = (k + 1) * family.n_scenarios * p * 8
    tracemalloc.start()
    try:
        reports = evaluate_costs(model, candidates, drivers, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(reports) == n_candidates
    assert peak < 2.55 * state_bytes, peak / state_bytes


@pytest.mark.parametrize("kind", ["strict", "uniform"])
def test_single_control_cost_peak_is_set_by_the_drivers(kind):
    # one control's cost streams its run: the peak is the sampling of the
    # drivers (their (K, P) draws and the transposing copy), not a stored ensemble
    k, p = 32, 2000
    grid = TimeGrid(T=1.0, n_steps=k)
    family = build_scenario_family(VolatilityBounds(1.0, 4.0), grid, "corners", blocks=2)
    model = md.build_model("linear_jump_lq", {})
    md.ensure_validated(model)
    control = (StrictControl(ACTIONS, np.random.default_rng(0).integers(0, 3, k))
               if kind == "strict" else uniform_relaxed(ACTIONS, k))
    state_bytes = (k + 1) * family.n_scenarios * p * 8
    tracemalloc.start()
    try:
        evaluate_cost(model, control, sample_drivers(family, grid, BUSY, p, 8), 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.3 * state_bytes
