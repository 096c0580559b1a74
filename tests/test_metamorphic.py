"""Metamorphic relations between runs, pinned bit for bit.

Permuting a batch permutes its results. The kernel branches each row
from the earlier row it shares the longest prefix of actions with, so
which row is whose parent depends on the batch order; a row's bits, and
every value derived from them, must not.

Permuting the scenario family permutes the per-scenario results: every
scenario runs on the same draws and events, and no reduction crosses
scenarios before the worst case is taken.
"""

import itertools

import numpy as np
import pytest

from gcontrol import models as md
from gcontrol.adjoint import mp_check_near
from gcontrol.controls import (
    ActionGrid,
    RelaxedControl,
    StrictControl,
    spike,
    uniform_relaxed,
)
from gcontrol.costs import evaluate_cost, value_bruteforce
from gcontrol.jumps import MarkSpace, sample_drivers
from gcontrol.scenarios import ScenarioFamily, TimeGrid, VolatilityBounds, build_scenario_family

K = 16
GRID = TimeGrid(T=1.0, n_steps=K)
ACTIONS = ActionGrid(np.array([-1.0, 0.5, 2.0]))
MARKS = MarkSpace(marks=np.array([-0.4, 0.6]), intensities=np.array([2.0, 1.5]))
FAMILY = build_scenario_family(VolatilityBounds(1.0, 4.0), GRID, "corners", blocks=2)
MODEL = md.build_model("linear_jump_lq", {"c2": 0.3, "f2": 0.05, "h1": 0.2, "h2": 0.1})
BASE = StrictControl(ACTIONS, np.tile(np.array([0, 2, 1, 1]), K // 4))
_ZERO_WEIGHTS = RelaxedControl(ACTIONS, np.array([[0.3, 0.0, 0.7]] * K))

# strict rows that share prefixes (spikes of one base, nested windows, a
# spike at the last step) and relaxed rows that share a weight prefix
CANDIDATES = [
    spike(BASE, 0, 5, 8),
    StrictControl(ACTIONS, np.full(K, 2)),
    BASE,
    spike(BASE, 0, 5, 3),
    uniform_relaxed(ACTIONS, K),
    spike(BASE, 2, K - 1, 1),
    RelaxedControl(ACTIONS, np.concatenate([_ZERO_WEIGHTS.weights[:6],
                                            uniform_relaxed(ACTIONS, K - 6).weights])),
    spike(BASE, 2, 0, 1),
    _ZERO_WEIGHTS,
    # the first action's weight of _ZERO_WEIGHTS, the others swapped
    RelaxedControl(ACTIONS, np.array([[0.3, 0.7, 0.0]] * K)),
]


def _orders(n, count, seed):
    """The reversed order and ``count`` drawn permutations of ``range(n)``."""
    rng = np.random.default_rng(seed)
    return [list(reversed(range(n)))] + [rng.permutation(n).tolist() for _ in range(count)]


def test_permuted_candidates_permute_the_brute_force_rows():
    drivers = sample_drivers(FAMILY, GRID, MARKS, 30, 11)
    ref = value_bruteforce(MODEL, CANDIDATES, drivers, 1.0)
    values = [j for _, j in ref.table]
    assert len(set(values)) == len(values)  # no tie, so the minimizer is one control
    for order in _orders(len(CANDIDATES), 6, 0):
        res = value_bruteforce(MODEL, [CANDIDATES[i] for i in order], drivers, 1.0)
        for rep, i in zip(res.reports, order):
            want = ref.reports[i]
            assert rep.per_path.tobytes() == want.per_path.tobytes()
            assert rep.scenario_means.tobytes() == want.scenario_means.tobytes()
            assert rep.scenario_stderrs.tobytes() == want.scenario_stderrs.tobytes()
            assert (rep.upper_value, rep.argmax_scenario) == (want.upper_value,
                                                              want.argmax_scenario)
        assert [j for _, j in res.table] == [values[i] for i in order]
        assert res.value == ref.value
        assert res.minimizer is ref.minimizer


@pytest.mark.parametrize("add_block_spikes", [True, False])
def test_permuted_candidates_leave_the_near_table_unchanged(add_block_spikes):
    drivers = sample_drivers(FAMILY, GRID, MARKS, 60, 12)
    strict = [c for c in CANDIDATES if isinstance(c, StrictControl) and c is not BASE]
    ref = mp_check_near(MODEL, BASE, strict, 1.0, drivers, 1.0, n_blocks=4,
                        add_block_spikes=add_block_spikes)
    assert ref.epsilon_n > 0.0
    for order in itertools.islice(itertools.permutations(range(len(strict))), 1, None, 17):
        rep = mp_check_near(MODEL, BASE, [strict[i] for i in order], 1.0, drivers, 1.0,
                            n_blocks=4, add_block_spikes=add_block_spikes)
        assert (rep.epsilon_n, rep.C_min, rep.jepsilon_ok, rep.n_candidates) == (
            ref.epsilon_n, ref.C_min, ref.jepsilon_ok, ref.n_candidates)
        assert rep.mp.entries == ref.mp.entries
        assert rep.mp.extra_slack == ref.mp.extra_slack


@pytest.mark.parametrize("relaxed", [False, True], ids=["strict", "relaxed"])
def test_permuted_scenarios_permute_the_scenario_means(relaxed):
    grid = TimeGrid(T=1.0, n_steps=64)
    family = build_scenario_family(VolatilityBounds(1.0, 4.0), grid, "corners", blocks=2)
    actions = ActionGrid(np.array([-1.0, 0.0, 1.0]))
    control = (uniform_relaxed(actions, 64) if relaxed
               else StrictControl(actions, np.full(64, 2)))
    model = md.build_model("linear_jump_lq", {})
    ref = evaluate_cost(model, control, sample_drivers(family, grid, MARKS, 1000, 3), 1.0)
    for order in _orders(family.n_scenarios, 4, 1) + [[2, 0, 3, 1]]:
        permuted = ScenarioFamily(family.bounds, family.values[order])
        rep = evaluate_cost(model, control, sample_drivers(permuted, grid, MARKS, 1000, 3), 1.0)
        assert rep.scenario_means.tobytes() == ref.scenario_means[order].tobytes()
        assert rep.scenario_stderrs.tobytes() == ref.scenario_stderrs[order].tobytes()
        assert rep.upper_value == ref.upper_value
        # an exact tie for the worst case goes to the lowest id in either order
        if np.count_nonzero(ref.scenario_means == ref.upper_value) == 1:
            assert order[rep.argmax_scenario] == ref.argmax_scenario
