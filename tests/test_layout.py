"""One array layout from the drivers to the adjoint triple: time first, C order.

Every dense per-step array the pipeline hands from one layer to the next
has the grid step on axis 0 and is C-contiguous, so a consumer reads a
step as one contiguous slice and no layer transposes. The sizes below
are pairwise distinct, so a swapped axis cannot pass.
"""

import numpy as np

from gcontrol import models as md
from gcontrol.adjoint import solve_adjoint
from gcontrol.controls import ActionGrid, SpikeSpec, constant_strict, uniform_relaxed
from gcontrol.jumps import Drivers, MarkSpace, sample_drivers
from gcontrol.scenarios import TimeGrid, VolatilityBounds, build_scenario_family
from gcontrol.sde import ensemble_from_batch, simulate, simulate_batch, simulate_with
from gcontrol.variational import solve_fundamental, solve_variational

K, P = 8, 6
GRID = TimeGrid(T=1.0, n_steps=K)
FAMILY = build_scenario_family(VolatilityBounds(1.0, 4.0), GRID, "corners", blocks=2)
S = FAMILY.n_scenarios
MARKS = MarkSpace(marks=np.array([-0.4, 0.6]), intensities=np.array([3.0, 2.0]))
ACTIONS = ActionGrid(np.array([-1.0, 0.0, 1.0]))
MODEL = md.build_model("linear_jump_lq", {})


def _time_major(a, shape):
    assert a.shape == shape
    assert a.flags["C_CONTIGUOUS"]


def test_states_and_drivers_are_time_major():
    u = constant_strict(ACTIONS, K, 1)
    ens = simulate(MODEL, u, FAMILY, GRID, MARKS, P, 3, 1.0)
    _time_major(ens.states, (K + 1, S, P))
    _time_major(ens.drivers.dB, (K, S, P))
    _time_major(ens.drivers.counts, (K, 2, P))
    mu = uniform_relaxed(ACTIONS, K)
    tagged = ens.drivers.tagged_counts(mu)
    _time_major(tagged, (K, 2, 3, P))
    # signed, so the inverse jump factor's -count cannot wrap
    assert np.issubdtype(tagged.dtype, np.signedinteger)
    assert np.array_equal(tagged.sum(axis=2), ens.drivers.counts)


def test_flow_variational_and_triple_are_time_major():
    u = constant_strict(ACTIONS, K, 1)
    ens = simulate(MODEL, u, FAMILY, GRID, MARKS, P, 4, 1.0)
    spec = SpikeSpec(base=u, action_index=2, t0=0.25, width=0.125)
    pair = solve_fundamental(ens, spec)
    for a in (pair.phi, pair.psi, pair.eta):
        _time_major(a, (K + 1, S, P))
    _time_major(solve_variational(ens, spec).z, (K + 1, S, P))
    triple, rep = solve_adjoint(ens)
    _time_major(triple.p, (K + 1, S, P))
    _time_major(triple.q, (K, S, P))
    _time_major(triple.r, (K, S, P, 2))
    _time_major(triple.k, (K, S, P))
    _time_major(rep.y, (K + 1, S, P))


def test_one_control_ensemble_keeps_the_kernel_buffer():
    u = constant_strict(ACTIONS, K, 0)
    ens = simulate_with(MODEL, u, FAMILY, GRID, MARKS,
                        sample_drivers(FAMILY, GRID, MARKS, P, 5), 1.0)
    assert ens.states.base is not None and ens.states.base.shape == (K + 1, 1, S, P)

    drivers = ens.drivers
    controls = [u, constant_strict(ACTIONS, K, 2)]
    X = simulate_batch(MODEL, controls[:1], FAMILY, GRID, MARKS, drivers, 1.0)
    one = ensemble_from_batch(MODEL, u, FAMILY, GRID, MARKS, drivers, 1.0, X[:, 0])
    assert np.shares_memory(one.states, X)
    # a row of a larger batch is strided; it is copied so the batch can be freed
    X2 = simulate_batch(MODEL, controls, FAMILY, GRID, MARKS, drivers, 1.0)
    row = ensemble_from_batch(MODEL, u, FAMILY, GRID, MARKS, drivers, 1.0, X2[:, 0])
    assert not np.shares_memory(row.states, X2)
    _time_major(row.states, (K + 1, S, P))
    assert row.states.tobytes() == one.states.tobytes()


def test_relaxed_ensemble_keeps_the_kernels_tagged_counts(monkeypatch):
    calls = []
    build = Drivers.tagged_counts

    def counted(self, mu):
        calls.append(mu)
        return build(self, mu)

    monkeypatch.setattr(Drivers, "tagged_counts", counted)
    drivers = sample_drivers(FAMILY, GRID, MARKS, P, 6)
    mu = uniform_relaxed(ACTIONS, K)
    ens = simulate_with(MODEL, mu, FAMILY, GRID, MARKS, drivers, 1.0)
    assert calls == [mu]
    _time_major(ens.tagged_counts, (K, 2, 3, P))
    assert np.array_equal(ens.tagged_counts, build(drivers, mu))
    simulate_with(MODEL, mu, FAMILY, GRID, MARKS, drivers, 1.0)
    assert len(calls) == 2
