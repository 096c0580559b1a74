"""One array layout from the drivers to the adjoint triple: time first, C order.

Every dense per-step array the pipeline hands from one layer to the next
has the grid step on axis 0 and is C-contiguous, so a consumer reads a
step as one contiguous slice and no layer transposes. The sizes below
are pairwise distinct, so a swapped axis cannot pass.
"""

import dataclasses

import numpy as np
from dense_reference import dense_counts

from gcontrol import models as md
from gcontrol.adjoint import _adjoint_core, _finite_triple
from gcontrol.controls import ActionGrid, constant_strict, uniform_relaxed
from gcontrol.jumps import MarkSpace, sample_drivers
from gcontrol.scenarios import TimeGrid, VolatilityBounds, build_scenario_family
from gcontrol.sde import simulate, stream_batch
from gcontrol.variational import fundamental_steps

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
    ens = simulate(MODEL, u, sample_drivers(FAMILY, GRID, MARKS, P, 3), 1.0)
    _time_major(ens.states, (K + 1, S, P))
    d = ens.drivers
    _time_major(d.xi, (K, P))
    assert not d.xi.flags.writeable
    _time_major(d.step_dB(0), (S, P))
    tags = d.tags(uniform_relaxed(ACTIONS, K))
    stacked = np.stack([tags, d.tags(u)])
    dense, tagged = dense_counts(d), dense_counts(d, tags, 3)
    assert np.array_equal(tagged.sum(axis=2), dense)
    # a step's counts are event-path major: one row per event path, after
    # the control axis of a stack
    for k in range(K):
        paths, counts = d.event_counts(k)
        _time_major(counts, (paths.size, 2, 1))
        assert np.array_equal(counts[..., 0], dense[k][:, paths].T)
        _, one = d.event_counts(k, tags, 3)
        _time_major(one, (paths.size, 2, 3))
        assert np.array_equal(one, np.moveaxis(tagged[k][..., paths], -1, 0))
        _, both = d.event_counts(k, stacked, 3)
        _time_major(both, (2, paths.size, 2, 3))
        assert np.array_equal(both[0], one)
        # plain int64, signed, so the inverse jump factor's -count cannot wrap
        assert counts.dtype == one.dtype == both.dtype == np.int64


def test_flow_variational_and_triple_are_time_major():
    u = constant_strict(ACTIONS, K, 1)
    ens = simulate(MODEL, u, sample_drivers(FAMILY, GRID, MARKS, P, 4), 1.0)
    # the flow is handed on one step at a time, each step C-ordered
    for _, phi_k, psi_k in fundamental_steps(ens, need_inverse=True):
        _time_major(phi_k, (S, P))
        _time_major(psi_k, (S, P))
    steps = []

    def keep(core, j, phi_j, psi_j, fit_j):
        core.y[j] = fit_j
        steps.append(_finite_triple(core, j, ens.states[j], fit_j, psi_j))

    core = _adjoint_core(ens, 2, keep)
    _time_major(core.y, (K + 1, S, P))
    # so is the triple
    assert len(steps) == K
    for p, q, r in steps:
        _time_major(p, (S, P))
        _time_major(q, (S, P))
        _time_major(r, (S, P, 2))


def test_one_control_ensemble_owns_its_streamed_states():
    # a stored run is a reducer that copies each streamed step into an
    # array of its own: no view of a kernel buffer
    u = constant_strict(ACTIONS, K, 0)
    ens = simulate(MODEL, u, sample_drivers(FAMILY, GRID, MARKS, P, 5), 1.0)
    assert ens.states.base is None and ens.states.flags["OWNDATA"]
    _time_major(ens.states, (K + 1, S, P))
    rows = []
    stream_batch(MODEL, [u, constant_strict(ACTIONS, K, 2)], ens.drivers, 1.0,
                 lambda k, x: rows.append(x[0].tobytes()))
    assert rows == [ens.states[k].tobytes() for k in range(K + 1)]


def test_no_ensemble_holds_a_whole_run_count_array():
    # the events are the one jump representation: neither an ensemble nor
    # its drivers keep an integer array with a step axis and a path axis
    drivers = sample_drivers(FAMILY, GRID, MARKS, P, 6)
    for u in (constant_strict(ACTIONS, K, 1), uniform_relaxed(ACTIONS, K)):
        ens = simulate(MODEL, u, drivers, 1.0)
        held = [getattr(ens, f.name) for f in dataclasses.fields(ens)]
        held += [getattr(drivers, f.name) for f in dataclasses.fields(drivers)]
        counts = [a for a in held if isinstance(a, np.ndarray)
                  and np.issubdtype(a.dtype, np.integer) and a.ndim > 1]
        assert counts == []
