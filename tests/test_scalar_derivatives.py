"""A derivative that stays a float gives the bits of its full-array twin.

Every registry model returns its state-free derivatives as floats, and
the flow, the adjoint and the tables broadcast them only where they
index or store them. Each check runs a registry model and its
:func:`broadcast_twin` on the same seed and compares the raw bytes, so a
sign of zero counts too.
"""

import numpy as np
import pytest
from dense_reference import broadcast_twin
from oracles import bsde_residual, solve_variational, spike_eta, whole_flow, whole_triple

from gcontrol import models as md
from gcontrol.adjoint import _adjoint_core, bsde_stability_report, mp_check_relaxed
from gcontrol.controls import ActionGrid, StrictControl, embed_strict, uniform_relaxed
from gcontrol.jumps import MarkSpace, sample_drivers
from gcontrol.scenarios import TimeGrid, VolatilityBounds, build_scenario_family
from gcontrol.sde import simulate
from gcontrol.variational import spike_report

K = 16
ACTIONS = ActionGrid(np.array([-1.0, 0.0, 1.0]))
# three busy marks: at 200 paths every step has events of every mark
BUSY3 = MarkSpace(marks=np.array([-0.3, 0.2, 0.5]), intensities=np.array([40.0, 30.0, 20.0]))
TWO = MarkSpace(marks=np.array([-0.4, 0.6]), intensities=np.array([2.0, 1.5]))

# (model, params, marks); f1 = 0 with a negative mark makes f_x = f1 theta a
# negative zero, where the twin's full array holds positive zeros
CASES = {
    "zero": ("zero", {}, BUSY3),
    "constant_drift": ("constant_drift", {"sigma0": 0.3}, BUSY3),
    "linear_jump_lq": ("linear_jump_lq", {"c2": 0.3, "f2": 0.05, "h2": 0.1}, BUSY3),
    "linear_jump_lq-f1-zero": ("linear_jump_lq", {"f1": 0.0, "f2": 0.1, "x0": 0.0}, TWO),
    "bilinear": ("bilinear", {"s1": 0.2}, BUSY3),
}


def test_every_registry_model_has_a_case():
    assert {name for name, _, _ in CASES.values()} == set(md.MODEL_BUILDERS)


def _bits(v):
    v = np.asarray(v)
    return v.shape, v.dtype, v.tobytes()


def _setup(case, control):
    """The registry model, its twin, and the run arguments after the model."""
    name, params, marks = CASES[case]
    params = dict(params)
    x0 = params.pop("x0", 1.0)
    model = md.build_model(name, params)
    grid = TimeGrid(T=1.0, n_steps=K)
    fam = build_scenario_family(VolatilityBounds(1.0, 4.0), grid, "corners", blocks=2)
    strict = StrictControl(ACTIONS, np.array([0, 2, 1, 1] * (K // 4)))
    u = strict if control == "strict" else uniform_relaxed(ACTIONS, K)
    return model, broadcast_twin(model), (u, sample_drivers(fam, grid, marks, 200, 9), x0)


@pytest.mark.parametrize("control", ["strict", "uniform"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_flow_and_triple_match_the_broadcast_twin_bitwise(case, control):
    model, twin, args = _setup(case, control)
    ens, ens_t = (simulate(m, *args) for m in (model, twin))
    assert _bits(ens.states) == _bits(ens_t.states)

    pair, pair_t = whole_flow(ens), whole_flow(ens_t)
    for name in ("phi", "psi"):
        assert _bits(getattr(pair, name)) == _bits(getattr(pair_t, name)), name
    if control == "strict":
        k0 = K // 4  # t0 = 0.25
        assert _bits(solve_variational(ens, 2, k0)) == _bits(solve_variational(ens_t, 2, k0))
        eta, eta_t = (spike_eta(e, 2, k0, p.psi) for e, p in ((ens, pair), (ens_t, pair_t)))
        assert _bits(eta) == _bits(eta_t)
        # the report streams z and its formula's summands; repr tells -0.0 from 0.0
        u, drivers, x0 = args
        reports = [spike_report(m, u, 2, 0.25, [0.25, 0.125], drivers, x0) for m in (model, twin)]
        assert repr(reports[0]) == repr(reports[1])

    triple, triple_t = whole_triple(ens), whole_triple(ens_t)
    for name in ("p", "q", "r"):
        assert _bits(getattr(triple, name)) == _bits(getattr(triple_t, name)), name
    for name in ("y", "Q", "R", "S_t", "intercept", "cond_y", "cond_increment", "y_residual"):
        assert _bits(getattr(triple.core, name)) == _bits(getattr(triple_t.core, name)), name
    # the raw backward variable, whose step 0 is the terminal functional
    assert _bits(_adjoint_core(ens, 2).y) == _bits(_adjoint_core(ens_t, 2).y)
    assert _bits(bsde_residual(ens, triple)) == _bits(bsde_residual(ens_t, triple_t))


@pytest.mark.parametrize("control", ["strict", "uniform"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_tables_match_the_broadcast_twin_bitwise(case, control):
    model, twin, args = _setup(case, control)
    u, drivers, x0 = args
    tables = [mp_check_relaxed(simulate(m, *args), n_blocks=4) for m in (model, twin)]
    # repr keeps the sign of a zero, which == does not
    assert repr(tables[0].entries) == repr(tables[1].entries)
    assert repr(tables[0].health) == repr(tables[1].health)

    mu = embed_strict(u) if control == "strict" else u
    rows = [bsde_stability_report(m, mu, [2, 4], drivers, x0).rows
            for m in (model, twin)]
    assert repr(rows[0]) == repr(rows[1])
