import dataclasses
import hashlib

import numpy as np
import pytest
from oracles import inverse_defect, solve_variational, spike_eta, whole_flow

from gcontrol import models as md
from gcontrol import variational as vr
from gcontrol.adjoint import _adjoint_core
from gcontrol.controls import (
    ActionGrid,
    StrictControl,
    constant_strict,
    uniform_relaxed,
)
from gcontrol.experiments import run_document
from gcontrol.jumps import MarkSpace, sample_drivers
from gcontrol.scenarios import TimeGrid, VolatilityBounds, build_scenario_family
from gcontrol.sde import _first_nonfinite, simulate

MARKS = MarkSpace(marks=np.array([-0.4, 0.6]), intensities=np.array([0.7, 0.3]))
QUIET = MarkSpace(marks=np.array([1.0]), intensities=np.array([0.0]))


def _fam(lo, hi, grid):
    return build_scenario_family(VolatilityBounds(lo, hi), grid, "corners", blocks=1)


def _artifact(tmp_path, name, **doc):
    """The text of artifact ``name`` of a run of ``doc`` on a one-block corner family."""
    run_document({"scenarios": {"strategy": "corners", "blocks": 1}, **doc}, output_dir=tmp_path)
    return (tmp_path / name).read_text()


def _pure_control_drift_model(b2=0.5):
    # b = b2 u with every state derivative zero: the linearized flow is trivial
    params = dict(b1=0.0, b2=b2, s0=0.0, s1=0.0, c1=0.0, c2=0.0,
                  f1=0.0, f2=0.0, h1=0.0, h2=0.0, gq=1.0)
    return md.build_model("linear_jump_lq", params)


def test_z_zero_for_trivial_spike():
    grid = TimeGrid(T=1.0, n_steps=16)
    model = md.build_model("linear_jump_lq", {})
    ens = simulate(model, constant_strict(ActionGrid(np.array([0.0, 1.0])), 16, 1),
                   sample_drivers(_fam(1.0, 1.0, grid), grid, MARKS, 50, 11), 1.0)
    z = solve_variational(ens, 1, 4)
    assert np.all(z == 0.0)


def test_z_constant_when_derivatives_vanish():
    grid = TimeGrid(T=1.0, n_steps=16)
    model = _pure_control_drift_model(b2=0.5)
    actions = ActionGrid(np.array([0.0, 1.0]))
    ens = simulate(model, constant_strict(actions, 16, 0),
                   sample_drivers(_fam(1.0, 1.0, grid), grid, MARKS, 20, 12), 1.0)
    z = solve_variational(ens, 1, 4)
    assert np.all(z[:4] == 0.0)
    assert np.all(z[4:] == 0.5)  # b2 * (1 - 0)


def test_z_scales_linearly_in_the_impulse():
    grid = TimeGrid(T=1.0, n_steps=32)
    # b1 = 0 keeps the impulse an exact multiple of the spike height while
    # the state derivatives still drive a nontrivial linearized flow
    model = md.build_model("linear_jump_lq", dict(
        b1=0.0, b2=0.5, s0=0.3, s1=0.1, c1=0.1, c2=0.0,
        f1=0.1, f2=0.0, h1=0.0, h2=0.0, gq=1.0))
    actions = ActionGrid(np.array([0.0, 0.5, 1.0]))
    ens = simulate(model, constant_strict(actions, 32, 0),
                   sample_drivers(_fam(1.0, 1.0, grid), grid, MARKS, 50, 13), 1.0)
    half = solve_variational(ens, 1, 8)
    full = solve_variational(ens, 2, 8)
    assert full.tobytes() == (2.0 * half).tobytes()


def test_z_geometric_product_closed_form():
    # deterministic bilinear drift: z_T = z_{t0} (1 + theta dt)^m -> e^{theta (T - t0)}
    th0, th1, u0 = -0.2, 0.6, 0.2
    actions = ActionGrid(np.array([0.2, 0.9]))
    last = None
    for n in (100, 400, 1600):
        grid = TimeGrid(T=1.0, n_steps=n)
        model = md.build_model("bilinear", {"th0": th0, "th1": th1, "s1": 0.0, "gl": 1.0})
        ens = simulate(model, constant_strict(actions, n, 0),
                       sample_drivers(_fam(1.0, 1.0, grid), grid, QUIET, 2, 14), 1.0)
        k0 = n // 4  # t0 = 0.25
        z = solve_variational(ens, 1, k0)
        theta = th0 + th1 * u0
        x_t0 = ens.states[k0, 0, 0]
        z0 = th1 * (0.9 - 0.2) * x_t0
        m = n - k0
        product = z0 * (1.0 + theta * grid.dt) ** m
        assert z[-1, 0, 0] == pytest.approx(product, rel=1e-10)
        gap = abs(z[-1, 0, 0] - z0 * np.exp(theta * 0.75))
        if last is not None:
            assert gap < last
        last = gap


def test_fundamental_trivial_flow():
    grid = TimeGrid(T=1.0, n_steps=16)
    model = _pure_control_drift_model()
    actions = ActionGrid(np.array([0.0, 1.0]))
    ens = simulate(model, constant_strict(actions, 16, 0),
                   sample_drivers(_fam(1.0, 1.0, grid), grid, MARKS, 20, 15), 1.0)
    pair = whole_flow(ens)
    eta = spike_eta(ens, 1, 8, pair.psi)
    assert np.all(pair.phi == 1.0)
    assert np.all(pair.psi == 1.0)
    assert np.all(eta[:8] == 0.0)
    assert np.all(eta[8:] == 0.5)
    assert inverse_defect(pair) == 0.0


def test_fundamental_starts_at_identity():
    grid = TimeGrid(T=1.0, n_steps=32)
    model = md.build_model("linear_jump_lq", {})
    ens = simulate(model, constant_strict(ActionGrid(np.array([0.0, 1.0])), 32, 1),
                   sample_drivers(_fam(1.0, 1.0, grid), grid, MARKS, 30, 16), 1.0)
    steps = vr.fundamental_steps(ens, need_inverse=True)
    k, phi_0, psi_0 = next(steps)
    assert k == 0 and np.all(phi_0 == 1.0) and np.all(psi_0 == 1.0)
    assert phi_0.shape == psi_0.shape == ens.states.shape[1:]
    assert [k for k, _, _ in steps] == list(range(1, 33))
    # without the inverse, phi's steps are the same bits and psi is None
    pair = whole_flow(ens)
    for k, phi_k, psi_k in vr.fundamental_steps(ens, need_inverse=False):
        assert psi_k is None and phi_k.tobytes() == pair.phi[k].tobytes()


def test_inverse_defect_halves_with_dt():
    # with sigma_x = 0 the phi psi product drifts at first order in dt
    params = dict(b1=0.4, b2=0.0, s0=0.3, s1=0.0, c1=0.3, c2=0.0,
                  f1=0.2, f2=0.0, h1=0.0, h2=0.0, gq=0.5)
    model = md.build_model("linear_jump_lq", params)
    actions = ActionGrid(np.array([0.0, 1.0]))
    defects = []
    for n in (250, 500, 1000):
        grid = TimeGrid(T=1.0, n_steps=n)
        ens = simulate(model, constant_strict(actions, n, 0),
                       sample_drivers(_fam(1.0, 1.0, grid), grid, MARKS, 8, 17), 1.0)
        defects.append(inverse_defect(whole_flow(ens)))
    assert defects[0] < 5e-2
    for a, b in zip(defects, defects[1:]):
        assert 0.3 <= b / a <= 0.7


def test_z_matches_phi_eta_within_scheme_tolerance():
    grid = TimeGrid(T=1.0, n_steps=400)
    model = md.build_model("linear_jump_lq", dict(
        b1=0.3, b2=0.6, s0=0.4, s1=0.0, c1=0.2, c2=0.0,
        f1=0.15, f2=0.0, h1=0.4, h2=0.0, gq=0.6))
    actions = ActionGrid(np.array([0.0, 1.0]))
    ens = simulate(model, constant_strict(actions, 400, 0),
                   sample_drivers(_fam(1.5, 1.5, grid), grid, MARKS, 100, 18), 1.0)
    z = solve_variational(ens, 1, 100)
    pair = whole_flow(ens)
    defect = inverse_defect(pair)
    diff = np.abs(z - pair.phi * spike_eta(ens, 1, 100, pair.psi)).max()
    assert diff <= 3 * defect * max(1.0, np.abs(z).max())


def test_fundamental_rejects_near_singular_jumps():
    grid = TimeGrid(T=1.0, n_steps=16)
    model = md.build_model("linear_jump_lq", {"f1": 0.1})
    actions = ActionGrid(np.array([0.0, 1.0]))
    ens = simulate(model, constant_strict(actions, 16, 0),
                   sample_drivers(_fam(1.0, 1.0, grid), grid, MARKS, 20, 19), 1.0)
    broken = dataclasses.replace(model, f_x=lambda t, x, th, a: -1.0 + 0.0 * x)
    bad_ens = dataclasses.replace(ens, model=broken)
    with pytest.raises(ValueError, match="singular"):
        whole_flow(bad_ens)


# sha256 of the phi and psi bytes at K=16, P=64 with three marks, recorded
# while every derivative was still broadcast to the state's shape before
# the flow read it; the flow runs no BLAS, so the pins do not depend on its build
_FROZEN_FLOW = {
    "strict": ("66d716020a053a63f5188d203160b536a26f3524d971a5372c529014e7ccae1f",
               "49374f4907a666a41b2f4010e9eee3a1093e0ef404220d50828a883a7d6fc22e"),
    "uniform": ("6734473b7bbf9eb20d63cc2ab21a65e4a966ce95eb785a93e6c8f03cc270c8e2",
                "56652d0cf0c779e41ea1ab80a344b330cbe6a7de9edd645f4230bc88de0ab722"),
}


def _three_mark_ensemble(control):
    grid = TimeGrid(T=1.0, n_steps=16)
    fam = build_scenario_family(VolatilityBounds(1.0, 4.0), grid, "corners", blocks=2)
    actions = ActionGrid(np.array([-1.0, 0.0, 1.0]))
    marks = MarkSpace(marks=np.array([-0.3, 0.2, 0.5]), intensities=np.array([4.0, 3.0, 2.0]))
    model = md.build_model("linear_jump_lq", dict(
        b1=0.3, b2=0.6, s0=0.4, s1=0.2, c1=0.2, c2=0.3,
        f1=0.15, f2=0.05, h1=0.4, h2=0.1, gq=0.6))
    u = (StrictControl(actions, np.array([0, 2, 1, 1] * 4)) if control == "strict"
         else uniform_relaxed(actions, 16))
    return simulate(model, u, sample_drivers(fam, grid, marks, 64, 7), 1.0)


@pytest.mark.parametrize("control", sorted(_FROZEN_FLOW))
def test_fundamental_flow_digests_are_frozen(control):
    pair = whole_flow(_three_mark_ensemble(control))
    digests = tuple(hashlib.sha256(v.tobytes()).hexdigest() for v in (pair.phi, pair.psi))
    assert digests == _FROZEN_FLOW[control]


@pytest.mark.parametrize("field, value, where", [
    # every scenario's growth is 1e308 dt: phi squares past the float range at step 2
    ("b_x", 1e308, "step 2 under scenario 0"),
    # a growth of about 5e153 a: only the scenarios at a = 4 in the first
    # block overflow at step 2, and scenario 2 is the first of them
    ("gamma_x", 8e154, "step 2 under scenario 2"),
])
def test_overflowing_flow_names_step_and_scenario(field, value, where):
    ens = _three_mark_ensemble("strict")
    assert ens.family.values[:, 0].tolist() == [1.0, 1.0, 4.0, 4.0]
    huge = dataclasses.replace(ens, model=dataclasses.replace(ens.model, **{
        field: lambda t, x, a: value}))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError,
                           match=f"fundamental solutions are not finite: phi at {where}$"):
            whole_flow(huge)
        # the adjoint core streams the same flow and refuses at the same step
        with pytest.raises(FloatingPointError,
                           match=f"fundamental solutions are not finite: phi at {where}$"):
            _adjoint_core(huge, 2)


def test_spike_report_names_the_first_step_of_z_that_is_not_finite():
    # the base stays at x = 0 and every spike row is finite, but z grows
    # by about c1 a dt per step: under a = 4 (scenarios 2 and 3 in the
    # first block) it overflows four steps after the spike opens at step 4,
    # under a = 1 it does not
    ens = _three_mark_ensemble("strict")
    model = md.build_model("linear_jump_lq", dict(
        b1=0.0, b2=1.0, s0=0.0, s1=0.0, c1=8e77, c2=0.0,
        f1=0.0, f2=0.0, h1=0.0, h2=0.0, gq=1.0))
    base = constant_strict(ens.control.grid, 16, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        z = solve_variational(simulate(model, base, ens.drivers, 0.0), 2, 4)
        assert _first_nonfinite(z)[:2] == (8, 2)
        with pytest.raises(FloatingPointError,
                           match="^variational path is not finite at step 8 under scenario 2$"):
            vr.spike_report(model, base, 2, 0.25, [0.0625], ens.drivers, 0.0)


def test_spike_report_refuses_a_relaxed_control_before_any_work(monkeypatch):
    grid = TimeGrid(T=1.0, n_steps=16)
    model = md.build_model("linear_jump_lq", {})
    actions = ActionGrid(np.array([0.0, 1.0]))
    drivers = sample_drivers(_fam(1.0, 1.0, grid), grid, MARKS, 20, 20)
    # the base and its spikes enter the kernel as one batch through stream_costs
    streamed = []
    monkeypatch.setattr(vr, "stream_costs", lambda *args, **kw: streamed.append(args))
    with pytest.raises(ValueError, match="spike variations act on strict controls"):
        vr.spike_report(model, uniform_relaxed(actions, 16), 0, 0.25, [0.25], drivers, 1.0)
    assert streamed == []


def test_spike_report_refuses_a_spike_off_the_run_before_any_work(monkeypatch):
    grid = TimeGrid(T=1.0, n_steps=16)
    model = md.build_model("linear_jump_lq", {})
    actions = ActionGrid(np.array([0.0, 1.0]))
    drivers = sample_drivers(_fam(1.0, 1.0, grid), grid, MARKS, 20, 20)
    streamed = []
    monkeypatch.setattr(vr, "stream_costs", lambda *args, **kw: streamed.append(args))
    for action_index, t0, width, message in [
        # -1 would silently read the last action
        (-1, 0.25, 0.0625, "^index -1 outside the 2-action grid$"),
        (1, 1.0, 0.0625, "1.0 leaves no step before T = 1.0$"),
        (1, 0.875, 0.25, r"window \[t0, t0 \+ 0.25\) ends after T$"),
    ]:
        with pytest.raises(ValueError, match=message):
            vr.spike_report(model, constant_strict(actions, 16, 0), action_index, t0, [width],
                            drivers, 1.0)
    assert streamed == []


def test_spike_report_refuses_an_overflowing_slope_or_quotient():
    grid = TimeGrid(T=1.0, n_steps=16)
    family = build_scenario_family(VolatilityBounds(1.0, 4.0), grid, "corners", blocks=2)
    actions = ActionGrid(np.array([-1.0, 0.0, 1.0]))
    drivers = sample_drivers(family, grid, MARKS, 64, 5)
    base = constant_strict(actions, 16, 1)
    # both path costs are finite (~1e305), but the slope's stderr overflows
    model = md.build_model("linear_jump_lq", {"gq": 1e300, "c2": 1e3})
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            FloatingPointError,
            match=r"^non-finite finite-difference slope of width h=0.25 under scenario 3$"):
        vr.spike_report(model, base, 2, 0.25, [0.25], drivers, 1.0)
    # costs linear in x: every slope is finite, the squared quotient is not
    model = md.build_model("bilinear", {"s1": 0.0})
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            FloatingPointError,
            match=r"^non-finite quotient sup of width h=0.25 under scenario 0$"):
        vr.spike_report(model, base, 2, 0.25, [0.25, 0.125], drivers, 1e160)


def test_quotient_gap_zero_for_trivial_spike():
    grid = TimeGrid(T=1.0, n_steps=40)
    model = md.build_model("linear_jump_lq", {})
    actions = ActionGrid(np.array([0.0, 1.0]))
    _, rows = vr.spike_report(model, constant_strict(actions, 40, 1), 1, 0.25, [0.1, 0.05],
                              sample_drivers(_fam(1.0, 1.0, grid), grid, MARKS, 100, 21), 1.0)
    for row in rows:
        assert row.gap == 0.0


def test_quotient_gap_first_order_on_drift_only_model():
    grid = TimeGrid(T=1.0, n_steps=400)
    model = md.build_model("bilinear", {"th0": -0.2, "th1": 0.6, "s1": 0.0, "gl": 1.0})
    actions = ActionGrid(np.array([0.2, 0.9]))
    _, rows = vr.spike_report(model, constant_strict(actions, 400, 0), 1, 0.25, [0.1, 0.05, 0.025],
                              sample_drivers(_fam(1.0, 1.0, grid), grid, QUIET, 2, 22), 1.0)
    assert rows[0].gap / rows[1].gap >= 1.5
    assert rows[1].gap / rows[2].gap >= 1.5


def test_quotient_gap_nonincreasing_on_jump_model():
    grid = TimeGrid(T=1.0, n_steps=200)
    model = md.build_model("linear_jump_lq", dict(
        b1=0.25, b2=0.6, s0=0.35, s1=0.15, c1=0.15, c2=0.0,
        f1=0.15, f2=0.0, h1=0.3, h2=0.0, gq=0.5))
    actions = ActionGrid(np.array([0.0, 1.0]))
    _, rows = vr.spike_report(model, constant_strict(actions, 200, 0), 1, 0.25, [0.1, 0.05, 0.025],
                              sample_drivers(_fam(1.5, 1.5, grid), grid, MARKS, 1500, 23), 1.0)
    for a, b in zip(rows, rows[1:]):
        assert b.gap <= a.gap + 3 * (a.stderr + b.stderr)


def test_quotient_rejects_ascending_widths(monkeypatch):
    grid = TimeGrid(T=1.0, n_steps=40)
    model = md.build_model("linear_jump_lq", {})
    actions = ActionGrid(np.array([0.0, 1.0]))
    drivers = sample_drivers(_fam(1.0, 1.0, grid), grid, MARKS, 20, 24)
    streamed = []
    monkeypatch.setattr(vr, "stream_costs", lambda *args, **kw: streamed.append(args))
    for h_list, message in [
        ([0.05, 0.1], r"widths must be strictly descending, got \[0.05, 0.1\]"),
        # an empty list is refused before the base run and z, not by the batch
        ([], "a spike report needs at least one width"),
        # every window is checked before any kernel work
        ([0.1, 0.07], "0.07 is not a multiple of dt = 0.025"),
        ([1.0, 0.05], r"window \[t0, t0 \+ 1.0\) ends after T"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            vr.spike_report(model, constant_strict(actions, 40, 0), 1, 0.25, h_list, drivers, 1.0)
    assert streamed == []


def test_gateaux_trivial_spike_is_zero():
    grid = TimeGrid(T=1.0, n_steps=40)
    model = md.build_model("linear_jump_lq", {})
    actions = ActionGrid(np.array([0.0, 1.0]))
    rep, _ = vr.spike_report(model, constant_strict(actions, 40, 1), 1, 0.25, [0.1, 0.05],
                             sample_drivers(_fam(1.0, 1.0, grid), grid, MARKS, 100, 25), 1.0)
    assert rep.formula == 0.0
    for _, fd, _ in rep.rows:
        assert fd == 0.0


def test_gateaux_fd_agrees_with_formula():
    params = dict(b1=0.3, b2=0.6, s0=0.4, s1=0.2, c1=0.2, c2=0.4,
                  f1=0.15, f2=0.0, h1=0.4, h2=0.0, gq=0.6)
    model = md.build_model("linear_jump_lq", params)
    grid = TimeGrid(T=1.0, n_steps=200)
    actions = ActionGrid(np.array([0.0, 1.0]))
    rep, _ = vr.spike_report(model, constant_strict(actions, 200, 0), 1, 0.25, [0.1, 0.05, 0.025],
                             sample_drivers(_fam(1.5, 1.5, grid), grid, MARKS, 3000, 9), 1.0)
    h_min, fd, fd_se = rep.rows[-1]
    tol = max(0.1 * abs(rep.formula), 3 * np.hypot(fd_se, rep.formula_stderr))
    assert abs(fd - rep.formula) <= tol


def test_gateaux_fd_column_is_reproducible():
    model = md.build_model("linear_jump_lq", {})
    grid = TimeGrid(T=1.0, n_steps=40)
    actions = ActionGrid(np.array([0.0, 1.0]))
    kw = dict()
    r1, _ = vr.spike_report(model, constant_strict(actions, 40, 0), 1, 0.25, [0.1, 0.05],
                            sample_drivers(_fam(1.0, 4.0, grid), grid, MARKS, 300, 26), 1.0)
    r2, _ = vr.spike_report(model, constant_strict(actions, 40, 0), 1, 0.25, [0.1, 0.05],
                            sample_drivers(_fam(1.0, 4.0, grid), grid, MARKS, 300, 26), 1.0)
    assert r1.rows == r2.rows
    assert r1.formula == r2.formula


def test_gateaux_nonnegative_at_bruteforce_optimum():
    # drift-free quadratic terminal cost: pushing the state toward zero is
    # optimal, so spiking away from the optimizer cannot reduce the cost
    params = dict(b1=0.0, b2=0.0, s0=0.4, s1=0.0, c1=0.0, c2=0.5,
                  f1=0.0, f2=0.0, h1=0.0, h2=0.0, gq=0.5)
    model = md.build_model("linear_jump_lq", params)
    grid = TimeGrid(T=1.0, n_steps=32)
    actions = ActionGrid(np.array([-1.0, 1.0]))
    from gcontrol.costs import value_bruteforce

    cands = [constant_strict(actions, 32, 0), constant_strict(actions, 32, 1)]
    fam = _fam(1.0, 4.0, grid)
    drivers = sample_drivers(fam, grid, MARKS, 2000, 27)
    res = value_bruteforce(model, cands, drivers, 2.5)
    assert res.minimizer_index == 0  # steady -1 pulls x toward 0
    rep, _ = vr.spike_report(model, res.minimizer, 1, 0.25, [0.125, 0.0625], drivers, 2.5)
    _, fd, fd_se = rep.rows[-1]
    assert fd >= -3 * fd_se


def test_derivative_report_csv_layout(tmp_path):
    text = _artifact(tmp_path, "derivative.csv", kind="variational",
                     model={"name": "linear_jump_lq"}, grid={"T": 1.0, "n_steps": 40},
                     bounds={"sigma_low": 1.0, "sigma_high": 1.0},
                     marks={"values": [-0.4, 0.6], "intensities": [0.7, 0.3]},
                     actions=[0.0, 1.0], control={"type": "constant", "index": 0},
                     n_paths=100, seed=28, x0=1.0,
                     options={"action_index": 1, "t0": 0.25, "h_list": [0.1, 0.05]})
    lines = text.strip().split("\n")
    assert lines[0] == "h,FD,FD_stderr,FORMULA,FORMULA_stderr"
    assert len(lines) == 3
    assert lines[1].startswith("0.1,")
