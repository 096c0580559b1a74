import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from dense_reference import dense_counts, stacked_step_dB
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import bsde_residual, driver_lipschitz_audit, whole_flow, whole_triple

from gcontrol import adjoint as adj
from gcontrol import models as md
from gcontrol import variational
from gcontrol.adjoint import (
    bsde_stability_report,
    f_term,
    hamiltonian,
    mp_check_near,
    mp_check_relaxed,
    tail_summand,
    tail_weights,
)
from gcontrol.controls import (
    ActionGrid,
    RelaxedControl,
    StrictControl,
    chattering,
    constant_strict,
    embed_strict,
    uniform_relaxed,
)
from gcontrol.costs import evaluate_cost, value_bruteforce
from gcontrol.experiments import run_document
from gcontrol.jumps import Drivers, MarkSpace, sample_drivers
from gcontrol.models import _avg
from gcontrol.scenarios import (
    TimeGrid,
    VolatilityBounds,
    build_scenario_family,
    upper_expectation,
)
from gcontrol.sde import _batch_steps, simulate
from gcontrol.variational import _flow, fundamental_steps

MARKS = MarkSpace(marks=np.array([-0.4, 0.6]), intensities=np.array([0.7, 0.3]))
QUIET = MarkSpace(marks=np.array([1.0]), intensities=np.array([0.0]))
PM1 = ActionGrid(np.array([-1.0, 1.0]))


def _fam(lo, hi, grid):
    return build_scenario_family(VolatilityBounds(lo, hi), grid, "corners", blocks=1)


def _artifact(tmp_path, name, **doc):
    """The text of artifact ``name`` of a run of ``doc`` on a one-block corner family."""
    run_document({"scenarios": {"strategy": "corners", "blocks": 1}, **doc}, output_dir=tmp_path)
    return (tmp_path / name).read_text()


def _lq(**over):
    params = dict(b1=0.3, b2=0.6, s0=0.4, s1=0.2, c1=0.2, c2=0.0,
                  f1=0.15, f2=0.0, h1=0.4, h2=0.0, gq=0.6)
    params.update(over)
    return md.build_model("linear_jump_lq", params)


# volatility loading driven purely by the action, jump kick tiny
_GAMMA_PARAMS = dict(b1=0.0, b2=0.0, s0=0.4, s1=0.0, c1=0.0, c2=0.5, f1=0.0, f2=0.025,
                     h1=0.0, h2=0.0, gq=0.5)


def _gamma_control_model():
    return md.build_model("linear_jump_lq", _GAMMA_PARAMS)


# a config document of the gamma model on MARKS, PM1 and corners in [1, 4]
_GAMMA_DOC = {
    "model": {"name": "linear_jump_lq", "params": _GAMMA_PARAMS},
    "bounds": {"sigma_low": 1.0, "sigma_high": 4.0},
    "marks": {"values": [-0.4, 0.6], "intensities": [0.7, 0.3]},
    "actions": [-1.0, 1.0],
    "x0": 2.5,
}


def _deterministic_linear(theta=0.5):
    # dx = theta x dt with terminal cost x^2 / 2, so the costate has a
    # closed form along the (single, noiseless) trajectory
    return _lq(b1=theta, b2=0.0, s0=0.0, s1=0.0, c1=0.0, f1=0.0, h1=0.0, gq=0.5)


# ---------------------------------------------------------------------------
# Hamiltonian and volatility-channel term
# ---------------------------------------------------------------------------


def test_hamiltonian_literal_sum():
    base = md.build_model("zero", {})
    model = dataclasses.replace(
        base,
        h=lambda t, x, a: 1.0 + 0.0 * x,
        b=lambda t, x, a: 3.0 + 0.0 * x,
        f=lambda t, x, th, a: 2.0 + 0.0 * x,
    )
    marks = MarkSpace(marks=np.array([0.3]), intensities=np.array([0.5]))
    val = hamiltonian(model, marks, 0.0, 0.0, 0.7, 2.0, 0.0, np.array([1.0]))
    # 1 + 2*3 + 0 + 1*2*0.5
    assert float(val) == 8.0


def test_hamiltonian_zero_for_trivial_model():
    model = md.build_model("zero", {})
    x = np.linspace(-2.0, 2.0, 7)
    r = np.ones((7, 2))
    val = hamiltonian(model, MARKS, 0.3, x, 1.0, 5.0 + x, 2.0 - x, r)
    assert val.shape == x.shape
    assert np.all(val == 0.0)


def _tail_weight(grid, fam, k0, *, y, Q):
    # a flow of ones, unit diffusion loading, S_t = 0.7 everywhere
    ones = np.ones((1, 5))
    a_tab = fam.scalar_values()
    # q = psi (Q - y sx) with psi = 1
    summands = np.stack([tail_summand(ones, 1.0 * (Q - y * ones), ones, a_tab[:, k],
                                      np.full(1, 0.7), fam.bounds)
                         for k in range(grid.n_steps)])
    return tail_weights(summands, [k0], grid.dt)[0]


def test_f_term_vanishes_without_impulse():
    grid = TimeGrid(T=1.0, n_steps=8)
    fam = _fam(1.0, 1.0, grid)
    shape = (1, 5)
    zeros = np.zeros(shape)
    # raw variable 0 and loading 1 give a diffusion loading q = 1 on the tail
    weight = _tail_weight(grid, fam, 2, y=0.0, Q=1.0)
    assert weight.shape == shape and np.all(weight != 0.0)
    out = f_term(zeros, zeros, np.ones(shape), fam.scalar_values()[:, 2][:, None],
                 np.ones(shape), weight)
    assert out.shape == shape
    assert np.all(out == 0.0)


def test_f_term_single_scenario_cancellation():
    """With one constant scenario the second-order tail nets to zero.

    The generator maximum sits at the lone scenario, so S * a - 2 G is
    exactly zero there and only the instantaneous gamma coupling can
    contribute.
    """
    grid = TimeGrid(T=1.0, n_steps=8)
    fam = _fam(1.0, 1.0, grid)
    shape = (1, 5)
    a0 = fam.scalar_values()[:, 2][:, None]
    # zero diffusion loading: q = psi (Q - y sx) = 0
    weight = _tail_weight(grid, fam, 2, y=0.0, Q=0.0)
    assert np.all(weight == 0.0)
    # nonzero impulse, zero gamma response
    out = f_term(np.ones(shape), np.zeros(shape), np.ones(shape), a0, np.ones(shape), weight)
    assert np.all(out == 0.0)
    # gamma response alone reproduces the instantaneous term p * dgamma * a
    out2 = f_term(np.zeros(shape), np.full(shape, 0.25), np.full(shape, 2.0), a0,
                  np.ones(shape), weight)
    assert np.allclose(out2, 0.5)


# ---------------------------------------------------------------------------
# the adjoint triple
# ---------------------------------------------------------------------------


def test_constant_gradient_adjoint_is_exact():
    grid = TimeGrid(T=1.0, n_steps=12)
    model = md.build_model("zero", {})
    ens = simulate(model, constant_strict(PM1, 12, 1),
                   sample_drivers(_fam(1.0, 4.0, grid), grid, MARKS, 30, 4), 0.7)
    triple = whole_triple(ens)
    assert np.all(triple.p == 1.0)
    assert np.all(triple.q == 0.0)
    assert np.all(triple.r == 0.0)
    assert np.all(triple.core.y_residual == 0.0)
    assert np.max(bsde_residual(ens, triple)) <= 1e-12


def test_terminal_costate_matches_gradient_bitwise():
    grid = TimeGrid(T=1.0, n_steps=16)
    model = _lq()
    ens = simulate(model, constant_strict(PM1, 16, 1),
                   sample_drivers(_fam(1.0, 4.0, grid), grid, MARKS, 40, 7), 1.0)
    triple = whole_triple(ens)
    assert np.array_equal(triple.p[-1], model.g_x(ens.states[-1]))


def test_costate_tracks_linear_flow_closed_form():
    """dx = theta x dt, g = x^2/2: p_t = x_T exp(theta (T - t)) exactly."""
    theta = 0.5
    grid = TimeGrid(T=1.0, n_steps=1000)
    model = _deterministic_linear(theta)
    ens = simulate(model, constant_strict(PM1, 1000, 0),
                   sample_drivers(_fam(1.0, 1.0, grid), grid, QUIET, 3, 3), 1.0)
    triple = whole_triple(ens)
    x_T = ens.states[-1, 0, 0]
    expected = x_T * np.exp(theta * (grid.T - grid.times))
    rel = np.abs(triple.p[:, 0, 0] - expected) / np.abs(expected)
    assert rel.max() < 2e-2


def test_representation_reconstructs_terminal_functional():
    grid = TimeGrid(T=1.0, n_steps=16)
    model = _lq()
    ens = simulate(model, constant_strict(PM1, 16, 1),
                   sample_drivers(_fam(1.0, 4.0, grid), grid, MARKS, 40, 7), 1.0)
    # without the fit, the backward variable's step 0 is the raw terminal functional
    rep = adj._adjoint_core(ens, 2)
    pair = whole_flow(ens)
    x = ens.states
    manual = model.g_x(x[-1]) * pair.phi[-1]
    for k in range(16):
        tk = float(grid.times[k])
        manual = manual + model.h_x(tk, x[k], 1.0) * pair.phi[k] * grid.dt
    assert np.max(np.abs(manual - rep.y[0])) < 1e-10
    assert np.all(np.isfinite(rep.cond_y))
    assert np.all(np.isfinite(rep.cond_increment))


def test_residual_detects_costate_perturbation():
    # noiseless linear flow: shifting p by one adds (theta dt)^2 per step
    theta = 0.5
    grid = TimeGrid(T=1.0, n_steps=20)
    model = _deterministic_linear(theta)
    ens = simulate(model, constant_strict(PM1, 20, 0),
                   sample_drivers(_fam(1.0, 1.0, grid), grid, QUIET, 4, 3), 1.0)
    triple = whole_triple(ens)
    base = bsde_residual(ens, triple)
    shifted = SimpleNamespace(p=triple.p + 1.0, q=triple.q, r=triple.r)
    pert = bsde_residual(ens, shifted)
    bound = (theta * grid.dt) ** 2
    assert np.all(pert - base >= 0.999 * bound)


def test_richer_basis_tightens_state_fit():
    grid = TimeGrid(T=1.0, n_steps=48)
    model = _lq()
    mu = uniform_relaxed(PM1, 48)
    for seed in (5, 9, 13):
        ens = simulate(model, mu, sample_drivers(_fam(1.0, 4.0, grid), grid, MARKS, 1500, seed),
                       1.0)
        rep1, rep2 = (adj._adjoint_core(ens, degree) for degree in (1, 2))
        assert np.all(rep2.y_residual < rep1.y_residual)


def test_triple_steps_name_the_first_non_finite_step():
    grid = TimeGrid(T=1.0, n_steps=8)
    fam = build_scenario_family(VolatilityBounds(1.0, 4.0), grid, "corners", blocks=2)
    ens = simulate(_lq(), uniform_relaxed(PM1, 8), sample_drivers(fam, grid, MARKS, 30, 2), 1.0)
    seen = []

    def fold(core, j, phi_j, psi_j, fit_j):
        if j == 5:
            fit_j[2, 7] = np.inf
        adj._finite_triple(core, j, ens.states[j], fit_j, psi_j)
        seen.append(j)

    with pytest.raises(FloatingPointError,
                       match="component p is not finite at step 5 under scenario 2"):
        adj._adjoint_core(ens, 2, fold)
    assert seen == [0, 1, 2, 3, 4]


# the overflow of g_x is the point, so numpy's warning about it is not
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_backward_variable_names_step_and_scenario():
    # g_x = 2 gq x overflows at the terminal node, the first one the backward
    # pass forms; g and g_x stay finite on the derivative check's probe box
    grid = TimeGrid(T=1.0, n_steps=8)
    ens = simulate(_lq(gq=1e307), constant_strict(PM1, 8, 1),
                   sample_drivers(_fam(1.0, 4.0, grid), grid, QUIET, 4, 2), 10.0)
    with pytest.raises(FloatingPointError,
                       match="backward variable at step 8 under scenario 0"):
        adj._adjoint_core(ens, 2)


# ---------------------------------------------------------------------------
# agreement with the per-(scenario, step) reference scheme
# ---------------------------------------------------------------------------


def _path_major(a):
    """(K, ...) time-major array as a (..., K) view, the reference layout."""
    return np.moveaxis(a, 0, -1)


def _reference_flow(ens):
    """Dense fundamental flow: every path gets (1 + f_x)^count at every step.

    Computed path-major, (S, P, K+1), and returned time-major.
    """
    model, grid, marks = ens.model, ens.grid, ens.marks
    dt = grid.dt
    states = _path_major(ens.states)
    S, P, K1 = states.shape
    w, actions = ens.control.weights, ens.control.grid.actions
    a_tab = ens.family.scalar_values()
    dB = _path_major(stacked_step_dB(ens.drivers))
    relaxed = isinstance(ens.control, RelaxedControl)
    counts = (dense_counts(ens.drivers, ens.drivers.tags(ens.control), actions.size) if relaxed
              else dense_counts(ens.drivers))
    phi = np.ones((S, P, K1))
    psi = np.ones((S, P, K1))
    for k in range(K1 - 1):
        t = float(grid.times[k])
        x = states[:, :, k]
        a_k = a_tab[:, k][:, None]
        bx = _avg(model.b_x, t, x, w[k], actions)
        sx = np.asarray(model.sigma_x(t, x)) + np.zeros_like(x)
        gx = _avg(model.gamma_x, t, x, w[k], actions)
        comp = np.zeros_like(x)
        for i, th in enumerate(marks.marks):
            if marks.intensities[i] > 0.0:
                comp = comp + _avg(model.f_x, t, x, w[k], actions, theta=float(th)) * float(
                    marks.intensities[i])
        growth = 1.0 + bx * dt + gx * a_k * dt - comp * dt + sx * dB[:, :, k]
        igrowth = 1.0 - bx * dt - gx * a_k * dt + comp * dt + sx * sx * a_k * dt - sx * dB[:, :, k]
        mult = np.ones_like(x)
        imult = np.ones_like(x)
        for i, th in enumerate(marks.marks):
            if not relaxed:
                pairs = [(_avg(model.f_x, t, x, w[k], actions, theta=float(th)),
                          counts[k, i])]
            else:
                pairs = [(np.asarray(model.f_x(t, x, float(th), float(a))) + np.zeros_like(x),
                          counts[k, i, a_i]) for a_i, a in enumerate(actions)]
            for fx, c in pairs:
                if c.any():
                    mult = mult * (1.0 + fx) ** c[None, :]
                    imult = imult * (1.0 + fx) ** (-c)[None, :]
        phi[:, :, k + 1] = phi[:, :, k] * growth * mult
        psi[:, :, k + 1] = psi[:, :, k] * igrowth * imult
    return np.moveaxis(phi, -1, 0), np.moveaxis(psi, -1, 0)


def _reference_adjoint(ens, degree=2):
    """One lstsq plus one cond per (scenario, step), on full (S, P, K) arrays.

    The triple is returned time-major, like :func:`oracles.whole_triple`'s.
    """
    model, grid, marks = ens.model, ens.grid, ens.marks
    dt, K = grid.dt, grid.n_steps
    x = _path_major(ens.states)
    S, P = x.shape[:2]
    m = marks.n_marks
    phi, psi = (_path_major(a) for a in _reference_flow(ens))
    w, actions = ens.control.weights, ens.control.grid.actions
    sx = np.empty((S, P, K))
    hx = np.empty((S, P, K))
    fxb = np.empty((S, P, K, m))
    for k in range(K):
        t = float(grid.times[k])
        sx[:, :, k] = np.asarray(model.sigma_x(t, x[:, :, k])) + np.zeros_like(x[:, :, k])
        hx[:, :, k] = _avg(model.h_x, t, x[:, :, k], w[k], actions)
        for i in range(m):
            fxb[:, :, k, i] = _avg(model.f_x, t, x[:, :, k], w[k], actions,
                                   theta=float(marks.marks[i]))
    gx_term = np.asarray(model.g_x(x[:, :, K])) + np.zeros_like(x[:, :, K])
    targets = np.empty((S, P, K + 1))
    targets[:, :, K] = gx_term * phi[:, :, K]
    past = np.zeros((S, P, K + 1))
    for k in range(K - 1, -1, -1):
        targets[:, :, k] = targets[:, :, k + 1] + hx[:, :, k] * phi[:, :, k] * dt
    for k in range(K):
        past[:, :, k + 1] = past[:, :, k] + hx[:, :, k] * phi[:, :, k] * dt

    yhat = targets.copy()
    cond_y = np.ones((S, K))
    sq = np.zeros(S)
    for s in range(S):
        for k in range(K):
            xs, ys = x[s, :, k], targets[s, :, k]
            sd = float(xs.std())
            if sd < 1e-12:
                pred = np.full(P, float(ys.mean()))
            else:
                design = np.vander((xs - xs.mean()) / sd, degree + 1, increasing=True)
                coef = np.linalg.lstsq(design, ys, rcond=None)[0]
                pred = design @ coef
                cond_y[s, k] = np.linalg.cond(design)
            yhat[s, :, k] = pred
            sq[s] += ((ys - pred) ** 2).sum()

    mhat = yhat + past
    dB = _path_major(stacked_step_dB(ens.drivers))
    Q = np.zeros((S, K))
    R = np.zeros((S, K, m))
    c = np.zeros((S, K))
    cond_inc = np.ones((S, K))
    counts = dense_counts(ens.drivers)
    for s in range(S):
        for k in range(K):
            dn = counts[k].T - marks.intensities[None, :] * dt
            keep_b = float(dB[s, :, k].std()) > 1e-12
            keep_n = [i for i in range(m) if float(dn[:, i].std()) > 1e-12]
            cols = ([dB[s, :, k]] if keep_b else []) + [dn[:, i] for i in keep_n]
            design = np.column_stack(cols + [np.ones(P)])
            coef = np.linalg.lstsq(design, mhat[s, :, k + 1] - mhat[s, :, k], rcond=None)[0]
            Q[s, k] = coef[0] if keep_b else 0.0
            R[s, k, keep_n] = coef[int(keep_b):-1]
            c[s, k] = coef[-1]
            cond_inc[s, k] = np.linalg.cond(design)

    a_tab = ens.family.scalar_values()
    lo = ens.family.bounds.sigma_low
    hi = ens.family.bounds.sigma_high
    S_t = np.zeros((S, K))
    for s in range(S):
        for k in range(K):
            a = a_tab[s, k]
            if hi - lo <= 1e-12 or c[s, k] >= 0.0:
                continue
            if a < hi - 1e-12:
                S_t[s, k] = c[s, k] / ((a - hi) * dt)
            elif a > lo + 1e-12:
                S_t[s, k] = c[s, k] / ((a - lo) * dt)

    p = yhat * psi
    q = psi[:, :, :K] * (Q[:, None, :] - yhat[:, :, :K] * sx)
    inv = 1.0 / (1.0 + fxb)
    r = R[:, None, :, :] * psi[:, :, :K, None] * inv + p[:, :, :K, None] * (inv - 1.0)
    p[:, :, K] = gx_term
    return {"p": np.moveaxis(p, -1, 0), "q": np.moveaxis(q, -1, 0), "r": np.moveaxis(r, 2, 0),
            "Q": Q, "R": R, "S_t": S_t, "cond_y": cond_y,
            "cond_increment": cond_inc, "y_residual": np.sqrt(sq / (K * P)),
            "X": targets[:, :, 0], "intercept": c}


def _assert_agrees(new, ref, name):
    scale = float(np.max(np.abs(ref)))
    np.testing.assert_allclose(new, ref, rtol=1e-10, atol=1e-10 * scale, err_msg=name)


def _ensembles():
    grid = TimeGrid(T=1.0, n_steps=24)
    fam = build_scenario_family(VolatilityBounds(1.0, 4.0), grid, "corners", blocks=2)
    acts = ActionGrid(np.array([-1.0, 0.0, 1.0]))
    marks = MarkSpace(marks=np.array([-0.4, 0.6]), intensities=np.array([2.0, 1.5]))
    model = _lq(c2=0.3, f2=0.05, h2=0.1)
    lone = dataclasses.replace(fam, values=fam.values[:1])
    # sigma_low = 0: some scenarios have no Brownian increment on some steps
    flat = build_scenario_family(VolatilityBounds(0.0, 4.0), grid, "corners", blocks=2)
    drivers = sample_drivers(fam, grid, marks, 300, 5)
    return {
        "strict": simulate(model, constant_strict(acts, 24, 2), drivers, 1.0),
        "relaxed": simulate(model, uniform_relaxed(acts, 24), drivers, 1.0),
        "lone-quiet": simulate(model, constant_strict(acts, 24, 0),
                               sample_drivers(lone, grid, QUIET, 40, 8), 1.0),
        "zero-vol": simulate(model, constant_strict(acts, 24, 1),
                             sample_drivers(flat, grid, marks, 300, 6), 1.0),
    }


@pytest.mark.parametrize("case", ["strict", "relaxed", "lone-quiet", "zero-vol"])
def test_stacked_regressions_agree_with_reference(case):
    ens = _ensembles()[case]
    ref = _reference_adjoint(ens)
    triple = whole_triple(ens)
    rep = triple.core
    for name in ("p", "q", "r"):
        _assert_agrees(getattr(triple, name), ref[name], name)
    for name in ("Q", "R", "S_t", "cond_y", "cond_increment", "y_residual", "intercept"):
        _assert_agrees(getattr(rep, name), ref[name], name)
    _assert_agrees(adj._adjoint_core(ens, 2).y[0], ref["X"], "X")
    if case == "lone-quiet":
        # the never-firing mark is dropped at every step; its loading is exactly zero
        assert np.all(rep.R == 0.0)
    if case == "zero-vol":
        # scenarios without a Brownian increment drop the dB column on those steps
        assert np.any(rep.Q == 0.0) and np.any(rep.Q != 0.0)


@pytest.mark.parametrize("case", ["strict", "relaxed", "lone-quiet"])
def test_event_sparse_flow_matches_dense_reference_bitwise(case):
    ens = _ensembles()[case]
    phi, psi = _reference_flow(ens)
    pair = whole_flow(ens)
    assert np.array_equal(pair.phi, phi)
    assert np.array_equal(pair.psi, psi)


@pytest.mark.parametrize("relaxed", [False, True])
def test_jump_guard_raises_on_a_step_without_events(relaxed):
    # f_x = f1 theta = -1 at the silent mark: 1 + f_x vanishes although nothing fires
    grid = TimeGrid(T=1.0, n_steps=8)
    silent = MarkSpace(marks=np.array([-1.0]), intensities=np.array([0.0]))
    model = _lq(f1=1.0)
    control = uniform_relaxed(PM1, 8) if relaxed else constant_strict(PM1, 8, 0)
    ens = simulate(model, control, sample_drivers(_fam(1.0, 4.0, grid), grid, silent, 20, 3), 0.5)
    assert ens.drivers.n_events == 0
    with pytest.raises(ValueError, match="nearly singular at step 0, mark 0"):
        whole_flow(ens)


def test_jump_guard_reads_only_the_actions_of_nonzero_weight():
    # f = a x theta at the mark theta = -1: 1 + f_x = 1 - a vanishes at the action 1.0
    grid = TimeGrid(T=1.0, n_steps=8)
    mark = MarkSpace(marks=np.array([-1.0]), intensities=np.array([2.0]))
    model = dataclasses.replace(_lq(f1=0.0), f=lambda t, x, th, a: a * x * th,
                                f_x=lambda t, x, th, a: a * th)
    acts = ActionGrid(np.array([-1.0, 0.0, 1.0]))
    drivers = sample_drivers(_fam(1.0, 4.0, grid), grid, mark, 50, 3)
    assert drivers.n_events > 0
    # no weight on 1.0: never tagged with it, never in the compensator
    w = np.tile([0.25, 0.75, 0.0], (8, 1))
    pair = whole_flow(simulate(model, RelaxedControl(acts, w), drivers, 0.5))
    assert np.all(np.isfinite(pair.phi)) and np.all(np.isfinite(pair.psi))
    # weight on 1.0 at step 5 only: the guard refuses that step
    w = w.copy()
    w[5] = [0.25, 0.5, 0.25]
    with pytest.raises(ValueError, match="nearly singular at step 5, mark 0"):
        whole_flow(simulate(model, RelaxedControl(acts, w), drivers, 0.5))
    # a strict control's flow is its Dirac embedding's, bit for bit
    u = StrictControl(acts, np.array([0, 1, 0, 0, 1, 1, 0, 1]))
    strict, dirac = (whole_flow(simulate(model, c, drivers, 0.5))
                     for c in (u, embed_strict(u)))
    assert strict.phi.tobytes() == dirac.phi.tobytes()
    assert strict.psi.tobytes() == dirac.psi.tobytes()


def test_table_health_reports_the_regressions():
    grid = TimeGrid(T=1.0, n_steps=32)
    model = _gamma_control_model()
    fam = _fam(1.0, 4.0, grid)
    ens = simulate(model, constant_strict(PM1, 32, 0), sample_drivers(fam, grid, QUIET, 200, 11),
                   2.5)
    rep = mp_check_relaxed(ens, n_blocks=2)
    bsde = adj._adjoint_core(ens, 2)
    health = rep.health
    assert health["cond_y_max"] == float(bsde.cond_y.max())
    assert health["cond_y_median"] == float(np.median(bsde.cond_y))
    assert health["cond_increment_max"] == float(bsde.cond_increment.max())
    assert health["cond_increment_median"] == float(np.median(bsde.cond_increment))
    assert health["y_residual_max"] == float(bsde.y_residual.max())
    assert health["clamped_intercepts"] == int(np.count_nonzero(bsde.intercept > 0.0))
    # the silent mark's column is dropped at every (scenario, step)
    assert health["dropped_columns"] == fam.n_scenarios * 32
    assert health["svd_fallbacks"] == 0
    assert health["cond_y_max"] >= health["cond_y_median"] >= 1.0


def _state_stack():
    # rows: spread out, two-valued (z = +-1, so z**2 equals the ones column), constant, spread out
    rng = np.random.default_rng(4)
    n_paths = 60
    x = rng.normal(size=(4, n_paths))
    x[1] = np.arange(n_paths) % 2
    x[2] = 0.5
    y = rng.normal(size=(4, n_paths)) + x**2
    return x, y


def _increment_step():
    # scenario 1 has no Brownian increment; mark 1 is silent at this step
    rng = np.random.default_rng(7)
    n_scen, n_paths = 4, 500
    db = rng.normal(scale=0.2, size=(n_scen, n_paths))
    db[1] = 0.0
    counts = rng.poisson(0.1, size=(2, n_paths))
    counts[1] = 0
    dn = counts - np.array([[0.1], [0.0]])
    dm = 0.7 * db + 1.3 * dn[:1] - 0.02 + rng.normal(scale=0.05, size=(n_scen, n_paths))
    return dm, db, dn


def test_singular_state_gram_falls_back_to_min_norm_svd():
    x, y = _state_stack()
    fit, _, cond, rss, fallbacks = adj._regress_state(x, y, 2)
    assert fallbacks == 1
    z = (x[1] - x[1].mean()) / x[1].std()
    assert np.array_equal(z**2, np.ones_like(z))
    design = np.vander(z, 3, increasing=True)
    ref_coef, ref_cond = adj._svd_lstsq(design[None], y[1][None])
    np.testing.assert_allclose(ref_coef[0], np.linalg.lstsq(design, y[1], rcond=None)[0],
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(fit[1], design @ ref_coef[0], rtol=1e-12, atol=1e-12)
    assert cond[1] == ref_cond[0] and cond[1] > 1e4
    assert rss[1] == ((y[1] - fit[1]) ** 2).sum()
    # the constant row is the plain mean with condition number 1
    assert np.all(fit[2] == y[2].mean()) and cond[2] == 1.0


def _record_row(record, s):
    """Scenario s's entries of a :class:`~gcontrol.adjoint.StateFit` record, as bytes."""
    if record.flat[s]:
        return True, record.means[np.count_nonzero(record.flat[:s])].tobytes()
    i = np.count_nonzero(~record.flat[:s])
    return (False,) + tuple(v[i].tobytes() for v in (record.centre, record.sd, record.coef))


def test_state_fit_record_reevaluates_to_its_fit_bitwise():
    # a spread-out row, a row that falls back to the SVD, a flat row and a spread-out row
    x, y = _state_stack()
    fit, record, _, _, fallbacks = adj._regress_state(x, y, 2)
    assert fallbacks == 1
    assert record.flat.tolist() == [False, False, True, False]
    assert record.means.shape == (1,) and record.coef.shape == (3, 3)
    assert record.centre.shape == record.sd.shape == (3,)
    # the same state, in another buffer, gives the regression's own fit
    assert adj._evaluate_fit(record, x.copy()).tobytes() == fit.tobytes()
    # at another state the fit is the record's polynomial in the standardized state
    x2 = x + 0.25
    at = adj._evaluate_fit(record, x2)
    assert np.all(at[2] == y[2].mean())
    for i, s in enumerate((0, 1, 3)):
        z = (x2[s] - record.centre[i]) / record.sd[i]
        np.testing.assert_allclose(at[s], np.polynomial.polynomial.polyval(z, record.coef[i]),
                                   rtol=1e-12, atol=1e-12)


def test_singular_state_regressions_are_counted_in_the_health():
    # no Brownian term and one mark: the state after one step is two-valued
    grid = TimeGrid(T=1.0, n_steps=8)
    marks = MarkSpace(marks=np.array([0.5]), intensities=np.array([1.0]))
    model = _lq(s0=0.0, s1=0.0, c1=0.0, f1=0.5)
    fam = _fam(1.0, 4.0, grid)
    u = constant_strict(PM1, 8, 0)
    ens = simulate(model, u, sample_drivers(fam, grid, marks, 40, 3), 1.0)
    two_valued = sum(len(np.unique(ens.states[k, s])) == 2
                     for k in range(8) for s in range(fam.n_scenarios))
    assert two_valued >= fam.n_scenarios
    rep = mp_check_relaxed(ens, n_blocks=2)
    assert rep.health["svd_fallbacks"] >= two_valued
    assert all(np.isfinite(e.estimate) for e in rep.entries)


def test_increment_regression_matches_svd_reference_with_dropped_columns():
    dm, db, dn = _increment_step()
    q, r, c, cond, dropped, fallbacks = adj._regress_increment(dm, db, dn)
    assert fallbacks == 0
    assert dropped.tolist() == [1, 2, 1, 1]
    assert q[1] == 0.0 and np.all(r[:, 1] == 0.0)
    for s in range(dm.shape[0]):
        design = np.column_stack(([db[s]] if s != 1 else []) + [dn[0], np.ones(dm.shape[1])])
        coef = np.linalg.lstsq(design, dm[s], rcond=None)[0]
        np.testing.assert_allclose([q[s], r[s, 0], c[s]],
                                   [coef[0] if s != 1 else 0.0, coef[-2], coef[-1]],
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(cond[s], np.linalg.cond(design), rtol=1e-10)
    # at P=3, mark 1 fires once on every path: its column is constant and
    # dropped, as the silent mark 2's is
    rng = np.random.default_rng(3)
    db = rng.normal(scale=0.2, size=(2, 3))
    counts = np.array([[1, 0, 2], [1, 1, 1], [0, 0, 0]])
    dn = counts - np.array([[0.1], [0.3], [0.0]])
    dm = 0.7 * db + 1.3 * dn[:1] - 0.02 + rng.normal(scale=0.05, size=(2, 3))
    q, r, c, cond, dropped, fallbacks = adj._regress_increment(dm, db, dn)
    assert dropped.tolist() == [2, 2]
    assert np.all(r[:, 1:] == 0.0)
    for s in range(2):
        design = np.column_stack([db[s], dn[0], np.ones(3)])
        coef = np.linalg.lstsq(design, dm[s], rcond=None)[0]
        np.testing.assert_allclose([q[s], r[s, 0], c[s]], coef, rtol=1e-8, atol=1e-10)


def _collinear_marks(n_paths):
    # both marks fire on the same paths, so dn[1] = dn[0] - 0.2 lies in the span of dn[0] and 1
    counts = np.random.default_rng(9).poisson(0.1, size=n_paths)
    return np.stack([counts - 0.1, counts - 0.3])


def test_collinear_mark_columns_fall_back_to_min_norm_svd():
    dm, db, _ = _increment_step()
    dn = _collinear_marks(dm.shape[1])
    q, r, c, cond, dropped, fallbacks = adj._regress_increment(dm, db, dn)
    assert fallbacks == dm.shape[0]
    assert dropped.tolist() == [0, 1, 0, 0]
    for s in range(dm.shape[0]):
        design = np.column_stack(([db[s]] if s != 1 else []) + [dn[0], dn[1], np.ones(dm.shape[1])])
        coef = np.linalg.lstsq(design, dm[s], rcond=None)[0]
        np.testing.assert_allclose([q[s], r[s, 0], r[s, 1], c[s]],
                                   [coef[0] if s != 1 else 0.0, *coef[-3:]],
                                   rtol=1e-9, atol=1e-12)
        assert cond[s] > 1e4


def test_stacked_regressions_are_row_independent():
    # a scenario's fit and its fit record do not depend on the other
    # scenarios in its stack, bit for bit, whether it is solved from its
    # Gram matrix, by the SVD fallback or as a plain mean
    x, y = _state_stack()
    fit, record, *rest = adj._regress_state(x, y, 2)
    for s in range(x.shape[0]):
        fit_s, record_s, *rest_s = adj._regress_state(x[s:s + 1], y[s:s + 1], 2)
        for a, b in zip([fit] + rest[:2], [fit_s] + rest_s[:2]):
            assert a[s:s + 1].tobytes() == b.tobytes()
        assert _record_row(record, s) == _record_row(record_s, 0)
    dm, db, dn = _increment_step()
    for marks in (dn, _collinear_marks(dm.shape[1])):
        whole = adj._regress_increment(dm, db, marks)
        for s in range(dm.shape[0]):
            alone = adj._regress_increment(dm[s:s + 1], db[s:s + 1], marks)
            for a, b in zip(whole[:5], alone[:5]):
                assert a[s:s + 1].tobytes() == b.tobytes()



def _reference_horner(coef, z):
    """:func:`~gcontrol.adjoint._horner` as first written: a new array at every step."""
    val = np.broadcast_to(coef[:, -1:], z.shape)
    for i in range(coef.shape[1] - 2, -1, -1):
        val = val * z + coef[:, i:i + 1]
    return val if val.flags.writeable else val.copy()


@pytest.mark.parametrize("degree", range(5))
@settings(max_examples=40, deadline=None)
@given(n_rows=st.integers(1, 4), n_paths=st.integers(1, 30), seed=st.integers(0, 2**16),
       scale=st.sampled_from([1e-6, 1.0, 1e3, 1e100]))
def test_horner_in_place_keeps_its_reference_bits(degree, n_rows, n_paths, seed, scale):
    """In place, Horner's rule runs the same elementwise operations, so it keeps their bits.

    The largest scale overflows to inf, and to nan where infinities cancel.
    The result is a new writable array at every degree, degree 0 too.
    """
    rng = np.random.default_rng(seed)
    coef = rng.normal(size=(n_rows, degree + 1)) * scale
    z = rng.normal(size=(n_rows, n_paths)) * scale ** 0.5
    with np.errstate(over="ignore", invalid="ignore"):
        got = adj._horner(coef, z)
        want = _reference_horner(coef, z)
    assert got.shape == want.shape == z.shape and got.tobytes() == want.tobytes()
    assert got.flags.writeable
    assert not np.shares_memory(got, coef) and not np.shares_memory(got, z)


def _reference_regress_state(x, target, degree):
    """The state regression with ``x.std``, ``[live]`` copies and a new array per Horner step.

    This is the arithmetic as first written.
    """
    sd = x.std(axis=1)
    cond = np.ones(x.shape[0])
    fallbacks = 0
    flat = sd < adj._DEGENERATE_STD
    live = ~flat
    n = degree + 1
    centre = np.empty(0)
    coef = np.empty((0, n))
    pred = np.empty(x.shape)
    means = target[flat].mean(axis=1)
    pred[flat] = means[:, None]
    if live.any():
        xl, yl = x[live], target[live]
        centre = xl.mean(axis=1)
        z = (xl - centre[:, None]) / sd[live][:, None]
        power = np.empty((z.shape[0], 2 * degree + 1))
        rhs = np.empty((z.shape[0], n))
        power[:, 0] = z.shape[1]
        rhs[:, 0] = yl.sum(axis=1)
        zj = z
        for j in range(1, 2 * degree + 1):
            power[:, j] = zj.sum(axis=1)
            if j < n:
                rhs[:, j] = (zj * yl).sum(axis=1)
            if j < 2 * degree:
                zj = zj * z
        gram = power[:, np.add.outer(np.arange(n), np.arange(n))]

        def design(rows):
            return z[rows][:, :, None] ** np.arange(n), yl[rows]

        coef, cond[live], fallbacks = adj._solve_normal(gram, rhs, design)
        pred[live] = _reference_horner(coef, z)
    record = adj.StateFit(flat, means, centre, sd[live], coef)
    return pred, record, cond, ((target - pred) ** 2).sum(axis=1), fallbacks


_ROW_KINDS = ("spread", "flat", "outlier", "two-valued")


@settings(max_examples=150, deadline=None)
@given(kinds=st.lists(st.sampled_from(_ROW_KINDS), min_size=1, max_size=5),
       n_paths=st.integers(1, 40), degree=st.integers(0, 4), seed=st.integers(0, 2**16),
       scale=st.sampled_from([1e-9, 1e-3, 1.0, 1e4]),
       kick=st.sampled_from([1e-13, 1e-11, 1e-6, 1.0, 1e3]))
def test_state_regression_keeps_its_reference_bits(kinds, n_paths, degree, seed, scale, kick):
    """Deviations formed once, and no copies when every row is live, change no bit.

    Rows may be all degenerate (one path, or flat rows only), partly
    degenerate, two-valued (an SVD fallback) or a single outlier on a
    constant row, whose spread sits near the degeneracy threshold.
    """
    rng = np.random.default_rng(seed)
    x = np.empty((len(kinds), n_paths))
    for s, kind in enumerate(kinds):
        level = rng.normal()
        if kind == "spread":
            x[s] = level + scale * rng.normal(size=n_paths)
        elif kind == "two-valued":
            x[s] = level + scale * (np.arange(n_paths) % 2)
        else:
            x[s] = level
            if kind == "outlier":
                x[s, rng.integers(n_paths)] += kick
    y = rng.normal(size=x.shape) + x**2
    got = adj._regress_state(x, y, degree)
    want = _reference_regress_state(x, y, degree)
    # a reducer may write into the fit it is handed, at any degree
    assert got[0].flags.writeable
    for a, b in zip(got[:1] + got[2:4], want[:1] + want[2:4]):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got[4] == want[4]
    for a, b in zip(got[1], want[1]):
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert adj._evaluate_fit(got[1], x.copy()).tobytes() == got[0].tobytes()


# ---------------------------------------------------------------------------
# stationarity tables
# ---------------------------------------------------------------------------


def test_single_action_table_is_vacuous():
    grid = TimeGrid(T=1.0, n_steps=32)
    solo = ActionGrid(np.array([0.7]))
    ens = simulate(_lq(), constant_strict(solo, 32, 0),
                   sample_drivers(_fam(1.0, 4.0, grid), grid, MARKS, 60, 11), 1.0)
    rep = mp_check_relaxed(ens, n_blocks=4)
    assert rep.verdict
    assert len(rep.entries) == 4
    for e in rep.entries:
        assert e.estimate == 0.0 and e.stderr == 0.0 and e.passed


def test_optimum_passes_stationarity_table():
    grid = TimeGrid(T=1.0, n_steps=64)
    model = _gamma_control_model()
    marks = MarkSpace(marks=np.array([-0.5, 0.6]), intensities=np.array([0.8, 0.4]))
    fam = _fam(1.0, 4.0, grid)
    search = value_bruteforce(model, [constant_strict(PM1, 64, 0), constant_strict(PM1, 64, 1)],
                              sample_drivers(fam, grid, marks, 400, 21), 2.5)
    assert search.minimizer_index == 0
    ens = simulate(model, constant_strict(PM1, 64, 0), sample_drivers(fam, grid, marks, 1500, 21),
                   2.5)
    rep = mp_check_relaxed(ens, n_blocks=2)
    assert rep.verdict
    assert rep.hypothesis == "b = 0 and h = 0: stationarity guarantee applies"
    assert rep.summary()["verdict"] == "pass"
    for e in rep.entries:
        if e.action == -1.0:
            # the control's own atom contributes an exactly zero entry
            assert e.estimate == 0.0 and e.stderr == 0.0
        else:
            assert 1.5 < e.estimate < 2.5
            assert 0.0 < e.stderr < 0.05


def test_suboptimal_control_flagged_with_witness():
    grid = TimeGrid(T=1.0, n_steps=64)
    model = _gamma_control_model()
    marks = MarkSpace(marks=np.array([-0.5, 0.6]), intensities=np.array([0.8, 0.4]))
    ens = simulate(model, constant_strict(PM1, 64, 1),
                   sample_drivers(_fam(1.0, 4.0, grid), grid, marks, 1500, 21), 2.5)
    rep = mp_check_relaxed(ens, n_blocks=2)
    assert not rep.verdict
    out = rep.summary()
    assert out["verdict"] == "fail"
    assert out["worst_action"] == -1.0
    assert out["worst_entry"] < -2.5
    for e in rep.entries:
        if e.action == -1.0:
            assert not e.passed and e.estimate < -2.5


# three busy marks: at 400 paths every step has events of every mark
BUSY3 = MarkSpace(marks=np.array([-0.3, 0.2, 0.5]), intensities=np.array([40.0, 30.0, 20.0]))
_VARYING = np.array([0, 1, 1, 0, 1, 0] * 8)


@pytest.mark.parametrize("marks", [MARKS, BUSY3], ids=["two-marks", "busy-three-marks"])
@pytest.mark.parametrize("indices", [np.full(48, 1), _VARYING], ids=["constant", "indices"])
def test_embedding_reproduces_strict_table_bitwise(indices, marks):
    # the strict table runs on the strict run (the strict kernel, the flow
    # on the played indices as tags); the Dirac embedding runs the relaxed path
    grid = TimeGrid(T=1.0, n_steps=48)
    model = _lq(c2=0.3, f2=0.05, h2=0.1)
    fam = _fam(1.0, 4.0, grid)
    u = StrictControl(PM1, indices)

    drivers = sample_drivers(fam, grid, marks, 400, 9)
    ens_u = simulate(model, u, drivers, 1.0)
    ens_e = simulate(model, embed_strict(u), drivers, 1.0)
    assert isinstance(ens_u.control, StrictControl) and isinstance(ens_e.control, RelaxedControl)
    tri_u, tri_e = whole_triple(ens_u), whole_triple(ens_e)
    assert np.array_equal(tri_u.p, tri_e.p)
    assert np.array_equal(tri_u.q, tri_e.q)
    assert np.array_equal(tri_u.r, tri_e.r)

    rep_u = mp_check_relaxed(ens_u, n_blocks=4)
    rep_e = mp_check_relaxed(ens_e, n_blocks=4)
    assert rep_u.entries == rep_e.entries
    assert rep_u.verdict == rep_e.verdict
    assert rep_u.health == rep_e.health


def test_strict_tables_tag_events_with_the_played_indices(monkeypatch):
    # the flow reads every control through its events' tags; a strict
    # control's one-hot weights tag each event with the index it plays at
    # the event's step, whatever the event's uniform
    grid = TimeGrid(T=1.0, n_steps=32)
    model = _gamma_control_model()
    fam = _fam(1.0, 4.0, grid)
    u = StrictControl(PM1, np.tile([1, 0, 0, 1], 8))
    calls = []
    original = Drivers.tags

    def counted(self, mu):
        tags = original(self, mu)
        calls.append((mu, tags))
        return tags

    monkeypatch.setattr(Drivers, "tags", counted)
    drivers = sample_drivers(fam, grid, MARKS, 200, 21)
    assert drivers.n_events > 0
    mp_check_relaxed(simulate(model, u, drivers, 2.5), n_blocks=4)
    mp_check_near(model, u, [constant_strict(PM1, 32, 0)], 1.0, drivers, 2.5, n_blocks=4)
    # each table's adjoint core streams the flow twice, and each pass tags the events
    assert len(calls) == 4
    for mu, tags in calls:
        assert mu is u
        assert np.array_equal(tags, u.indices[drivers.step])


def test_near_check_zero_epsilon_matches_strict():
    grid = TimeGrid(T=1.0, n_steps=64)
    model = _gamma_control_model()
    marks = MarkSpace(marks=np.array([-0.5, 0.6]), intensities=np.array([0.8, 0.4]))
    fam = _fam(1.0, 4.0, grid)
    u = constant_strict(PM1, 64, 0)
    drivers = sample_drivers(fam, grid, marks, 400, 21)
    strict = mp_check_relaxed(simulate(model, u, drivers, 2.5), n_blocks=2)
    near = mp_check_near(model, u, [], 5.0, drivers, 2.5, epsilon_n=0.0, n_blocks=2,
                         add_block_spikes=False)
    assert near.mp.entries == strict.entries
    assert near.mp.extra_slack == 0.0
    assert near.C_min == 0.0
    assert near.n_candidates == 0


def test_near_table_equals_a_resimulated_table():
    # the table rides u_n's row of the strict cost batch; simulating the
    # Dirac embedding afresh on the same seed gives the same entries
    grid = TimeGrid(T=1.0, n_steps=32)
    model = _gamma_control_model()
    marks = MarkSpace(marks=np.array([-0.5, 0.6]), intensities=np.array([0.8, 0.4]))
    fam = _fam(1.0, 4.0, grid)
    u = constant_strict(PM1, 32, 1)
    drivers = sample_drivers(fam, grid, marks, 300, 21)
    near = mp_check_near(model, u, [constant_strict(PM1, 32, 0)], 1.0, drivers, 2.5, n_blocks=4)
    assert near.mp.extra_slack > 0.0
    fresh = mp_check_relaxed(simulate(model, embed_strict(u), drivers, 2.5), n_blocks=4,
                             extra_slack=near.mp.extra_slack)
    assert near.mp.entries == fresh.entries
    assert near.mp.health == fresh.health


def test_near_check_allowance_rescues_chattering():
    """A coarse chattering approximation fails the strict table but passes
    once the allowance proportional to its improvement rate is granted."""
    grid = TimeGrid(T=1.0, n_steps=256)
    model = _lq(b1=0.0, b2=0.0, s0=0.5, s1=0.0, c1=0.0, c2=0.8,
                f1=0.0, h1=0.6, gq=0.3)
    marks = MarkSpace(marks=np.array([-0.4, 0.6]), intensities=np.array([0.3, 0.2]))
    fam = _fam(1.0, 1.0, grid)
    u4 = chattering(uniform_relaxed(PM1, 256), 4)
    eps = 0.096

    drivers = sample_drivers(fam, grid, marks, 2000, 44)
    bare = mp_check_near(model, u4, [], 0.0, drivers, 0.0, epsilon_n=eps, n_blocks=4,
                         add_block_spikes=False)
    assert not bare.mp.verdict
    failing = [e for e in bare.mp.entries if not e.passed]
    assert len(failing) == 2
    assert all(e.action == 1.0 for e in failing)
    assert 0.1 < bare.C_min < 1.0
    assert bare.jepsilon_ok

    rescued = mp_check_near(model, u4, [], 1.05 * bare.C_min, drivers, 0.0, epsilon_n=eps,
                            n_blocks=4, add_block_spikes=False)
    assert rescued.mp.verdict
    assert rescued.mp.extra_slack == pytest.approx(1.05 * bare.C_min * eps)


def test_near_check_measures_improvement_rate():
    grid = TimeGrid(T=1.0, n_steps=32)
    model = _gamma_control_model()
    marks = MarkSpace(marks=np.array([-0.5, 0.6]), intensities=np.array([0.8, 0.4]))
    fam = _fam(1.0, 4.0, grid)
    rep = mp_check_near(model, constant_strict(PM1, 32, 1), [constant_strict(PM1, 32, 0)], 1.0,
                        sample_drivers(fam, grid, marks, 400, 21), 2.5, n_blocks=4)
    # one explicit candidate plus a one-step spike per block
    assert rep.n_candidates == 5
    assert rep.epsilon_n > 0.0
    assert rep.jepsilon_ok
    assert rep.mp.extra_slack == pytest.approx(rep.epsilon_n)


def test_mixture_beats_atoms_and_passes():
    grid = TimeGrid(T=1.0, n_steps=64)
    model = _lq(b1=0.0, b2=0.0, s0=0.5, s1=0.0, c1=0.0, c2=0.8,
                f1=0.0, h1=0.0, gq=1.0)
    marks = MarkSpace(marks=np.array([-0.4, 0.6]), intensities=np.array([0.3, 0.2]))
    fam = _fam(1.0, 1.0, grid)
    mu = uniform_relaxed(PM1, 64)

    drivers = sample_drivers(fam, grid, marks, 1500, 33)
    j_mu = evaluate_cost(model, mu, drivers, 0.0)
    j_lo = evaluate_cost(model, constant_strict(PM1, 64, 0), drivers, 0.0)
    j_hi = evaluate_cost(model, constant_strict(PM1, 64, 1), drivers, 0.0)
    margin = 3 * (j_mu.scenario_stderrs.max() + j_lo.scenario_stderrs.max())
    assert j_mu.upper_value < min(j_lo.upper_value, j_hi.upper_value) - margin

    # over the 5-point simplex ladder the even mixture is the minimizer
    ladder = [RelaxedControl(grid=PM1, weights=np.tile([1.0 - w, w], (64, 1)))
              for w in (0.0, 0.25, 0.5, 0.75, 1.0)]
    search = value_bruteforce(model, ladder, sample_drivers(fam, grid, marks, 1200, 33), 0.0)
    assert search.minimizer_index == 2

    rep = mp_check_relaxed(simulate(model, mu, drivers, 0.0), n_blocks=2)
    assert rep.verdict

    dirac = mp_check_relaxed(simulate(model, embed_strict(constant_strict(PM1, 64, 1)), drivers,
                                      0.0), n_blocks=2)
    assert not dirac.verdict
    assert dirac.summary()["worst_entry"] < -2.0


# ---------------------------------------------------------------------------
# stability ladder and driver audit
# ---------------------------------------------------------------------------


def test_stability_gaps_vanish_for_embedded_dirac():
    grid = TimeGrid(T=1.0, n_steps=32)
    model = _gamma_control_model()
    mu = embed_strict(constant_strict(PM1, 32, 0))
    rep = bsde_stability_report(model, mu, [1, 2, 4],
                                sample_drivers(_fam(1.0, 4.0, grid), grid, MARKS, 200, 17), 2.5)
    for row in rep.rows:
        assert row.p_gap == 0.0 and row.q_gap == 0.0 and row.r_gap == 0.0
        assert row.k_gap == 0.0
    assert rep.p_nonincreasing and rep.q_nonincreasing and rep.r_nonincreasing


def test_stability_gaps_shrink_along_ladder():
    grid = TimeGrid(T=1.0, n_steps=256)
    model = _lq(b1=0.15, b2=0.4, s0=0.3, s1=0.1, c1=0.1, c2=0.2, f1=0.2,
                h1=0.3, h2=0.2, gq=0.5)
    mu = uniform_relaxed(PM1, 256)
    rep = bsde_stability_report(model, mu, [4, 16, 64],
                                sample_drivers(_fam(1.0, 2.25, grid), grid, MARKS, 500, 55), 1.0)
    assert rep.p_nonincreasing and rep.q_nonincreasing and rep.r_nonincreasing
    assert [row.n for row in rep.rows] == [4, 16, 64]
    assert rep.rows[0].p_gap > rep.rows[-1].p_gap
    assert all(row.k_gap == 0.0 for row in rep.rows)


BUSY = MarkSpace(marks=np.array([-0.4, 0.6]), intensities=np.array([2.0, 1.5]))
BUSY_SILENT = MarkSpace(marks=np.array([-0.4, 0.6, 0.9]), intensities=np.array([2.0, 1.5, 0.0]))
# seven, eight and nine marks: numpy sums eight or more entries along an axis
# pairwise, and fewer in order, which the report's mark-wise r gap repeats
SEVEN, EIGHT, NINE = (MarkSpace(marks=np.linspace(-0.4, 0.8, m),
                                intensities=np.linspace(0.2, 1.8, m)) for m in (7, 8, 9))


@pytest.mark.parametrize("n_marks", range(1, 13))
@settings(max_examples=30, deadline=None)
@given(n_scen=st.integers(1, 4), n_paths=st.integers(1, 40), seed=st.integers(0, 2**16),
       silent=st.booleans(), zeros=st.booleans(), overflow=st.booleans())
def test_mark_wise_r_gap_keeps_the_reduction_bits(n_marks, n_scen, n_paths, seed, silent, zeros,
                                                  overflow):
    """The nu-weighted mark sum of squared r differences is numpy's reduction, bit for bit.

    Below eight marks it is formed mark by mark, from eight up by the
    reduction itself. Magnitudes span sixteen decades; a silent mark has
    ``nu = 0``, some differences are zero of either sign, and a square that
    overflows is inf, or nan at a silent mark.
    """
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(n_scen, n_paths, n_marks)) * 10.0 ** rng.integers(-8, 8, size=(
        n_scen, n_paths, n_marks))
    nus = rng.uniform(0.0, 3.0, n_marks)
    if silent:
        nus[rng.integers(n_marks)] = 0.0
    if zeros:
        d[rng.random(d.shape) < 0.3] = 0.0
        d[rng.random(d.shape) < 0.1] = -0.0
    if overflow:
        d.flat[rng.integers(d.size)] = 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.multiply(np.square(d), nus).sum(axis=2)
        got = adj._nu_weighted_mark_sum(np.square(d), nus)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _stability_by_whole_arrays(model, mu, n_list, drivers, x0):
    """Stability rows from whole triples, the arithmetic the report streams."""
    dt = drivers.grid.dt
    tri_mu = whole_triple(simulate(model, mu, drivers, x0))
    rows = []
    for n in n_list:
        tri_n = whole_triple(simulate(model, chattering(mu, n), drivers, x0))
        p_dev = np.abs(tri_n.p - tri_mu.p).max(axis=0) ** 2
        q_dev = ((tri_n.q - tri_mu.q) ** 2).sum(axis=0) * dt
        r_dev = (((tri_n.r - tri_mu.r) ** 2) * drivers.marks.intensities).sum(axis=(0, 3)) * dt
        ums = [upper_expectation(list(dev)) for dev in (p_dev, q_dev, r_dev)]
        rows.append((n,) + tuple(float(v) for um in ums for v in (um.value, um.stderr))
                    + (0.0,))
    return rows


def _sine(model):
    """``model`` with ``sin(x)`` terms in b, sigma and f, so b_x, sigma_x and f_x read the state."""
    m = model
    return dataclasses.replace(
        m,
        b=lambda t, x, a: m.b(t, x, a) + 0.3 * np.sin(x),
        b_x=lambda t, x, a: m.b_x(t, x, a) + 0.3 * np.cos(x),
        sigma=lambda t, x: m.sigma(t, x) + 0.2 * np.sin(x),
        sigma_x=lambda t, x: m.sigma_x(t, x) + 0.2 * np.cos(x),
        f=lambda t, x, th, a: m.f(t, x, th, a) + 0.1 * np.sin(x) * th,
        f_x=lambda t, x, th, a: m.f_x(t, x, th, a) + 0.1 * np.cos(x) * th,
    )


@pytest.mark.parametrize("case", ["uniform-busy", "uniform-silent", "weighted-silent",
                                  "dirac-silent", "uniform-seven", "uniform-eight",
                                  "uniform-nine", "uniform-sine", "flat-scenario"])
def test_streamed_stability_rows_equal_whole_array_gaps_bitwise(case):
    """The streamed rows are the whole-array rows, bit for bit.

    The relaxed control's states are replayed beside each rung, not
    stored, and its fit is evaluated from each step's record at the
    replayed state. Every registry derivative is constant in the state,
    so only the ``sin(x)`` case lets a replayed state reach the relaxed
    control's flow and triple beyond its fit. In the ``flat-scenario``
    case scenario 0 has no volatility and no mark fires, so its state is
    deterministic at every step and its fit takes the flat branch beside
    live scenarios.
    """
    grid = TimeGrid(T=1.0, n_steps=32)
    lo = 0.0 if case == "flat-scenario" else 1.0
    fam = build_scenario_family(VolatilityBounds(lo, 4.0), grid, "corners", blocks=2)
    acts = ActionGrid(np.array([-1.0, 0.0, 1.0]))
    model = _lq(c2=0.3, f2=0.05, h2=0.1)
    if case == "uniform-sine":
        model = _sine(model)
    marks = {"uniform-busy": BUSY, "uniform-seven": SEVEN, "uniform-eight": EIGHT,
             "uniform-nine": NINE, "uniform-sine": BUSY,
             "flat-scenario": QUIET}.get(case, BUSY_SILENT)
    if case == "weighted-silent":
        w = np.linspace(0.1, 0.9, 32)[:, None] * np.array([0.5, 0.0, 0.5])
        mu = RelaxedControl(acts, w + (1.0 - w.sum(axis=1))[:, None] * np.array([0, 1, 0]))
    elif case == "dirac-silent":
        mu = embed_strict(constant_strict(acts, 32, 2))
    else:
        mu = uniform_relaxed(acts, 32)
    args = (model, mu, [2, 4, 8], sample_drivers(fam, grid, marks, 300, 19), 1.0)
    rep = bsde_stability_report(*args)
    expected = _stability_by_whole_arrays(*args)
    assert [tuple(row) for row in rep.rows] == expected
    if case == "dirac-silent":
        assert all(row[1:] == (0.0,) * 7 for row in expected)
    elif case == "flat-scenario":
        # scenario 0's fit is a plain mean at every step, beside live scenarios
        fits = adj._adjoint_core(simulate(model, mu, args[3], 1.0), 2).fits
        assert all(fit.flat[0] for fit in fits) and not fits[-1].flat[1:].any()
        assert all(row[1] > 0.0 and row[3] > 0.0 and row[5:] == (0.0,) * 3 for row in expected)
    else:
        assert all(row[1] > 0.0 and row[3] > 0.0 and row[5] > 0.0 for row in expected)


@pytest.mark.parametrize("kind", ["uniform", "strict"])
def test_two_flow_passes_yield_the_same_bits(kind):
    """The flow is a function of the states and the drivers: another pass repeats it.

    :func:`bsde_stability_report` streams the relaxed control's ``psi``
    again beside each rung instead of storing it, along states replayed
    by the kernel, which is exact only if every pass yields the same
    bits. ``f_x`` depends on the action, so a relaxed control's jump
    factors are read through ``Drivers.tags``, and on the state, so a
    replayed state that is a step off changes them. A pass that forms
    ``psi`` alone, as each rung's replay does, yields the same ``psi``.
    """
    grid = TimeGrid(T=1.0, n_steps=32)
    model = dataclasses.replace(
        _lq(f1=0.0), f=lambda t, x, th, a: ((0.15 + 0.2 * a) * x + 0.1 * np.sin(x)) * th,
        f_x=lambda t, x, th, a: (0.15 + 0.2 * a + 0.1 * np.cos(x)) * th)
    u = uniform_relaxed(PM1, 32) if kind == "uniform" else constant_strict(PM1, 32, 1)
    ens = simulate(model, u, sample_drivers(_fam(1.0, 4.0, grid), grid, MARKS, 200, 3), 1.0)
    assert ens.drivers.n_events > 0
    first = [(k, phi_k.copy(), psi_k.copy())
             for k, phi_k, psi_k in fundamental_steps(ens, need_inverse=True)]
    assert [k for k, _, _ in first] == list(range(33))
    # the second pass is read as it is yielded: each step lives in one of two slots
    second = fundamental_steps(ens, need_inverse=True)
    for (k, phi_a, psi_a), (_, phi_b, psi_b) in zip(first, second):
        assert phi_a.tobytes() == phi_b.tobytes(), k
        assert psi_a.tobytes() == psi_b.tobytes(), k
        assert not np.all(psi_a == 1.0) or k == 0
    # the third pass reads its states from a replay of the kernel, which
    # overwrites each state in place with the next one
    replay = (x[0] for _, x in _batch_steps(model, [u], ens.drivers, 1.0))
    third = _flow(model, u, ens.drivers, replay, need_inverse=True)
    for (k, phi_a, psi_a), (k_c, x_c, phi_c, psi_c) in zip(first, third):
        assert k_c == k
        assert x_c.tobytes() == ens.states[k].tobytes(), k
        assert phi_a.tobytes() == phi_c.tobytes(), k
        assert psi_a.tobytes() == psi_c.tobytes(), k
    assert k_c == 32
    # a replay that forms no phi, as a stability rung's, keeps psi's bits
    replay = (x[0] for _, x in _batch_steps(model, [u], ens.drivers, 1.0))
    fourth = _flow(model, u, ens.drivers, replay, need_inverse=True, need_forward=False)
    for (k, _, psi_a), (k_d, x_d, phi_d, psi_d) in zip(first, fourth):
        assert k_d == k and phi_d is None
        assert x_d.tobytes() == ens.states[k].tobytes(), k
        assert psi_a.tobytes() == psi_d.tobytes(), k
    assert k_d == 32


def test_ladder_folded_in_one_pass_equals_each_rung_alone():
    """One relaxed core folds the whole ladder: each row is the row of its rung run alone.

    The rungs' accumulators, kernel slots and flows sit side by side in
    the relaxed control's reducer, and the relaxed control's health comes
    from that one core, so neither may depend on which rungs run beside.
    """
    grid = TimeGrid(T=1.0, n_steps=32)
    fam = build_scenario_family(VolatilityBounds(1.0, 4.0), grid, "corners", blocks=2)
    acts = ActionGrid(np.array([-1.0, 0.0, 1.0]))
    model = _sine(_lq(c2=0.3, f2=0.05, h2=0.1))
    args = (model, uniform_relaxed(acts, 32))
    setting = (sample_drivers(fam, grid, BUSY, 200, 23), 1.0)
    ladder = bsde_stability_report(*args, [2, 8, 32], *setting)
    alone = [bsde_stability_report(*args, [n], *setting) for n in (2, 8, 32)]
    assert ladder.rows == tuple(rep.rows[0] for rep in alone)
    assert all(rep.health == ladder.health for rep in alone)
    assert all(row.p_gap > 0.0 and row.q_gap > 0.0 and row.r_gap > 0.0 for row in ladder.rows)


def test_reducerless_core_equals_a_core_with_a_no_op_reducer(monkeypatch):
    """Without a reducer the core forms no inverse flow, and nothing it returns changes."""
    grid = TimeGrid(T=1.0, n_steps=16)
    fam = build_scenario_family(VolatilityBounds(1.0, 4.0), grid, "corners", blocks=2)
    ens = simulate(_sine(_lq()), uniform_relaxed(PM1, 16),
                   sample_drivers(fam, grid, MARKS, 200, 5), 1.0)
    inverse = []
    factors = variational._FlowSteps.factors

    def counted(self, k, x, *, need_inverse, need_forward):
        inverse.append(need_inverse)
        return factors(self, k, x, need_inverse=need_inverse, need_forward=need_forward)

    monkeypatch.setattr(variational._FlowSteps, "factors", counted)
    bare = adj._adjoint_core(ens, 2)
    assert len(inverse) == 32 and not any(inverse)
    calls = []
    noop = adj._adjoint_core(ens, 2, lambda core, j, *step: calls.append(j))
    assert calls == list(range(16))
    assert sum(inverse) == 16
    for name in ("y", "gx_term", "Q", "R", "S_t", "intercept", "cond_y", "cond_increment",
                 "y_residual"):
        assert getattr(bare, name).tobytes() == getattr(noop, name).tobytes(), name
    assert len(bare.fits) == len(noop.fits) == 16
    for a, b in zip(bare.fits, noop.fits):
        assert all(u.tobytes() == v.tobytes() for u, v in zip(a, b))
    assert adj._estimator_health(bare) == adj._estimator_health(noop)


def test_stability_replays_form_no_forward_flow(monkeypatch):
    """A rung's replay forms ``psi`` alone: the fold reads its state and ``psi``, never ``phi``.

    Every core forms ``phi`` in both of its flow passes, and ``psi`` in its
    second pass only when it has a reducer, which only the relaxed
    control's core has. So with K steps and n rungs the flow forms
    ``phi`` in 2 K (n + 1) steps and ``psi`` in K (n + 1), where a replay
    that formed ``phi`` too made that 2 K (n + 1) + K n.
    """
    grid = TimeGrid(T=1.0, n_steps=16)
    fam = build_scenario_family(VolatilityBounds(1.0, 4.0), grid, "corners", blocks=2)
    seen = []
    factors = variational._FlowSteps.factors

    def counted(self, k, x, *, need_inverse, need_forward):
        seen.append((need_forward, need_inverse))
        return factors(self, k, x, need_inverse=need_inverse, need_forward=need_forward)

    monkeypatch.setattr(variational._FlowSteps, "factors", counted)
    bsde_stability_report(_sine(_lq()), uniform_relaxed(PM1, 16), [2, 4],
                          sample_drivers(fam, grid, MARKS, 200, 5), 1.0)
    # phi alone: both passes of each rung's core and the relaxed control's first pass
    assert seen.count((True, False)) == 16 * 5
    # the relaxed control's second pass, then each rung's replay
    assert seen.count((True, True)) == 16
    assert seen.count((False, True)) == 16 * 2
    assert len(seen) == 16 * 8


def test_stability_report_holds_no_whole_triple():
    """No triple, flow, rung state or rung fit is held whole: the peak stays within 3.6.

    The unit is one state array. Each rung's core runs first and the rung
    keeps only its per-step fit records and loadings. Then the relaxed
    control's core holds its states and its backward variable, and its
    reducer folds the whole ladder: each rung's states and ``psi`` are
    replayed step by step, the rung's fit is evaluated from its record at
    the replayed state, and both triples are formed one step at a time.
    Each rung adds six (S, P) slots: three accumulators, a kernel slot
    and its replay's two ``psi`` slots. With the drivers sampled inside
    the measurement the peak is 3.52 after an untraced warm-up call,
    whatever ran before in the process (3.86 on a cold first call, which
    also counts allocations made once per process). Figures of older
    layouts, warmed: 3.70 with a replay that formed ``phi`` too, a new
    array at every Horner step and numpy's reduction over the mark axis;
    3.76 when, on top of that, each rung's differences were formed in new
    arrays instead of in its own triple; 3.50 (3.81 cold) when the
    relaxed control was replayed beside each rung's core. Cold, keeping
    the relaxed control's fit peaks near 4.75 (4.44 warmed), keeping its states as well near
    5.75, storing its whole ``psi`` near 6.5, holding each rung's whole
    flow and inverse flow as well near 8.0, the relaxed control's whole
    triple near 9.2, and the rungs' whole triples near 24.
    """
    grid = TimeGrid(T=1.0, n_steps=32)
    fam = build_scenario_family(VolatilityBounds(1.0, 4.0), grid, "corners", blocks=2)
    n_paths = 2000
    state_bytes = fam.n_scenarios * n_paths * (grid.n_steps + 1) * 8

    def report():
        return bsde_stability_report(_lq(), uniform_relaxed(PM1, 32), [4, 16],
                                     sample_drivers(fam, grid, MARKS, n_paths, 3), 1.0)

    # numpy imports some submodules on first use; a first call loads them
    report()
    tracemalloc.start()
    try:
        report()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.6 * state_bytes, peak / state_bytes


def test_fitted_core_holds_one_backward_buffer():
    """The fit overwrites the raw backward variable step by step: one (K+1, S, P) buffer.

    The flow and its inverse are streamed twice, one step at a time, so
    the core peaks at 1.7 state arrays: the backward variable and the
    steps' temporaries. A second buffer for the fit would peak near 2.7,
    and the whole flow and its inverse near 3.4.
    """
    grid = TimeGrid(T=1.0, n_steps=32)
    fam = build_scenario_family(VolatilityBounds(1.0, 4.0), grid, "corners", blocks=2)
    n_paths = 2000
    ens = simulate(_lq(), uniform_relaxed(PM1, 32), sample_drivers(fam, grid, MARKS, n_paths, 3),
                   1.0)
    state_bytes = ens.states.nbytes

    def keep(core, j, phi_j, psi_j, fit_j):
        core.y[j] = fit_j

    tracemalloc.start()
    try:
        adj._adjoint_core(ens, 2, keep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * state_bytes, peak / state_bytes


def test_relaxed_table_holds_one_backward_buffer():
    """The table's tail summands take the raw steps' rows, and the rows go before the table.

    Past its ensemble, the table peaks at 1.93 state arrays after an
    untraced warm-up call: the backward variable and the core's step
    temporaries, with each block start keeping its ``psi`` and its raw
    step, two (S, P) arrays, and the triple formed in the table loop
    after the backward variable is dropped. Keeping the backward
    variable through the table loop and the starts' triples peaked near
    2.7, and holding the whole flow and its inverse as well near 4.4.
    """
    grid = TimeGrid(T=1.0, n_steps=32)
    fam = build_scenario_family(VolatilityBounds(1.0, 4.0), grid, "corners", blocks=2)
    ens = simulate(_lq(), uniform_relaxed(PM1, 32), sample_drivers(fam, grid, MARKS, 2000, 3),
                   1.0)
    state_bytes = ens.states.nbytes
    # numpy imports some submodules on first use; a first call loads them
    mp_check_relaxed(ens)
    tracemalloc.start()
    try:
        mp_check_relaxed(ens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * state_bytes, peak / state_bytes


def test_lipschitz_audit_within_declared_bound():
    grid = TimeGrid(T=1.0, n_steps=16)
    audit = driver_lipschitz_audit(_lq(), _fam(1.0, 4.0, grid), grid, MARKS,
                                   n_probes=400, seed=5)
    assert audit.ok
    assert audit.n_probes == 400
    assert audit.c0 > 0.0
    assert 0.0 < audit.worst_ratio <= audit.c0 * (1 + 1e-9)


def test_lipschitz_audit_trivial_model():
    grid = TimeGrid(T=1.0, n_steps=16)
    audit = driver_lipschitz_audit(md.build_model("zero", {}), _fam(1.0, 4.0, grid),
                                   grid, MARKS, n_probes=50, seed=5)
    assert audit.c0 == 0.0
    assert audit.worst_ratio == 0.0
    assert audit.ok


# ---------------------------------------------------------------------------
# serialization and argument checks
# ---------------------------------------------------------------------------


def test_mp_csv_layout(tmp_path):
    text = _artifact(tmp_path, "mp_report.csv", **_GAMMA_DOC, kind="mp-strict",
                     grid={"T": 1.0, "n_steps": 32}, control={"type": "constant", "index": 0},
                     n_paths=60, seed=11, options={"n_blocks": 2})
    lines = text.splitlines()
    assert lines[0] == "block,action,estimate,stderr,slack,verdict"
    assert len(lines) == 1 + 4
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 6
        assert cells[5] in ("pass", "fail")
        float(cells[2])  # estimates round-trip through repr


def test_stability_csv_layout(tmp_path):
    # the Dirac embedding of the constant control at index 0
    text = _artifact(tmp_path, "stability.csv", **_GAMMA_DOC, kind="bsde-stability",
                     grid={"T": 1.0, "n_steps": 32},
                     control={"type": "weights", "weights": [[1.0, 0.0]] * 32},
                     n_paths=50, seed=17, options={"n_list": [1, 2]})
    lines = text.splitlines()
    assert lines[0] == "n,p_gap,p_stderr,q_gap,q_stderr,r_gap,r_stderr,k_gap"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "1"
    assert lines[1].split(",")[-1] == "0.0"


def test_argument_validation():
    grid = TimeGrid(T=1.0, n_steps=32)
    model = _gamma_control_model()
    fam = _fam(1.0, 4.0, grid)
    u = constant_strict(PM1, 32, 0)
    drivers = sample_drivers(fam, grid, MARKS, 20, 1)
    with pytest.raises(ValueError, match="7 blocks do not divide n_steps 32"):
        mp_check_relaxed(simulate(model, u, drivers, 2.5), n_blocks=7)
    with pytest.raises(ValueError, match="nonnegative"):
        mp_check_near(model, u, [], -1.0, drivers, 2.5)
    with pytest.raises(ValueError, match="epsilon_n"):
        mp_check_near(model, u, [], 1.0, drivers, 2.5, epsilon_n=-0.1, add_block_spikes=False)
    with pytest.raises(ValueError, match=r"strictly increasing, got \[4, 4\]"):
        bsde_stability_report(model, embed_strict(u), [4, 4], drivers, 2.5)
    with pytest.raises(ValueError, match="n_probes"):
        driver_lipschitz_audit(model, fam, grid, MARKS, n_probes=0)
