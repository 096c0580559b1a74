"""Oracles the tests check the package against, and that no experiment kind runs.

The continuous-time references (the LQ cost by matrix exponential, the
bilinear mean), the pathwise sup distance of two ensembles, the whole
fundamental flow and its inverse defect, the one-step residual of the
adjoint's driver representation with the whole triple it checks, the
Lipschitz audit of that driver, and the spike's whole variational path
``z`` and its impulse process ``eta``. Only :func:`lq_cost_continuous`
needs scipy, which it imports itself, so every other oracle runs on
numpy alone.
"""

from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
from dense_reference import dense_counts

from gcontrol.adjoint import _adjoint_core, _finite_triple
from gcontrol.models import _avg, _coeff, _lq_rates, _mark_moments, ensure_validated
from gcontrol.rng import PROBES, substream
from gcontrol.variational import _advance, _FlowSteps, _spike_impulse, fundamental_steps


# ---------------------------------------------------------------------------
# continuous-time references
# ---------------------------------------------------------------------------


def lq_cost_continuous(params, grid, x0, u_mean, u_sq, a_path, marks) -> float:
    """Exact cost of the continuous-time linear-quadratic jump model.

    The first two state moments and the running cost satisfy a linear ODE
    system with coefficients frozen per step (the action path and the
    volatility path are piecewise constant), so one matrix exponential
    per step propagates them without discretization error.

    ``u_mean`` and ``u_sq`` are the per-step first and second moments of
    the action; a strict control passes (u, u**2).
    """
    from scipy.linalg import expm  # only this oracle needs scipy

    p = {k: float(v) for k, v in params.items() if isinstance(v, (int, float))}
    _, nu2 = _mark_moments(marks)
    f1, f2 = p["f1"], p["f2"]
    s0, s1 = p["s0"], p["s1"]
    h1, h2 = p["h1"], p["h2"]
    y = np.array([x0 * x0, x0, 1.0, 0.0])
    dt = grid.dt
    for k in range(grid.n_steps):
        a = float(a_path[k])
        u1 = float(u_mean[k])
        u2 = float(u_sq[k])
        lam, beta = _lq_rates(p, a)
        A = 2 * lam + a * s1**2 + nu2 * f1**2
        B = 2 * beta * u1 + 2 * a * s0 * s1 + 2 * nu2 * f1 * f2 * u1
        C = a * s0**2 + nu2 * f2**2 * u2
        M = np.array(
            [
                [A, B, C, 0.0],
                [0.0, lam, beta * u1, 0.0],
                [0.0, 0.0, 0.0, 0.0],
                [h1, 0.0, h2 * u2, 0.0],
            ]
        )
        y = expm(M * dt) @ y
    return float(p["gq"] * y[0] + y[3])


def bilinear_mean_continuous(params, grid, x0, u_path) -> float:
    """E[x_T] = x0 exp(int (th0 + th1 u) dt) for the bilinear model."""
    rate = float(params["th0"]) + float(params["th1"]) * np.asarray(u_path, dtype=float)
    return float(x0 * np.exp(rate.sum() * grid.dt))


def bilinear_mean_discrete(params, grid, x0, u_path) -> float:
    """E[x_T] of the Euler chain for the bilinear model (exact product)."""
    rate = float(params["th0"]) + float(params["th1"]) * np.asarray(u_path, dtype=float)
    return float(x0 * np.prod(1.0 + rate * grid.dt))


def bilinear_cost_continuous(params, grid, x0, u_path) -> float:
    return float(params["gl"]) * bilinear_mean_continuous(params, grid, x0, u_path)


def bilinear_cost_discrete(params, grid, x0, u_path) -> float:
    return float(params["gl"]) * bilinear_mean_discrete(params, grid, x0, u_path)


# ---------------------------------------------------------------------------
# pathwise comparison
# ---------------------------------------------------------------------------


class DistanceReport(NamedTuple):
    sup: np.ndarray  # (n_scenarios, n_paths) per-path sup_t |x1 - x2|
    mean_square: np.ndarray  # (n_scenarios,) cross-path mean of sup^2


def sup_distance(e1, e2) -> DistanceReport:
    """Pathwise sup distance of two ensembles and its per-scenario mean square.

    Both ensembles must come from the same seed (common random numbers);
    comparing independently seeded runs would measure noise, not the
    controls' effect.
    """
    if e1.states.shape != e2.states.shape:
        raise ValueError("ensembles have mismatched (step, scenario, path) shape")
    if e1.drivers.seed != e2.drivers.seed:
        raise ValueError("sup_distance requires common random numbers (equal seeds)")
    sup = np.abs(e1.states - e2.states).max(axis=0)
    return DistanceReport(sup=sup, mean_square=(sup**2).mean(axis=1))


# ---------------------------------------------------------------------------
# the fundamental flow
# ---------------------------------------------------------------------------


def whole_flow(ensemble) -> SimpleNamespace:
    """Every step of :func:`fundamental_steps` stacked time-major: ``phi``, ``psi`` (K+1, S, P).

    The generator reuses two step slots, so each step is copied before
    the next one is read.
    """
    flow = fundamental_steps(ensemble.model, ensemble.control, ensemble.drivers, ensemble.states,
                             need_inverse=True)
    steps = [(phi_k.copy(), psi_k.copy()) for _, _, phi_k, psi_k in flow]
    phi, psi = (np.stack(c) for c in zip(*steps))
    return SimpleNamespace(phi=phi, psi=psi)


def inverse_defect(flow) -> float:
    """max over (scenario, path, time) of |phi psi - 1|."""
    return float(np.max(np.abs(flow.phi * flow.psi - 1.0)))


# ---------------------------------------------------------------------------
# the adjoint's driver
# ---------------------------------------------------------------------------


def whole_triple(ensemble, basis_degree=2) -> SimpleNamespace:
    """The fitted triple's steps stacked time-major, and the core they come from.

    ``p`` (K+1, S, P) ends at the exact terminal gradient, ``q`` is
    (K, S, P) and ``r`` (K, S, P, m); ``core.y`` is the fitted backward
    variable, each step's fit written over the raw step as the core
    hands it on.
    """
    steps = []

    def keep(core, j, phi_j, psi_j, fit_j):
        core.y[j] = fit_j
        steps.append(_finite_triple(core, j, ensemble.states[j], fit_j, psi_j))

    core = _adjoint_core(ensemble, basis_degree, keep)
    p, q, r = (np.stack(c) for c in zip(*steps))
    return SimpleNamespace(p=np.concatenate([p, core.gx_term[None]]), q=q, r=r, core=core)


def bsde_residual(ensemble, triple) -> np.ndarray:
    """Mean-square one-step residual of the driver representation.

    The driver is evaluated with the scenario quadratic-variation
    density ``pi = a_t`` and with the jump coefficient itself (not its
    state derivative) weighting ``r``:

        F = -h_x + p (b_x - pi gamma_x) - pi q sigma_x + sum_i r_i f nu_i

    and the residual at step k is
    ``p_{k+1} - p_k + F dt - q dB - sum_i r_i dN~_i`` averaged in square
    over paths and steps, one value per scenario.
    """
    model = ensemble.model
    grid = ensemble.drivers.grid
    marks = ensemble.drivers.marks
    dt = grid.dt
    n_steps = grid.n_steps
    _, n_scen, n_paths = ensemble.states.shape
    w = ensemble.control.weights
    actions = ensemble.control.grid.actions
    a_tab = ensemble.drivers.family.values
    nus = marks.intensities
    p = triple.p
    counts = dense_counts(ensemble.drivers)

    total = np.zeros(n_scen)
    for k in range(n_steps):
        t = float(grid.times[k])
        x = ensemble.states[k]
        pi = a_tab[:, k][:, None]
        bx = _avg(model.b_x, t, x, w[k], actions)
        gx = _avg(model.gamma_x, t, x, w[k], actions)
        hxk = _avg(model.h_x, t, x, w[k], actions)
        sxk = _coeff(model.sigma_x(t, x))
        q, r = triple.q[k], triple.r[k]
        drv = -hxk + p[k] * (bx - pi * gx) - pi * q * sxk
        for i in range(marks.n_marks):
            f_i = _avg(model.f, t, x, w[k], actions, theta=float(marks.marks[i]))
            drv = drv + r[:, :, i] * f_i * float(nus[i])
        resid = p[k + 1] - p[k] + drv * dt - q * ensemble.drivers.step_dB(k)
        for i in range(marks.n_marks):
            resid = resid - r[:, :, i] * (counts[k, i] - float(nus[i]) * dt)
        total += (resid**2).sum(axis=1)
    return total / (n_paths * n_steps)


class LipschitzAudit(NamedTuple):
    c0: float
    worst_ratio: float
    n_probes: int
    ok: bool


def sup_bounds(model) -> dict:
    """Sups of ``|b_x|``, ``|gamma_x|``, ``|sigma_x|`` and ``|f|`` over the model's probe boxes.

    Computed from the registry model's parameters: every registry model
    is a polynomial in the state and the action whose state derivatives
    are constant in the state.
    """
    p = {k: float(v) for k, v in model.params.items() if isinstance(v, (int, float))}
    X, A, TH = (max(abs(lo), abs(hi)) for lo, hi in
                (model.bounds[k] for k in ("state_box", "action_box", "theta_box")))
    if model.name == "linear_jump_lq":
        return {"b_x": abs(p["b1"]), "gamma_x": abs(p["c1"]), "sigma_x": abs(p["s1"]),
                "f": (abs(p["f1"]) * X + abs(p["f2"]) * A) * TH}
    if model.name == "bilinear":
        return {"b_x": abs(p["th0"]) + abs(p["th1"]) * A, "gamma_x": 0.0,
                "sigma_x": abs(p["s1"]), "f": 0.0}
    if model.name in ("zero", "constant_drift"):
        return {"b_x": 0.0, "gamma_x": 0.0, "sigma_x": 0.0, "f": 0.0}
    raise ValueError(f"no sup bounds for model {model.name!r}")


def driver_lipschitz_audit(model, family, grid, marks, n_probes=1000, seed=0) -> LipschitzAudit:
    """Check the driver's Lipschitz constant against the model's sup bounds.

    ``C0 = max(|b_x| + pi |gamma_x|, pi |sigma_x|, |f|)`` with ``pi`` the
    upper volatility corner and the sups of :func:`sup_bounds`. Random
    probe pairs of (p, q, r) at random (t, x, a, pi) must produce
    difference ratios below ``C0`` in the metric
    ``|dp| + |dq| + sum_i |dr_i| nu_i``.
    """
    ensure_validated(model)
    if n_probes < 1:
        raise ValueError(f"n_probes must be positive, got {n_probes}")
    lo_x, hi_x = model.bounds["state_box"]
    lo_a, hi_a = model.bounds["action_box"]
    pi_lo = family.bounds.sigma_low
    pi_hi = family.bounds.sigma_high
    sup = sup_bounds(model)
    c0 = max(sup["b_x"] + pi_hi * sup["gamma_x"], pi_hi * sup["sigma_x"], sup["f"])

    gen = substream(seed, PROBES)
    t = gen.uniform(0.0, grid.T, n_probes)
    x = gen.uniform(lo_x, hi_x, n_probes)
    a = gen.uniform(lo_a, hi_a, n_probes)
    pi = gen.uniform(pi_lo, pi_hi, n_probes)
    dp = gen.standard_normal(n_probes) - gen.standard_normal(n_probes)
    dq = gen.standard_normal(n_probes) - gen.standard_normal(n_probes)
    dr = gen.standard_normal((n_probes, marks.n_marks)) - gen.standard_normal(
        (n_probes, marks.n_marks)
    )

    bx = np.asarray(model.b_x(t, x, a), dtype=float) + np.zeros_like(x)
    gx = np.asarray(model.gamma_x(t, x, a), dtype=float) + np.zeros_like(x)
    sxv = _coeff(model.sigma_x(t, x))

    diff = dp * (bx - pi * gx) - pi * dq * sxv
    denom = np.abs(dp) + np.abs(dq)
    for i in range(marks.n_marks):
        f_i = np.asarray(
            model.f(t, x, float(marks.marks[i]), a), dtype=float
        ) + np.zeros_like(x)
        nu_i = float(marks.intensities[i])
        diff = diff + dr[:, i] * f_i * nu_i
        denom = denom + np.abs(dr[:, i]) * nu_i

    mask = denom > 1e-12
    ratio = np.abs(diff[mask]) / denom[mask]
    worst = float(ratio.max()) if ratio.size else 0.0
    return LipschitzAudit(
        c0=float(c0),
        worst_ratio=worst,
        n_probes=int(n_probes),
        ok=bool(worst <= c0 * (1.0 + 1e-9)),
    )


# ---------------------------------------------------------------------------
# the spike's variational path and impulse process
# ---------------------------------------------------------------------------


def _impulse(ensemble, action_index, k0) -> np.ndarray:
    return _spike_impulse(ensemble.model, ensemble.control, ensemble.drivers, action_index, k0,
                          ensemble.states[k0])


def solve_variational(ensemble, action_index, k0) -> np.ndarray:
    """The whole linearized response z to a spike of the ensemble's strict control, (K+1, S, P).

    The spike switches the control to ``action_index`` from step ``k0``.
    z is zero before that step, receives the impulse there, and then
    follows the forward flow's multiplicative Euler factors along the
    stored states: the loop ``spike_report`` streams in two step slots.
    """
    steps = _FlowSteps(ensemble.model, ensemble.control, ensemble.drivers)
    z = np.zeros(ensemble.states.shape)
    z[k0] = _impulse(ensemble, action_index, k0)
    for k in range(k0, ensemble.drivers.grid.n_steps):
        growth, _, paths, jmult, _ = steps.factors(k, ensemble.states[k], need_inverse=False,
                                                   need_forward=True)
        _advance(z[k + 1], z[k], growth, paths, jmult)
    return z


def spike_eta(ensemble, action_index, k0, psi) -> np.ndarray:
    """The impulse process eta of a spike to ``action_index`` at step k0, (K+1, S, P) like the flow.

    Zero until the spike opens at step k0, then constant: ``psi[k0]``
    times the spike's impulse, so ``z = phi * eta`` up to the scheme's
    order.
    """
    eta = np.zeros(ensemble.states.shape)
    eta[k0:] = psi[k0] * _impulse(ensemble, action_index, k0)
    return eta
