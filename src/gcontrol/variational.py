"""Spike-variation calculus along a simulated ensemble.

Everything here rides the randomness already stored in a state ensemble:
the linearized state z, the forward/inverse fundamental solutions phi and
psi, the impulse process eta, the difference-quotient convergence table,
and the two-sided check of the cost derivative (finite differences vs.
the first-order formula). Reusing the ensemble's noise and jumps is not
an optimization but a requirement; the quantities being compared are
pathwise, and independent randomness would swamp them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .controls import RelaxedControl, SpikeSpec, StrictControl, spike, spike_steps
from .costs import batch_costs, cost_from_ensemble
from .scenarios import TimeGrid, upper_expectation
from .sde import StateEnsemble, simulate_batch

_JUMP_GUARD = 1e-6


@dataclass(frozen=True)
class VariationalPath:
    """Linearized state response to a spike, zero before the spike step."""

    z: np.ndarray  # (n_scenarios, n_paths, n_steps + 1)
    k0: int

    def __post_init__(self):
        if not np.all(np.isfinite(self.z)):
            raise FloatingPointError("variational path is not finite")
        if self.k0 > 0 and np.any(self.z[:, :, : self.k0] != 0.0):
            raise ValueError("variational path must vanish before the spike")


@dataclass(frozen=True)
class FundamentalPair:
    """Forward flow phi, inverse flow psi, and the spike impulse eta."""

    phi: np.ndarray
    psi: np.ndarray
    eta: np.ndarray
    k0: int | None

    def inverse_defect(self) -> float:
        """max over (scenario, path, time) of |phi psi - 1|."""
        return float(np.max(np.abs(self.phi * self.psi - 1.0)))


class QuotientRow(NamedTuple):
    h: float
    gap: float
    stderr: float
    scenario_id: int


@dataclass(frozen=True)
class DerivativeReport:
    rows: tuple  # (h, fd, fd_stderr) with h descending
    formula: float
    formula_stderr: float
    scenario_id: int  # argmax scenario of the base cost, used for the FD column


# ---------------------------------------------------------------------------
# per-step linearization
# ---------------------------------------------------------------------------


def _weights_and_actions(control) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(control, RelaxedControl):
        return control.weights, control.grid.actions
    w = np.zeros((control.n_steps, control.grid.n_actions))
    w[np.arange(control.n_steps), control.indices] = 1.0
    return w, control.grid.actions


def _avg(fun, t, x, w_k, actions, theta=None):
    """Weight-averaged coefficient; strict controls hit a single action."""
    out = None
    for a_i, a in enumerate(actions):
        wa = float(w_k[a_i])
        if wa == 0.0:
            continue
        val = fun(t, x, float(a)) if theta is None else fun(t, x, theta, float(a))
        term = wa * (np.asarray(val) + np.zeros_like(x))
        out = term if out is None else out + term
    if out is None:
        return np.zeros_like(x)
    return out


def _jump_multiplier(ensemble, k, t, x, w_k, actions, inverse: bool) -> np.ndarray:
    """Product of (1 + f_x)^(+-count) over the step's jump events.

    The linearization must stay invertible: |1 + f_x| is checked against
    a hard threshold at every mark and action, whether or not an event
    landed there.
    """
    model = ensemble.model
    marks = ensemble.marks
    mult = np.ones_like(x)
    tagged = ensemble.tagged_counts
    if tagged is None:
        counts = ensemble.counts
        for i, th in enumerate(marks.marks):
            fx = _avg(model.f_x, t, x, w_k, actions, theta=float(th))
            if np.min(np.abs(1.0 + fx)) < _JUMP_GUARD:
                raise ValueError(f"jump linearization nearly singular at step {k}, mark {i}")
            c = counts[:, k, i]
            if not c.any():
                continue
            expo = -c if inverse else c
            mult = mult * (1.0 + fx) ** expo[None, :]
    else:
        for i, th in enumerate(marks.marks):
            for a_i, a in enumerate(actions):
                fx = np.asarray(model.f_x(t, x, float(th), float(a))) + np.zeros_like(x)
                if np.min(np.abs(1.0 + fx)) < _JUMP_GUARD:
                    raise ValueError(
                        f"jump linearization nearly singular at step {k}, mark {i}"
                    )
                c = tagged[:, k, i, a_i]
                if not c.any():
                    continue
                expo = -c if inverse else c
                mult = mult * (1.0 + fx) ** expo[None, :]
    return mult


def _flow_factors(ensemble, k, w, actions, *, need_inverse: bool):
    """Multiplicative Euler factors of the linearized flow at step k."""
    model = ensemble.model
    grid = ensemble.grid
    dt = grid.dt
    t = float(grid.times[k])
    x = ensemble.states[:, :, k]
    a_k = ensemble.family.scalar_values()[:, k][:, None]
    dB = ensemble.noise.scalar_dB()[:, :, k]
    w_k = w[k]
    bx = _avg(model.b_x, t, x, w_k, actions)
    sx = np.asarray(model.sigma_x(t, x)) + np.zeros_like(x)
    gx = _avg(model.gamma_x, t, x, w_k, actions)
    comp = np.zeros_like(x)
    for i, th in enumerate(ensemble.marks.marks):
        nu_i = float(ensemble.marks.intensities[i])
        if nu_i > 0.0:
            comp = comp + _avg(model.f_x, t, x, w_k, actions, theta=float(th)) * nu_i
    growth = 1.0 + bx * dt + gx * a_k * dt - comp * dt + sx * dB
    jmult = _jump_multiplier(ensemble, k, t, x, w_k, actions, inverse=False)
    if not need_inverse:
        return growth, jmult, None, None
    igrowth = 1.0 - bx * dt - gx * a_k * dt + comp * dt + sx * sx * a_k * dt - sx * dB
    ijmult = _jump_multiplier(ensemble, k, t, x, w_k, actions, inverse=True)
    return growth, jmult, igrowth, ijmult


def _spike_impulse(ensemble, spec: SpikeSpec, k0: int) -> np.ndarray:
    """First-order state kick of the spike at its opening step.

    Combines the drift change, the volatility-scaled change of the
    quadratic-variation drift, and the compensator change of the jump
    part; coefficients are differenced exactly before any scaling.
    """
    model = ensemble.model
    grid = ensemble.grid
    t = float(grid.times[k0])
    x = ensemble.states[:, :, k0]
    base = ensemble.control
    if not isinstance(base, StrictControl):
        raise ValueError("spike variations act on strict controls")
    u_val = float(base.values[k0])
    nu_val = float(base.grid.actions[spec.action_index])
    a_k = ensemble.family.scalar_values()[:, k0][:, None]
    db = np.asarray(model.b(t, x, nu_val)) - np.asarray(model.b(t, x, u_val))
    dg = np.asarray(model.gamma(t, x, nu_val)) - np.asarray(model.gamma(t, x, u_val))
    out = db + dg * a_k
    for i, th in enumerate(ensemble.marks.marks):
        nu_i = float(ensemble.marks.intensities[i])
        if nu_i > 0.0:
            df = np.asarray(model.f(t, x, float(th), nu_val)) - np.asarray(
                model.f(t, x, float(th), u_val)
            )
            out = out - df * nu_i
    return out + np.zeros_like(x)


def _require_same_base(ensemble: StateEnsemble, spec: SpikeSpec) -> None:
    u = ensemble.control
    if not isinstance(u, StrictControl):
        raise ValueError("the reference ensemble must use a strict control")
    if not np.array_equal(u.indices, spec.base.indices):
        raise ValueError("spike base control differs from the simulated control")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def solve_variational(ensemble: StateEnsemble, spec: SpikeSpec) -> VariationalPath:
    """Linearized response z along the ensemble's own paths.

    z is zero before the spike opens, receives the impulse there, and
    then follows the same multiplicative Euler factors as the forward
    fundamental solution.
    """
    _require_same_base(ensemble, spec)
    grid = ensemble.grid
    k0, _ = spike_steps(spec, grid)
    S, P, _ = ensemble.states.shape
    w, actions = _weights_and_actions(ensemble.control)
    z = np.zeros((S, P, grid.n_steps + 1))
    z[:, :, k0] = _spike_impulse(ensemble, spec, k0)
    for k in range(k0, grid.n_steps):
        growth, jmult, _, _ = _flow_factors(ensemble, k, w, actions, need_inverse=False)
        z[:, :, k + 1] = z[:, :, k] * growth * jmult
    return VariationalPath(z=z, k0=k0)


def solve_fundamental(
    ensemble: StateEnsemble, spec: SpikeSpec | None = None
) -> FundamentalPair:
    """Forward and inverse fundamental solutions, plus eta for a spike.

    phi and psi start at one and evolve by reciprocal Euler factors, so
    phi * psi drifts from one only at the scheme's order. eta is zero
    until the spike opens and constant afterwards: psi at the spike step
    times the impulse.
    """
    grid = ensemble.grid
    S, P, _ = ensemble.states.shape
    w, actions = _weights_and_actions(ensemble.control)
    phi = np.ones((S, P, grid.n_steps + 1))
    psi = np.ones((S, P, grid.n_steps + 1))
    eta = np.zeros((S, P, grid.n_steps + 1))
    k0 = None
    if spec is not None:
        _require_same_base(ensemble, spec)
        k0, _ = spike_steps(spec, grid)
    for k in range(grid.n_steps):
        growth, jmult, igrowth, ijmult = _flow_factors(
            ensemble, k, w, actions, need_inverse=True
        )
        phi[:, :, k + 1] = phi[:, :, k] * growth * jmult
        psi[:, :, k + 1] = psi[:, :, k] * igrowth * ijmult
    if k0 is not None:
        impulse = _spike_impulse(ensemble, spec, k0)
        eta[:, :, k0:] = (psi[:, :, k0] * impulse)[:, :, None]
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(psi))):
        raise FloatingPointError("fundamental solutions are not finite")
    return FundamentalPair(phi=phi, psi=psi, eta=eta, k0=k0)


def spike_controls(
    u_star: StrictControl, grid: TimeGrid, action_index: int, t0: float, h_list: list[float]
) -> list[StrictControl]:
    """``u_star`` spiked to ``action_index`` on [t0, t0 + h), for every h."""
    if not isinstance(u_star, StrictControl):
        raise ValueError("spike variations act on strict controls")
    return [
        spike(SpikeSpec(base=u_star, action_index=action_index, t0=t0, width=float(h)), grid)
        for h in h_list
    ]


def simulate_spikes(
    ensemble: StateEnsemble, action_index: int, t0: float, h_list: list[float]
) -> np.ndarray:
    """Every spiked control as one batch on the ensemble's drivers.

    Returns time-major states, shape (n_steps + 1, len(h_list), S, P).
    """
    return simulate_batch(
        ensemble.model,
        spike_controls(ensemble.control, ensemble.grid, action_index, t0, h_list),
        ensemble.family,
        ensemble.grid,
        ensemble.marks,
        ensemble.drivers,
        ensemble.x0,
    )


def difference_quotient_gap(
    ensemble: StateEnsemble,
    action_index: int,
    t0: float,
    h_list: list[float],
    spiked: np.ndarray | None = None,
) -> tuple[QuotientRow, ...]:
    """Worst-scenario mean of sup_t |(x^h - x*)/h - z|^2 per spike width.

    The sup runs over grid times from the end of the spike window to T;
    inside the window the quotient has not yet absorbed the full kick,
    so including it would measure the window itself, not convergence.
    Widths must be given in descending order. ``spiked`` takes the
    :func:`simulate_spikes` result when the caller already has it.
    """
    if any(b >= a for a, b in zip(h_list, h_list[1:])):
        raise ValueError("spike widths must be strictly descending")
    grid = ensemble.grid
    u_star = ensemble.control
    if not isinstance(u_star, StrictControl):
        raise ValueError("difference quotients are defined along strict controls")
    if spiked is None:
        spiked = simulate_spikes(ensemble, action_index, t0, h_list)
    rows = []
    z_path = None
    for j, h in enumerate(h_list):
        spec = SpikeSpec(base=u_star, action_index=action_index, t0=t0, width=float(h))
        k0, span = spike_steps(spec, grid)
        if z_path is None:
            z_path = solve_variational(ensemble, spec)
        pert = np.ascontiguousarray(np.moveaxis(spiked[:, j], 0, -1))
        y = (pert - ensemble.states) / float(h) - z_path.z
        sup_sq = np.max(y[:, :, k0 + span :] ** 2, axis=2)
        um = upper_expectation(list(sup_sq))
        rows.append(QuotientRow(float(h), um.value, um.stderr, um.scenario_id))
    return tuple(rows)


def gateaux_derivative(
    ensemble: StateEnsemble,
    action_index: int,
    t0: float,
    h_list: list[float],
    spiked: np.ndarray | None = None,
) -> DerivativeReport:
    """Finite-difference cost slopes against the first-order formula.

    The FD column divides coupled per-path cost differences by the spike
    width, evaluated in the scenario that attains the base upper cost.
    The formula column is the worst-scenario mean of
    g_x(x*_T) z_T + sum_k h_x(t_k, x*_k, u*_k) z_k dt. ``spiked``
    takes the :func:`simulate_spikes` result when the caller already has
    it.
    """
    if any(b >= a for a, b in zip(h_list, h_list[1:])):
        raise ValueError("spike widths must be strictly descending")
    grid = ensemble.grid
    model = ensemble.model
    u_star = ensemble.control
    if not isinstance(u_star, StrictControl):
        raise ValueError("the base control must be strict")
    base_report = cost_from_ensemble(ensemble)
    s_star = base_report.argmax_scenario

    spec0 = SpikeSpec(base=u_star, action_index=action_index, t0=t0, width=grid.dt)
    z_path = solve_variational(ensemble, spec0)
    z = z_path.z
    xT = ensemble.states[:, :, -1]
    formula_paths = np.asarray(model.g_x(xT)) * z[:, :, -1]
    dt = grid.dt
    for k in range(grid.n_steps):
        if k < z_path.k0:
            continue
        t = float(grid.times[k])
        xk = ensemble.states[:, :, k]
        hx = np.asarray(model.h_x(t, xk, float(u_star.values[k]))) + np.zeros_like(xk)
        formula_paths = formula_paths + hx * z[:, :, k] * dt
    um = upper_expectation(list(formula_paths))

    if spiked is None:
        spiked = simulate_spikes(ensemble, action_index, t0, h_list)
    controls = spike_controls(u_star, grid, action_index, t0, h_list)
    reports = batch_costs(model, controls, grid, spiked, ensemble.seed)
    rows = []
    P = ensemble.states.shape[1]
    for h, pert_report in zip(h_list, reports):
        diff = (pert_report.per_path[s_star] - base_report.per_path[s_star]) / float(h)
        rows.append((float(h), float(diff.mean()), float(diff.std(ddof=1) / np.sqrt(P))))
    return DerivativeReport(
        rows=tuple(rows),
        formula=um.value,
        formula_stderr=um.stderr,
        scenario_id=s_star,
    )


def derivative_report_csv(report: DerivativeReport) -> str:
    lines = ["h,FD,FD_stderr,FORMULA,FORMULA_stderr"]
    for h, fd, fd_se in report.rows:
        lines.append(
            f"{repr(float(h))},{repr(float(fd))},{repr(float(fd_se))},"
            f"{repr(float(report.formula))},{repr(float(report.formula_stderr))}"
        )
    return "\n".join(lines) + "\n"
