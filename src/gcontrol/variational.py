"""Spike-variation calculus along a simulated ensemble.

Everything here rides the randomness already stored in a state ensemble:
the linearized state z, the forward/inverse fundamental solutions phi and
psi, the impulse process eta, the difference-quotient convergence table,
and the two-sided check of the cost derivative (finite differences vs.
the first-order formula). Reusing the ensemble's noise and jumps is not
an optimization but a requirement; the quantities being compared are
pathwise, and independent randomness would swamp them.

Everything runs and is returned time-major: the states are (K+1, S, P)
and the drivers' increments (K, S, P), so every step forms its growth
factors on contiguous slices, and z, phi, psi and eta come back as
C-ordered (K+1, S, P) arrays. The jump multiplier ``(1 + f_x)^count``
is applied only on the paths that have events in the step (read off
the step's row of the (K, m[, A], P) counts). A path without events
would be multiplied by exactly one, so the result is bit for bit that
of the dense product.
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

    z: np.ndarray  # (n_steps + 1, n_scenarios, n_paths)
    k0: int

    def __post_init__(self):
        if not np.all(np.isfinite(self.z)):
            raise FloatingPointError("variational path is not finite")
        if np.any(self.z[: self.k0] != 0.0):
            raise ValueError("variational path must vanish before the spike")


@dataclass(frozen=True)
class FundamentalPair:
    """Forward flow phi, inverse flow psi, and the spike impulse eta, each (K+1, S, P)."""

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


def _events_by_step(ensemble) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per step: the paths with at least one event, and their counts.

    The counts are the step's row of the (step, mark, path) counts, or
    of the (step, mark, action, path) tagged counts of a relaxed
    ensemble, restricted to those paths.
    """
    per_step = ensemble.counts if ensemble.tagged_counts is None else ensemble.tagged_counts
    out = []
    for ck in per_step:
        paths = np.flatnonzero(ck.reshape(-1, ck.shape[-1]).any(axis=0))
        out.append((paths, ck.take(paths, axis=-1)))
    return out


class _FlowSteps:
    """Multiplicative Euler factors of the linearized flow, step by step.

    The states (K+1, S, P) and the Brownian increments (K, S, P) are
    read one contiguous step at a time. A jump multiplier
    ``prod (1 + f_x)^(+-count)`` is formed only on the paths that have
    events in the step; every other path would be multiplied by
    ``pow(., 0) = 1``, so skipping it leaves the bits unchanged.
    """

    def __init__(self, ensemble: StateEnsemble):
        self.model = ensemble.model
        self.marks = ensemble.marks
        self.grid = ensemble.grid
        self.x = ensemble.states
        self.dB = ensemble.drivers.dB
        self.a = ensemble.family.values
        self.w, self.actions = _weights_and_actions(ensemble.control)
        self.tagged = ensemble.tagged_counts is not None
        self.events = _events_by_step(ensemble)

    def _jump_bases(self, k, t, x):
        """``1 + f_x`` per (mark[, action]) with its event counts on the step's paths.

        The linearization must stay invertible: |1 + f_x| is checked
        against a hard threshold at every mark and action, whether or not
        an event landed there.
        """
        model = self.model
        paths, counts = self.events[k]
        w_k = self.w[k]
        out = []
        for i, th in enumerate(self.marks.marks):
            if self.tagged:
                fxs = [np.asarray(model.f_x(t, x, float(th), float(a))) + np.zeros_like(x)
                       for a in self.actions]
                cols = [counts[i, a_i] for a_i in range(self.actions.size)]
            else:
                fxs = [_avg(model.f_x, t, x, w_k, self.actions, theta=float(th))]
                cols = [counts[i]]
            for fx, c in zip(fxs, cols):
                if np.min(np.abs(1.0 + fx)) < _JUMP_GUARD:
                    raise ValueError(f"jump linearization nearly singular at step {k}, mark {i}")
                if c.any():
                    out.append(((1.0 + fx)[:, paths], c))
        return paths, out

    def factors(self, k: int, *, need_inverse: bool):
        """growth, inverse growth (or None), event paths, and their jump multipliers.

        The multipliers have shape (S, len(paths)); the inverse one is
        None unless ``need_inverse``.
        """
        model = self.model
        dt = self.grid.dt
        t = float(self.grid.times[k])
        x = self.x[k]
        a_k = self.a[:, k][:, None]
        dB = self.dB[k]
        w_k = self.w[k]
        actions = self.actions
        bx = _avg(model.b_x, t, x, w_k, actions)
        sx = np.asarray(model.sigma_x(t, x)) + np.zeros_like(x)
        gx = _avg(model.gamma_x, t, x, w_k, actions)
        comp = np.zeros_like(x)
        for i, th in enumerate(self.marks.marks):
            nu_i = float(self.marks.intensities[i])
            if nu_i > 0.0:
                comp = comp + _avg(model.f_x, t, x, w_k, actions, theta=float(th)) * nu_i
        growth = 1.0 + bx * dt + gx * a_k * dt - comp * dt + sx * dB
        igrowth = None
        if need_inverse:
            igrowth = 1.0 - bx * dt - gx * a_k * dt + comp * dt + sx * sx * a_k * dt - sx * dB
        paths, bases = self._jump_bases(k, t, x)
        jmult = ijmult = None
        for base, c in bases:
            term = base ** c[None, :]
            jmult = term if jmult is None else jmult * term
            if need_inverse:
                iterm = base ** (-c)[None, :]
                ijmult = iterm if ijmult is None else ijmult * iterm
        return growth, igrowth, paths, jmult, ijmult


def _advance(out: np.ndarray, prev: np.ndarray, growth: np.ndarray, paths, jmult) -> None:
    """``out = prev * growth * jump multiplier``, the multiplier on event paths only."""
    np.multiply(prev, growth, out=out)
    if jmult is not None:
        out[:, paths] = out[:, paths] * jmult


def _spike_impulse(ensemble, spec: SpikeSpec, k0: int) -> np.ndarray:
    """First-order state kick of the spike at its opening step.

    Combines the drift change, the volatility-scaled change of the
    quadratic-variation drift, and the compensator change of the jump
    part; coefficients are differenced exactly before any scaling.
    """
    model = ensemble.model
    grid = ensemble.grid
    t = float(grid.times[k0])
    x = ensemble.states[k0]
    base = ensemble.control
    if not isinstance(base, StrictControl):
        raise ValueError("spike variations act on strict controls")
    u_val = float(base.values[k0])
    nu_val = float(base.grid.actions[spec.action_index])
    a_k = ensemble.family.values[:, k0][:, None]
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
    steps = _FlowSteps(ensemble)
    z = np.zeros(ensemble.states.shape)
    z[k0] = _spike_impulse(ensemble, spec, k0)
    for k in range(k0, grid.n_steps):
        growth, _, paths, jmult, _ = steps.factors(k, need_inverse=False)
        _advance(z[k + 1], z[k], growth, paths, jmult)
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
    k0 = None
    if spec is not None:
        _require_same_base(ensemble, spec)
        k0, _ = spike_steps(spec, grid)
    steps = _FlowSteps(ensemble)
    phi = np.empty(ensemble.states.shape)
    psi = np.empty(ensemble.states.shape)
    phi[0] = 1.0
    psi[0] = 1.0
    for k in range(grid.n_steps):
        growth, igrowth, paths, jmult, ijmult = steps.factors(k, need_inverse=True)
        _advance(phi[k + 1], phi[k], growth, paths, jmult)
        _advance(psi[k + 1], psi[k], igrowth, paths, ijmult)
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(psi))):
        raise FloatingPointError("fundamental solutions are not finite")
    eta = np.zeros(ensemble.states.shape)
    if k0 is not None:
        eta[k0:] = psi[k0] * _spike_impulse(ensemble, spec, k0)
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
        y = (spiked[:, j] - ensemble.states) / float(h) - z_path.z
        sup_sq = np.max(y[k0 + span :] ** 2, axis=0)
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
    formula_paths = np.asarray(model.g_x(ensemble.states[-1])) * z[-1]
    dt = grid.dt
    for k in range(grid.n_steps):
        if k < z_path.k0:
            continue
        t = float(grid.times[k])
        xk = ensemble.states[k]
        hx = np.asarray(model.h_x(t, xk, float(u_star.values[k]))) + np.zeros_like(xk)
        formula_paths = formula_paths + hx * z[k] * dt
    um = upper_expectation(list(formula_paths))

    if spiked is None:
        spiked = simulate_spikes(ensemble, action_index, t0, h_list)
    controls = spike_controls(u_star, grid, action_index, t0, h_list)
    reports = batch_costs(model, controls, grid, spiked, ensemble.seed)
    rows = []
    P = ensemble.n_paths
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
