"""Spike-variation calculus along a simulated ensemble.

Everything here rides the randomness already stored in a state ensemble:
the linearized state z, the forward/inverse fundamental solutions phi and
psi, the difference-quotient convergence table, and the two-sided check
of the cost derivative (finite differences vs. the first-order formula).
Reusing the ensemble's noise and jumps is not an optimization but a
requirement; the quantities being compared are pathwise, and independent
randomness would swamp them.

A control is read through its per-step ``weights`` over ``grid.actions``
(one-hot for a strict control) and its events through their action tags
(``Drivers.tags``), which for a strict control are the played indices.
``f_x``, its jump factors and the ``|1 + f_x|`` guard are read only at
the actions of nonzero weight at the step: no other action is tagged or
enters the compensator.

Everything runs and is returned time-major: the states are (K+1, S, P)
and each step's Brownian increments an (S, P) array the drivers form
from their (K, P) draws, so every step forms its growth factors on
contiguous slices, and z comes back as a C-ordered (K+1, S, P) array.
The fundamental solutions phi and psi are never formed whole:
:func:`fundamental_steps` yields them one (S, P) step at a time from two
step slots each, and a consumer that needs them twice (the adjoint core)
runs the flow twice. The flow reads its states one step at a time from
any stream of them (:func:`_flow`): a stored run's rows, or the steps
pulled from a replay of the kernel, which ``bsde_stability_report`` runs
beside each rung instead of keeping the relaxed control's states. The
jump multiplier ``(1 + f_x)^count`` is applied only on the paths that
have events in the step, with the step's counts per (mark, action tag)
formed on those paths only (``Drivers.event_counts``). A path without
events would be multiplied by exactly one, so the result is bit for bit
that of the dense product.

A derivative that is constant in the state stays a scalar through the
step's factors (see ``models._coeff``): each factor is one elementwise
operation per path only where a path-dependent term enters it, and
``1 + f_x`` is read on the event paths only where it depends on the
state. Every elementwise operation is the one the full arrays would run,
so the bits do not change.

A spike is given in grid steps: its action index, its opening step k0
and, for a spiked control, its step count. Its base is the ensemble's
own strict control, so z cannot be solved against another one.
:func:`spike_report` converts its time-unit windows once
(``controls.spike_window``) and stores the base run, whose whole states
z, the flow and the formula column read at every step, in the pass that
folds its path costs. It solves z once (it depends only on the spike's
opening step) and streams the spikes through the kernel, folding each
step into their path costs and their quotient sups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .controls import StrictControl, spike, spike_window
from .costs import stream_costs
from .jumps import Drivers
from .models import ModelSpec, _avg, _coeff, _mix
from .scenarios import upper_expectation
from .sde import Control, StateEnsemble, _first_nonfinite, _stored_run

_JUMP_GUARD = 1e-6


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


class _FlowSteps:
    """Multiplicative Euler factors of the linearized flow of one control, step by step.

    Each step's (S, P) state is handed in by the caller, and its (S, P)
    Brownian increments are formed from the drivers. A jump multiplier
    ``prod (1 + f_x)^(+-count)`` is formed only on the paths that have
    events in the step; every other path would be multiplied by
    ``pow(., 0) = 1``, so skipping it leaves the bits unchanged. ``f_x``
    is evaluated once per (mark, action of nonzero weight) and step, and
    the compensator and the jump multipliers share it.
    """

    def __init__(self, model: ModelSpec, control: Control, drivers: Drivers):
        self.model = model
        self.marks = drivers.marks
        self.grid = drivers.grid
        self.a = drivers.family.values
        self.w = control.weights
        self.actions = control.grid.actions
        self.drivers = drivers
        self.tags = drivers.tags(control)

    def _jump_derivatives(self, t, x, w_k):
        """``f_x`` per mark, as a map from each action of nonzero weight to its value."""
        f_x, actions = self.model.f_x, self.actions
        live = [a_i for a_i, wa in enumerate(map(float, w_k)) if wa != 0.0]
        return [{a_i: _coeff(f_x(t, x, float(th), float(actions[a_i]))) for a_i in live}
                for th in self.marks.marks]

    def _jump_bases(self, k, x, fxs):
        """``1 + f_x`` per (mark, action) with its event counts on the step's event paths.

        ``fxs`` is :meth:`_jump_derivatives` of the step. The
        linearization must stay invertible: |1 + f_x| is checked against
        a hard threshold at every mark and every action of nonzero
        weight, whether or not an event landed there. A base that is
        constant in the state stays a scalar; one that is not is read on
        the event paths only.
        """
        paths, counts = self.drivers.event_counts(k, self.tags, self.actions.size)
        fired = counts.any(axis=0)
        out = []
        for i, fx_i in enumerate(fxs):
            for a_i, fx in fx_i.items():
                base = 1.0 + fx
                scalar = np.ndim(base) == 0
                if (abs(base) if scalar else np.min(np.abs(base))) < _JUMP_GUARD:
                    raise ValueError(f"jump linearization nearly singular at step {k}, mark {i}")
                if fired[i, a_i]:
                    out.append((base if scalar else np.broadcast_to(base, x.shape)[:, paths],
                                counts[:, i, a_i]))
        return paths, out

    def factors(self, k: int, x: np.ndarray, *, need_inverse: bool):
        """growth, inverse growth (or None), event paths, and their jump multipliers.

        ``x`` is step k's (S, P) state; nothing returned is a view of it,
        so the caller may overwrite it once the factors are formed. The
        multipliers have shape (S, len(paths)), or (1, len(paths))
        when every base is a scalar; the inverse one is None unless
        ``need_inverse``.
        """
        model = self.model
        dt = self.grid.dt
        t = float(self.grid.times[k])
        a_k = self.a[:, k][:, None]
        dB = self.drivers.step_dB(k)
        w_k = self.w[k]
        actions = self.actions
        bx = _avg(model.b_x, t, x, w_k, actions)
        sx = _coeff(model.sigma_x(t, x))
        gx = _avg(model.gamma_x, t, x, w_k, actions)
        fxs = self._jump_derivatives(t, x, w_k)
        comp = 0.0
        for fx_i, nu_i in zip(fxs, map(float, self.marks.intensities)):
            if nu_i > 0.0:
                comp = comp + _mix(w_k, fx_i.__getitem__) * nu_i
        bx_dt = bx * dt
        gx_dt = gx * a_k * dt
        comp_dt = comp * dt
        sx_dB = sx * dB
        growth = 1.0 + bx_dt + gx_dt - comp_dt + sx_dB
        igrowth = None
        if need_inverse:
            igrowth = 1.0 - bx_dt - gx_dt + comp_dt + sx * sx * a_k * dt - sx_dB
        paths, bases = self._jump_bases(k, x, fxs)
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


def _spike_impulse(ensemble, action_index: int, k0: int) -> np.ndarray:
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
    u_val = float(base.values[k0])
    nu_val = float(base.grid.actions[action_index])
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


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def solve_variational(ensemble: StateEnsemble, action_index: int, k0: int) -> np.ndarray:
    """Linearized response z to a spike of the ensemble's control, along its own paths.

    The spike switches the strict control to ``action_index`` from step
    ``k0``. z, a (K+1, S, P) array, is zero before that step, receives
    the impulse there, and then follows the same multiplicative Euler
    factors as the forward fundamental solution. A step of z that is not
    finite raises ``FloatingPointError`` naming the step and the scenario.
    """
    spike(ensemble.control, action_index, k0, 1)  # a strict control, an index and a step
    steps = _FlowSteps(ensemble.model, ensemble.control, ensemble.drivers)
    z = np.zeros(ensemble.states.shape)
    z[k0] = _spike_impulse(ensemble, action_index, k0)
    for k in range(k0, ensemble.grid.n_steps):
        growth, _, paths, jmult, _ = steps.factors(k, ensemble.states[k], need_inverse=False)
        _advance(z[k + 1], z[k], growth, paths, jmult)
    bad = _first_nonfinite(z)
    if bad is not None:
        k, s, _ = bad
        raise FloatingPointError(f"variational path is not finite at step {k} under scenario {s}")
    return z


def _flow(model: ModelSpec, control: Control, drivers: Drivers, states: Iterable[np.ndarray], *,
          need_inverse: bool) -> Iterator[tuple]:
    """The flow of ``control`` along any stream of its states, one step at a time.

    ``states`` yields the (S, P) states of steps 0, ..., n_steps in
    order: a stored run's rows, or the steps pulled from a kernel replay
    (``sde._batch_steps``), which overwrites each step in place with the
    next. So step k's factors are formed from ``x_{k-1}`` before ``x_k``
    is pulled. Yields ``(k, x_k, phi_k, psi_k)``, with the slots and the
    checks of :func:`fundamental_steps`.
    """
    steps = _FlowSteps(model, control, drivers)
    states = iter(states)
    phi = np.ones((2, drivers.family.n_scenarios, drivers.n_paths))
    psi = np.ones(phi.shape) if need_inverse else None
    x = next(states)
    for k in range(drivers.grid.n_steps + 1):
        now = k % 2
        if k > 0:
            growth, igrowth, paths, jmult, ijmult = steps.factors(k - 1, x,
                                                                  need_inverse=need_inverse)
            x = next(states)
            _advance(phi[now], phi[1 - now], growth, paths, jmult)
            if need_inverse:
                _advance(psi[now], psi[1 - now], igrowth, paths, ijmult)
        phi_k = phi[now]
        psi_k = psi[now] if need_inverse else None
        bad = [(idx[0], name) for name, v in (("phi", phi_k), ("psi", psi_k))
               if v is not None and (idx := _first_nonfinite(v)) is not None]
        if bad:
            s, name = min(bad)
            raise FloatingPointError(
                f"fundamental solutions are not finite: {name} at step {k} under scenario {s}")
        yield k, x, phi_k, psi_k


def fundamental_steps(ensemble: StateEnsemble, *, need_inverse: bool) -> Iterator[tuple]:
    """Forward and inverse fundamental solutions of the linearized flow, one step at a time.

    Yields ``(k, phi_k, psi_k)`` for k = 0, ..., n_steps, each (S, P);
    ``psi_k`` is None unless ``need_inverse``. phi and psi start at one
    and evolve by reciprocal Euler factors, so phi * psi drifts from one
    only at the scheme's order. Each lives in two step slots that the
    steps alternate between: a yielded step stays valid while the next
    one is read and is overwritten by the one after, so a consumer that
    keeps a step longer copies it. A step that is not finite raises
    ``FloatingPointError`` naming the solution, the step and the first
    scenario, before it is handed on. The states are the ensemble's
    stored rows, read through :func:`_flow`.
    """
    flow = _flow(ensemble.model, ensemble.control, ensemble.drivers, ensemble.states,
                 need_inverse=need_inverse)
    return ((k, phi_k, psi_k) for k, _, phi_k, psi_k in flow)


def check_widths(h_list) -> list[float]:
    """Spike widths, at least one, which must strictly descend."""
    h_list = list(h_list)
    if not h_list:
        raise ValueError("a spike report needs at least one width")
    if any(b >= a for a, b in zip(h_list, h_list[1:])):
        raise ValueError(f"widths must be strictly descending, got {h_list}")
    return h_list


def _require_finite_mean(value: float, stderr: float, what: str, scenario: int) -> None:
    """Raise ``FloatingPointError`` when a reported mean or its stderr is not finite."""
    if not (np.isfinite(value) and np.isfinite(stderr)):
        raise FloatingPointError(f"non-finite {what} under scenario {scenario}")


def spike_report(
    model: ModelSpec, u_star: StrictControl, action_index: int, t0: float,
    h_list: list[float], drivers: Drivers, x0: float,
) -> tuple[DerivativeReport, tuple[QuotientRow, ...]]:
    """The cost slopes and the difference-quotient gaps of one set of spikes of ``u_star``.

    The base run is stored in the pass that folds its path costs, and z,
    which depends on the spike's opening step only, is solved once for
    every width. The spiked controls run as one batch through
    :func:`stream_costs`, each step folded into their path costs and
    quotient sups as the kernel writes it; a narrower window equals the
    widest one until it closes, so the kernel branches it from the
    widest's row there. ``t0`` and the widths, which
    must descend, are converted to grid steps once; an empty width list, a
    window off the grid, a bad index or a relaxed ``u_star`` is refused
    before any kernel work.

    The derivative report holds the Gateaux slopes: its FD column divides
    coupled per-path cost differences by the spike width, in the scenario
    that attains the base upper cost, and its formula is the
    worst-scenario mean of g_x(x*_T) z_T + sum_k h_x(t_k, x*_k, u*_k) z_k dt.
    Each quotient row is the worst-scenario mean of
    sup_t |(x^h - x*)/h - z|^2 for one width; the sup runs over grid times
    from the end of the spike window to T, since inside the window the
    quotient has not yet absorbed the full kick, and including it would
    measure the window itself, not convergence. A slope, formula or quotient that
    overflows raises ``FloatingPointError`` naming it, its width and its scenario.
    """
    h_list = [float(h) for h in check_widths(h_list)]
    grid = drivers.grid
    windows = [spike_window(t0, h, grid) for h in h_list]
    controls = [spike(u_star, action_index, k0, span) for k0, span in windows]
    k0 = windows[0][0]
    ensemble, keep = _stored_run(model, u_star, drivers)
    [base_report] = stream_costs(model, [u_star], drivers, x0, keep, ids=["the base control"])
    s_star = base_report.argmax_scenario

    z = solve_variational(ensemble, action_index, k0)
    formula_paths = np.asarray(model.g_x(ensemble.states[-1])) * z[-1]
    dt = grid.dt
    for k in range(k0, grid.n_steps):
        t = float(grid.times[k])
        xk = ensemble.states[k]
        hx = _coeff(model.h_x(t, xk, float(u_star.values[k])))
        formula_paths = formula_paths + hx * z[k] * dt
    um = upper_expectation(list(formula_paths))

    # the quotient's sup runs from the end of each spike window to T
    ends = [k0 + span for k0, span in windows]
    sups = np.zeros((len(h_list),) + ensemble.states.shape[1:])

    def quotient(k: int, x: np.ndarray) -> None:
        for j, h in enumerate(h_list):
            if k >= ends[j]:
                y = (x[j] - ensemble.states[k]) / h - z[k]
                np.maximum(sups[j], y**2, out=sups[j])

    reports = stream_costs(model, controls, drivers, x0, quotient,
                           ids=[f"spike h={h}" for h in h_list])
    rows = []
    P = ensemble.n_paths
    for h, pert_report in zip(h_list, reports):
        diff = (pert_report.per_path[s_star] - base_report.per_path[s_star]) / h
        rows.append((h, float(diff.mean()), float(diff.std(ddof=1) / np.sqrt(P))))
        _require_finite_mean(*rows[-1][1:], f"finite-difference slope of width h={h!r}", s_star)
    _require_finite_mean(um.value, um.stderr, "first-order formula of the slope", um.scenario_id)
    derivative = DerivativeReport(
        rows=tuple(rows),
        formula=um.value,
        formula_stderr=um.stderr,
        scenario_id=s_star,
    )
    quotients = []
    for h, sup_sq in zip(h_list, sups):
        um = upper_expectation(list(sup_sq))
        _require_finite_mean(um.value, um.stderr, f"quotient sup of width h={h!r}", um.scenario_id)
        quotients.append(QuotientRow(h, um.value, um.stderr, um.scenario_id))
    return derivative, tuple(quotients)
