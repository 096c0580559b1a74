"""Spike-variation calculus along a simulated ensemble.

Everything here rides the randomness of one drivers bundle: the
linearized state z, the forward/inverse fundamental solutions phi and
psi, the difference-quotient convergence table, and the two-sided check
of the cost derivative (finite differences vs. the first-order formula).
Reusing the drivers' noise and jumps is not an optimization but a
requirement; the quantities being compared are pathwise, and independent
randomness would swamp them.

A control is read through its per-step ``weights`` over ``grid.actions``
(one-hot for a strict control) and its events through their action tags
(``Drivers.tags``), which for a strict control are the played indices.
``f_x``, its jump factors and the ``|1 + f_x|`` guard are read only at
the actions of nonzero weight at the step: no other action is tagged or
enters the compensator.

Everything runs time-major: the states are (K+1, S, P) and each step's
Brownian increments an (S, P) array the drivers form from their (K, P)
draws, so every step forms its growth factors on contiguous slices.
The fundamental solutions phi and psi are never formed whole:
:func:`fundamental_steps` yields them one (S, P) step at a time from two
step slots each, and a consumer that needs them twice (the adjoint core)
runs the flow twice. A consumer that reads ``psi`` alone asks for no
``phi``, and the flow then forms neither ``phi`` nor its factors. The
flow reads its states one step at a time from any stream of them
(:func:`_flow`): a stored run's rows, or the steps pulled from a replay
of the kernel, which ``bsde_stability_report`` runs for each rung beside
the relaxed control's adjoint instead of keeping the rung's states. The
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
and, for a spiked control, its step count. :func:`spike_report` converts
its time-unit windows once (``controls.spike_window``) and runs the base
control and its spikes as one kernel batch, the base as row 0, so each
spike branches from an earlier row and no run is stored. z depends only
on the spike's opening step, so the batch's reducer advances it once for
every width, in two step slots, from the base's row of each step before
the kernel overwrites it; the spikes' rows are folded into their path
costs and their quotient sups as they are written. The formula's
summands are kept in one (K+1, S, P) buffer and summed after the run,
the terminal one first, in the order of the whole-array formula.
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
from .sde import Control, StateEnsemble, _first_nonfinite

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

    def factors(self, k: int, x: np.ndarray, *, need_inverse: bool, need_forward: bool):
        """growth, inverse growth, event paths, and their jump multipliers.

        ``x`` is step k's (S, P) state; nothing returned is a view of it,
        so the caller may overwrite it once the factors are formed. The
        multipliers have shape (S, len(paths)), or (1, len(paths))
        when every base is a scalar. The forward growth and multiplier
        are None unless ``need_forward``, the inverse ones unless
        ``need_inverse``; either side's bits do not depend on whether the
        other is formed.
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
        growth = igrowth = None
        if need_forward:
            growth = 1.0 + bx_dt + gx_dt - comp_dt + sx_dB
        if need_inverse:
            igrowth = 1.0 - bx_dt - gx_dt + comp_dt + sx * sx * a_k * dt - sx_dB
        paths, bases = self._jump_bases(k, x, fxs)
        jmult = ijmult = None
        for base, c in bases:
            if need_forward:
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


def _spike_impulse(model: ModelSpec, base: StrictControl, drivers: Drivers, action_index: int,
                   k0: int, x: np.ndarray) -> np.ndarray:
    """First-order state kick of the spike at its opening step, from the base's (S, P) state there.

    Combines the drift change, the volatility-scaled change of the
    quadratic-variation drift, and the compensator change of the jump
    part; coefficients are differenced exactly before any scaling.
    """
    t = float(drivers.grid.times[k0])
    u_val = float(base.values[k0])
    nu_val = float(base.grid.actions[action_index])
    a_k = drivers.family.values[:, k0][:, None]
    db = np.asarray(model.b(t, x, nu_val)) - np.asarray(model.b(t, x, u_val))
    dg = np.asarray(model.gamma(t, x, nu_val)) - np.asarray(model.gamma(t, x, u_val))
    out = db + dg * a_k
    for i, th in enumerate(drivers.marks.marks):
        nu_i = float(drivers.marks.intensities[i])
        if nu_i > 0.0:
            df = np.asarray(model.f(t, x, float(th), nu_val)) - np.asarray(
                model.f(t, x, float(th), u_val)
            )
            out = out - df * nu_i
    return out + np.zeros_like(x)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _flow(model: ModelSpec, control: Control, drivers: Drivers, states: Iterable[np.ndarray], *,
          need_inverse: bool, need_forward: bool = True) -> Iterator[tuple]:
    """The flow of ``control`` along any stream of its states, one step at a time.

    ``states`` yields the (S, P) states of steps 0, ..., n_steps in
    order: a stored run's rows, or the steps pulled from a kernel replay
    (``sde._batch_steps``), which overwrites each step in place with the
    next. So step k's factors are formed from ``x_{k-1}`` before ``x_k``
    is pulled. Yields ``(k, x_k, phi_k, psi_k)``, with the slots and the
    checks of :func:`fundamental_steps`. Without ``need_forward`` the
    forward flow is not formed, its factors neither, and ``phi_k`` is
    None: a consumer that reads only the states and ``psi``, such as a
    rung's replay in ``bsde_stability_report``, keeps ``psi``'s two slots
    alone, and a ``phi`` that overflows goes unnamed there.
    """
    steps = _FlowSteps(model, control, drivers)
    states = iter(states)
    shape = (2, drivers.family.n_scenarios, drivers.n_paths)
    phi = np.ones(shape) if need_forward else None
    psi = np.ones(shape) if need_inverse else None
    x = next(states)
    for k in range(drivers.grid.n_steps + 1):
        now = k % 2
        if k > 0:
            growth, igrowth, paths, jmult, ijmult = steps.factors(
                k - 1, x, need_inverse=need_inverse, need_forward=need_forward)
            x = next(states)
            if need_forward:
                _advance(phi[now], phi[1 - now], growth, paths, jmult)
            if need_inverse:
                _advance(psi[now], psi[1 - now], igrowth, paths, ijmult)
        phi_k = phi[now] if need_forward else None
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

    ``u_star`` and its spiked controls run as one batch through
    :func:`stream_costs`, ``u_star`` as row 0: each spike equals it until
    its window opens, and a narrower window equals the widest one until
    it closes, so the kernel branches each spike from an earlier row
    there. No run is stored. From the spike's opening step on, the
    batch's reducer reads the base state from row 0 and advances z,
    which depends on the opening step only, once for every width, in two
    step slots; it folds each spike row into its quotient sup and writes
    the formula's summand of the step into one (K+1, S, P) buffer. ``t0``
    and the widths, which must descend, are converted to grid steps once;
    an empty width list, a window off the grid, a bad index or a relaxed
    ``u_star`` is refused before any kernel work.

    The derivative report holds the Gateaux slopes: its FD column divides
    coupled per-path cost differences by the spike width, in the scenario
    that attains the base upper cost, and its formula is the
    worst-scenario mean of g_x(x*_T) z_T + sum_k h_x(t_k, x*_k, u*_k) z_k dt,
    summed in that order after the run. Each quotient row is the
    worst-scenario mean of sup_t |(x^h - x*)/h - z|^2 for one width; the
    sup runs over grid times from the end of the spike window to T, since
    inside the window the quotient has not yet absorbed the full kick,
    and including it would measure the window itself, not convergence. A
    step of z that is not finite raises ``FloatingPointError`` naming the
    step and the scenario, and so does a slope, formula or quotient that
    overflows, naming it, its width and its scenario.
    """
    h_list = [float(h) for h in check_widths(h_list)]
    grid = drivers.grid
    windows = [spike_window(t0, h, grid) for h in h_list]
    controls = [spike(u_star, action_index, k0, span) for k0, span in windows]
    k0 = windows[0][0]
    K, dt = grid.n_steps, grid.dt
    shape = (drivers.family.n_scenarios, drivers.n_paths)
    steps = _FlowSteps(model, u_star, drivers)
    z = np.empty((2,) + shape)  # z_k in slot k % 2
    # h_x z_k dt in row k and g_x(x*_T) z_T in row K: the formula sums the
    # terminal row first, so the rows are kept until the run ends. All K + 1
    # rows are allocated, though those before k0 stay unused: freeing a
    # block the size of a state array lets glibc serve a later run's state
    # arrays from freed heap (a smaller buffer raised a later peak RSS)
    terms = np.empty((K + 1,) + shape)
    # the quotient's sup runs from the end of each spike window to T
    ends = [k0 + span for k0, span in windows]
    sups = np.zeros((len(h_list),) + shape)

    def fold(k: int, x: np.ndarray) -> None:
        if k < k0:
            return
        base = x[0]
        if k == k0:
            z[k % 2] = _spike_impulse(model, u_star, drivers, action_index, k0, base)
        z_k = z[k % 2]
        bad = _first_nonfinite(z_k)
        if bad is not None:
            raise FloatingPointError(
                f"variational path is not finite at step {k} under scenario {bad[0]}")
        for j, h in enumerate(h_list):
            if k >= ends[j]:
                y = (x[j + 1] - base) / h - z_k
                np.maximum(sups[j], y**2, out=sups[j])
        if k == K:
            terms[K] = np.asarray(model.g_x(base)) * z_k
            return
        hx = _coeff(model.h_x(float(grid.times[k]), base, float(u_star.values[k])))
        terms[k] = hx * z_k * dt
        # step k's factors read the base state before the kernel overwrites it
        growth, _, paths, jmult, _ = steps.factors(k, base, need_inverse=False, need_forward=True)
        _advance(z[1 - k % 2], z_k, growth, paths, jmult)

    base_report, *reports = stream_costs(
        model, [u_star] + controls, drivers, x0, fold,
        ids=["the base control"] + [f"spike h={h}" for h in h_list])
    s_star = base_report.argmax_scenario
    formula_paths = terms[K]
    for k in range(k0, K):
        formula_paths = formula_paths + terms[k]
    um = upper_expectation(list(formula_paths))
    rows = []
    P = drivers.n_paths
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
