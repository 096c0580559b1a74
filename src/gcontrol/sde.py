"""Batched Euler simulation of the controlled jump-diffusion, strict and relaxed.

The kernel runs every control of one kind (all strict or all relaxed)
through one time-major pass over a shared :class:`Drivers` bundle, so a
set of controls costs one sampling and one kernel call. There is one
step loop, :func:`_steps`; each control kind supplies only its increment
and its per-step tables: action values and counts for a strict batch,
weights and tagged counts for a relaxed one, each step's counts formed
from its events and its (S, P) Brownian increments from the drivers'
scenario-free draws. The relaxed step averages b and gamma
under the step's weights and evaluates f at each event's action tag;
its weighted sums are accumulated in fixed action order, so a one-hot
(embedded strict) control reproduces the strict simulation bit for bit
under the same seed.

Every operation takes the drivers and the initial state last: the
drivers carry the scenario family, the grid, the mark space, the path
count and the seed they were sampled for, so a run's setting is named
once. Only the runs that the flow or the adjoint read again keep their
whole (n_steps + 1, S, P) states: :func:`simulate` returns them as a
:class:`StateEnsemble`. A caller that needs only a few per-path numbers
of a set of controls (path costs, the spikes' quotient sups) runs them
through :func:`stream_batch`: the kernel updates one step slot in place
and hands each step to the caller's reducer, so the batch never holds
more than one step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence, Union

import numpy as np

from .controls import RelaxedControl, StrictControl
from .jumps import Drivers, MarkSpace
from .models import ModelSpec, ensure_validated
from .scenarios import ScenarioFamily, TimeGrid

Control = Union[StrictControl, RelaxedControl]


@dataclass(frozen=True)
class StateEnsemble:
    """Simulated state paths indexed by (step, scenario, path).

    ``states`` is C-ordered and time-major, shape (n_steps + 1,
    n_scenarios, n_paths), so ``states[k]`` is one contiguous step. The
    bundle keeps everything a downstream consumer needs to reuse the same
    randomness: the
    drivers (whose events give each step's counts, and a relaxed
    control's tags) and the control that produced the run. The run's
    setting (family, grid, marks, seed) is read through the drivers.
    """

    states: np.ndarray
    drivers: Drivers
    model: ModelSpec
    control: Control
    x0: float

    @property
    def seed(self) -> int:
        return self.drivers.seed

    @property
    def family(self) -> ScenarioFamily:
        return self.drivers.family

    @property
    def grid(self) -> TimeGrid:
        return self.drivers.grid

    @property
    def marks(self) -> MarkSpace:
        return self.drivers.marks

    @property
    def n_paths(self) -> int:
        return self.states.shape[2]


def _first_nonfinite(v: np.ndarray) -> tuple[int, ...] | None:
    """The index of the first non-finite entry of ``v`` in C order, or None.

    The index is looked for only once the whole-array check has failed,
    and without an index row per non-finite entry.
    """
    finite = np.isfinite(v)
    if finite.all():
        return None
    return tuple(int(i) for i in np.unravel_index(np.argmin(finite), v.shape))


def _require_finite(v: np.ndarray, what: str) -> None:
    """Raise ``FloatingPointError`` naming ``what`` and the first non-finite scenario."""
    bad = _first_nonfinite(v)
    if bad is not None:
        raise FloatingPointError(f"non-finite {what} under scenario {bad[0]}")


def _check_finite(x: np.ndarray, k: int) -> None:
    """Raise when the (control, scenario, path) states after step k diverged."""
    bad = _first_nonfinite(x)
    if bad is not None:
        c, s, _ = bad
        raise FloatingPointError(
            f"non-finite state after step {k} under scenario {s} of control {c} on "
            f"{int(np.count_nonzero(~np.isfinite(x[c, s])))} paths; the scheme diverged "
            "(check coefficients and dt)"
        )


def _write(X, k, xk, incr, reduce) -> None:
    """Store step k + 1 = xk + incr in its slot, check it, and hand it to ``reduce``."""
    out = X[(k + 1) % len(X)]
    np.add(xk, incr, out=out)
    _check_finite(out, k)
    reduce(k + 1, out)


def _strict_jumps(model, t, xk, uk, marks, ck, dt):
    """The step's jump term ``sum_i f_i dN_i - (sum_i f_i nu_i) dt`` as one array.

    A frame of its own, so the per-mark arrays are freed before the
    kernel forms the drift terms.
    """
    jump_sum = 0.0
    comp_rate = 0.0
    for i in range(marks.n_marks):
        fi = model.f(t, xk, float(marks.marks[i]), uk)
        jump_sum = jump_sum + fi * ck[i]
        comp_rate = comp_rate + fi * marks.intensities[i]
    return jump_sum - comp_rate * dt


def _steps(model, increment, tables, events, drivers, X, reduce) -> None:
    """The one Euler step loop. Under scenario s and control c a step is

        x'  =  x + b(t, x, u_k) dt + sigma(t, x) dB
             + gamma(t, x, u_k) a_k dt
             + sum_i f(t, x, theta_i, u_k) (dN_i - nu_i dt)

    with every coefficient read at the left endpoint and jumps acting on
    the pre-jump state. The control kind supplies ``increment`` and its
    per-step tables: ``tables[:, k]`` holds the controls' step-k action
    values (strict) or weights (relaxed), ``events`` yields each step's
    counts (strict) or its per-mark tagged counts (relaxed, as a function
    of the mark), and ``drivers`` the grid, the marks, the scenarios'
    volatility values ``a_k`` and each step's Brownian increments
    (:meth:`Drivers.step_dB`). Step k lives in
    ``X[k % len(X)]``: X holds every step, or one slot that each step
    updates in place (the update is elementwise), and ``reduce(k, X_k)``
    sees each step once it is written, k = 0, ..., n_steps.
    """
    grid, marks, a_vals = drivers.grid, drivers.marks, drivers.family.values
    dt = grid.dt
    slots = len(X)
    reduce(0, X[0])
    for k, ek in enumerate(events):
        xk = X[k % slots]
        a_dt = (a_vals[:, k] * dt)[:, None]
        # the increment is built in its own frame, so none of its arrays
        # outlives the step
        _write(X, k, xk, increment(model, grid.times[k], xk, tables[:, k], a_dt,
                                   drivers.step_dB(k), marks, ek, dt), reduce)


def _strict_increment(model, t, xk, uk, a_dt, dBk, marks, ck, dt):
    jumps = _strict_jumps(model, t, xk, uk, marks, ck, dt)
    incr = model.b(t, xk, uk) * dt
    incr = incr + model.sigma(t, xk) * dBk
    incr = incr + model.gamma(t, xk, uk) * a_dt
    return incr + jumps


def _mark_counts(drivers, tags, n_actions, k, i):
    """Step k's events of mark i per (action tag, control, path), (A, C, 1, P).

    ``tags`` (C, n_events) holds every control's event tags. One mark at a
    time, so a step never holds the int64 counts of every mark.
    """
    ev = drivers.by_step[drivers.offsets[k]:drivers.offsets[k + 1]]
    ev = ev[drivers.mark_idx[ev] == i]
    C, P = tags.shape[0], drivers.n_paths
    cell = (tags[:, ev] * C + np.arange(C)[:, None]) * P + drivers.path[ev]
    return np.bincount(cell.ravel(), minlength=n_actions * C * P).reshape(n_actions, C, 1, P)


def _relaxed_jumps(model, t, xk, wk, actions, marks, counts, dt):
    """:func:`_strict_jumps` with f at each event's tag and a weight-averaged compensator.

    ``counts(i)`` is mark i's :func:`_mark_counts`.
    """
    jump_sum = 0.0
    comp_rate = 0.0
    for i in range(marks.n_marks):
        th = float(marks.marks[i])
        tk = counts(i)
        jump_i = 0.0
        f_bar = 0.0
        for al in range(actions.size):
            f_ia = model.f(t, xk, th, float(actions[al]))
            jump_i = jump_i + f_ia * tk[al]
            f_bar = f_bar + wk[:, al] * f_ia
        jump_sum = jump_sum + jump_i
        comp_rate = comp_rate + f_bar * marks.intensities[i]
    return jump_sum - comp_rate * dt


def _relaxed_increment(actions, model, t, xk, wk, a_dt, dBk, marks, counts, dt):
    """Weight-averaged b and gamma, f at each event's tag.

    The compensator is the product average sum_i sum_a w_k(a) f(theta_i,
    a) nu_i dt. Sums run over actions in grid order so that one-hot
    weights collapse to the strict expression exactly.
    """
    jumps = _relaxed_jumps(model, t, xk, wk, actions, marks, counts, dt)
    b_bar = 0.0
    g_bar = 0.0
    for al in range(actions.size):
        av = float(actions[al])
        b_bar = b_bar + wk[:, al] * model.b(t, xk, av)
        g_bar = g_bar + wk[:, al] * model.gamma(t, xk, av)
    incr = b_bar * dt
    incr = incr + model.sigma(t, xk) * dBk
    incr = incr + g_bar * a_dt
    return incr + jumps


def stream_batch(
    model: ModelSpec,
    controls: Sequence[Control],
    drivers: Drivers,
    x0: float,
    reduce: Callable[[int, np.ndarray], None],
) -> None:
    """Simulate every control under every scenario on one step slot, updated in place.

    The controls must be all strict or all relaxed. ``reduce(k, x)`` is
    called for k = 0, ..., n_steps in order with the states of step k,
    shape (n_controls, n_scenarios, n_paths); row c has the bits of step
    k of control c's own :func:`simulate` run. The next step overwrites
    ``x`` in place, so a reducer keeps what it derives from ``x``, never
    ``x`` itself.
    """
    _simulate(model, list(controls), drivers, x0, reduce)


def _keep_all(k: int, x: np.ndarray) -> None:
    """The reducer of a run that stores every step: nothing to fold."""


def _simulate(model, controls, drivers, x0, reduce):
    """The kernel on every step (``reduce`` None) or on one slot updated in place.

    Returns the state buffer. A step's counts are formed from its events:
    (m, P) for a strict batch, and for a relaxed one (A, n_controls, 1, P)
    of one mark at a time from every control's event tags.
    """
    ensure_validated(model)
    if not controls:
        raise ValueError("a batch needs at least one control")
    K = drivers.grid.n_steps
    if any(c.n_steps != K for c in controls):
        raise ValueError("controls and grid must agree on n_steps")
    X = np.empty((K + 1 if reduce is None else 1, len(controls),
                  drivers.family.n_scenarios, drivers.n_paths))
    X[0] = x0
    reduce = reduce or _keep_all
    if all(isinstance(c, StrictControl) for c in controls):
        increment = _strict_increment
        tables = np.stack([u.values for u in controls])[:, :, None, None]
        events = (drivers.step_counts(k) for k in range(K))
    elif all(isinstance(c, RelaxedControl) for c in controls):
        actions = controls[0].grid.actions
        if any(not np.array_equal(c.grid.actions, actions) for c in controls):
            raise ValueError("relaxed controls of one batch must share the action grid")
        increment = partial(_relaxed_increment, actions)
        tables = np.stack([mu.weights for mu in controls])[:, :, :, None, None]
        tags = np.stack([drivers.tags(mu) for mu in controls])
        # one mark's counts of one step at a time, broadcast over the scenarios
        events = (partial(_mark_counts, drivers, tags, actions.size, k) for k in range(K))
    else:
        raise ValueError("a batch holds either strict or relaxed controls, not both")
    _steps(model, increment, tables, events, drivers, X, reduce)
    return X


def simulate(model: ModelSpec, control: Control, drivers: Drivers, x0: float) -> StateEnsemble:
    """Simulate one control on the drivers and keep every step.

    Strict and relaxed runs on the same drivers share the Brownian draws
    and the base jump events (tags come from a separate substream), so
    cross-control comparisons are common-random-number pairings. The
    ensemble holds the kernel's own buffer and no counts: a consumer
    forms each step's counts from the drivers' events.
    """
    X = _simulate(model, [control], drivers, x0, None)
    return StateEnsemble(states=X[:, 0], drivers=drivers, model=model, control=control,
                         x0=float(x0))

