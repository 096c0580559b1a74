"""Batched Euler simulation of the controlled jump-diffusion, strict and relaxed.

The kernel runs every control of one kind (all strict or all relaxed)
through one time-major pass over a shared :class:`Drivers` bundle, so a
set of controls costs one sampling and one kernel call. There is one
step loop, :func:`_steps`; each control kind supplies only its increment
and its per-step tables: action values and counts for a strict batch,
weights and tagged counts for a relaxed one, each step's counts formed
on its event paths (:meth:`Drivers.event_counts`), where ``f dN`` is
added (f is evaluated on every path for the compensator), and its (S,
P) Brownian increments from the drivers' scenario-free draws. The
relaxed step averages b and gamma under the step's weights and
evaluates f at each event's action tag; its weighted sums are
accumulated in fixed action order, so a one-hot (embedded strict)
control reproduces the strict simulation bit for bit under the same seed.

Rows of a batch branch from each other (:func:`_branches`). A spiked
control equals its base up to its window, and a narrower window equals a
wider one up to its end, so a row starts at the first step where its
action values (strict) or weights (relaxed; a step's tags are drawn from
its weights alone) leave those of an earlier row, its parent. Until then
it takes its parent's new state at every step, and only the rows that
have started are stepped. The kernel is elementwise per row, so row c
keeps the bits of control c run alone, whatever else the batch holds.

Every operation takes the drivers and the initial state last: the
drivers carry the scenario family, the grid, the mark space, the path
count and the seed they were sampled for, so a run's setting is named
once. Every run is a pull: the step loop is a generator that updates one
step slot in place, and :func:`_batch_steps` sets it up for a batch, so
a caller takes each step when it wants the next one and can step two
batches in lockstep (``chattering_report`` steps the relaxed control
beside its ladder, ``bsde_stability_report`` replays each rung of its
ladder beside the relaxed control's adjoint). A costed batch
(:class:`gcontrol.costs._PathCosts`) folds each pulled step into its
path costs. A run keeps its whole (n_steps + 1, S, P) states only when a
later pass reads them again (the flow, the adjoint): a stored run copies
each pulled step into a :class:`StateEnsemble` (:func:`_stored_run`,
:func:`simulate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator, Sequence, Union

import numpy as np

from .controls import RelaxedControl, StrictControl
from .jumps import Drivers
from .models import ModelSpec, ensure_validated

Control = Union[StrictControl, RelaxedControl]


@dataclass(frozen=True)
class StateEnsemble:
    """Simulated state paths indexed by (step, scenario, path).

    ``states`` is owned, C-ordered and time-major, shape (n_steps + 1,
    n_scenarios, n_paths), so ``states[k]`` is one contiguous step. The
    bundle keeps everything a downstream consumer needs to reuse the same
    randomness: the drivers (whose events give each step's counts, and a
    relaxed control's tags) and the control that produced the run. The
    run's setting (family, grid, marks, path count, seed) is read through
    its drivers.
    """

    states: np.ndarray
    drivers: Drivers
    model: ModelSpec
    control: Control


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


def _jump_term(jump_sum, comp, paths):
    """``jump_sum - comp`` with ``jump_sum`` on the event paths; elsewhere it is ``+0.0``."""
    out = 0.0 - comp
    out[..., paths] = jump_sum - comp[..., paths]
    return out


def _strict_jumps(model, t, xk, uk, marks, events, dt):
    """The step's jump term ``sum_i f_i dN_i - (sum_i f_i nu_i) dt`` as one array.

    ``events`` is the step's untagged :meth:`Drivers.event_counts`. A
    frame of its own, so the per-mark arrays are freed before the kernel
    forms the drift terms.
    """
    paths, counts = events
    jump_sum = 0.0
    comp_rate = 0.0
    for i in range(marks.n_marks):
        fi = model.f(t, xk, float(marks.marks[i]), uk)
        jump_sum = jump_sum + fi[..., paths] * counts[:, i, 0]
        comp_rate = comp_rate + fi * marks.intensities[i]
    return _jump_term(jump_sum, comp_rate * dt, paths)


def _branches(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each batch row's start step and parent row, from its (C, K, ...) action table.

    A row starts at the first step where its actions differ, bit for bit,
    from an earlier row's, taking the earlier row with the longest shared
    prefix (the lowest on ties) as its parent; a row equal to its parent
    throughout starts at K. Row 0 starts at step 0 and has no parent (-1).
    """
    C, K = table.shape[:2]
    bits = table.reshape(C, K, -1).view(np.int64)
    starts = np.zeros(C, dtype=np.int64)
    parents = np.full(C, -1, dtype=np.int64)
    for c in range(1, C):
        differs = (bits[:c] != bits[c]).any(axis=-1)
        # the steps row c shares with each earlier row before they first differ
        shared = np.where(differs.any(axis=1), differs.argmax(axis=1), K)
        parents[c] = np.argmax(shared)
        starts[c] = shared[parents[c]]
    return starts, parents


def _steps(model, increment, tables, events, drivers, x, starts, parents):
    """The one Euler step loop. Under scenario s and control c a step is

        x'  =  x + b(t, x, u_k) dt + sigma(t, x) dB
             + gamma(t, x, u_k) a_k dt
             + sum_i f(t, x, theta_i, u_k) (dN_i - nu_i dt)

    with every coefficient read at the left endpoint and jumps acting on
    the pre-jump state. The control kind supplies ``increment`` and its
    per-step tables: ``tables[:, k]`` holds the controls' step-k action
    values (strict) or weights (relaxed), ``events(k, rows)`` gives the
    step's :meth:`Drivers.event_counts` for those rows, and ``drivers``
    the grid, the marks, the scenarios' volatility values ``a_k`` and
    each step's Brownian increments (:meth:`Drivers.step_dB`). Every step
    updates the one (C, S, P) slot ``x`` in place (the update is
    elementwise), and ``(k, x)`` is yielded once step k is written and
    checked, k = 0, ..., n_steps; the step after it is computed only when
    the next one is pulled.

    The increment is computed only on the rows that have started
    (``starts <= k``, :func:`_branches`); every other row takes its
    parent's new state, in row order, so a parent is written before its
    children. Before its start a row's actions equal its parent's, so its
    state does too, bit for bit.
    """
    grid, marks, a_vals = drivers.grid, drivers.marks, drivers.family.values
    dt = grid.dt
    yield 0, x
    for k in range(grid.n_steps):
        live = np.flatnonzero(starts <= k)
        # a run of consecutive rows is a view, updated in place
        rows = live
        if live[-1] - live[0] + 1 == live.size:
            rows = slice(live[0], live[-1] + 1)
        xl = x[rows]
        a_dt = (a_vals[:, k] * dt)[:, None]
        # the increment is built in its own frame, so none of its arrays
        # outlives the step
        np.add(xl, increment(model, grid.times[k], xl, tables[rows, k], a_dt,
                             drivers.step_dB(k), marks, events(k, rows), dt), out=xl)
        if live.size < len(x):
            if rows is live:
                x[live] = xl
            for c in np.flatnonzero(starts > k):
                x[c] = x[parents[c]]
        _check_finite(x, k)
        yield k + 1, x


def _strict_increment(model, t, xk, uk, a_dt, dBk, marks, events, dt):
    jumps = _strict_jumps(model, t, xk, uk, marks, events, dt)
    incr = model.b(t, xk, uk) * dt
    incr = incr + model.sigma(t, xk) * dBk
    incr = incr + model.gamma(t, xk, uk) * a_dt
    return incr + jumps


def _relaxed_jumps(model, t, xk, wk, actions, marks, events, dt):
    """:func:`_strict_jumps` with f at each event's tag and a weight-averaged compensator.

    ``events`` is the step's :meth:`Drivers.event_counts` under the
    batch's stacked tags, counts (C, n_event_paths, m, A).
    """
    paths, counts = events
    jump_sum = 0.0
    comp_rate = 0.0
    for i in range(marks.n_marks):
        th = float(marks.marks[i])
        jump_i = 0.0
        f_bar = 0.0
        for al in range(actions.size):
            f_ia = model.f(t, xk, th, float(actions[al]))
            jump_i = jump_i + f_ia[..., paths] * counts[:, None, :, i, al]
            f_bar = f_bar + wk[:, al] * f_ia
        jump_sum = jump_sum + jump_i
        comp_rate = comp_rate + f_bar * marks.intensities[i]
    return _jump_term(jump_sum, comp_rate * dt, paths)


def _relaxed_increment(actions, model, t, xk, wk, a_dt, dBk, marks, events, dt):
    """Weight-averaged b and gamma, f at each event's tag.

    The compensator is the product average sum_i sum_a w_k(a) f(theta_i,
    a) nu_i dt. Sums run over actions in grid order so that one-hot
    weights collapse to the strict expression exactly.
    """
    jumps = _relaxed_jumps(model, t, xk, wk, actions, marks, events, dt)
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


def _batch_steps(
    model: ModelSpec, controls: Sequence[Control], drivers: Drivers, x0: float,
) -> Iterator[tuple[int, np.ndarray]]:
    """Every control under every scenario, one step per pull, on one step slot.

    The controls must be all strict or all relaxed. The model, the batch,
    its tables and its rows' starts and parents (:func:`_branches`) are
    checked and formed when this is called, before any step is pulled;
    the generator :func:`_steps` then runs one step per pull. Each pulled
    ``(k, x)``, k = 0, ..., n_steps, is the slot itself, shape
    (n_controls, n_scenarios, n_paths), whose row c has the bits of step k
    of control c run alone; the next pull overwrites it in place, so a
    consumer keeps what it derives from ``x``, never ``x`` itself.
    """
    ensure_validated(model)
    controls = list(controls)
    if not controls:
        raise ValueError("a batch needs at least one control")
    K = drivers.grid.n_steps
    if any(c.n_steps != K for c in controls):
        raise ValueError("controls and grid must agree on n_steps")
    if all(isinstance(c, StrictControl) for c in controls):
        increment = _strict_increment
        tables = np.stack([u.values for u in controls])[:, :, None, None]

        def events(k, rows):
            return drivers.event_counts(k)
    elif all(isinstance(c, RelaxedControl) for c in controls):
        actions = controls[0].grid.actions
        if any(not np.array_equal(c.grid.actions, actions) for c in controls):
            raise ValueError("relaxed controls of one batch must share the action grid")
        increment = partial(_relaxed_increment, actions)
        # a step's tags are drawn from its weights alone, so rows whose
        # weights agree up to a step agree on their tags too
        tables = np.stack([mu.weights for mu in controls])[:, :, :, None, None]
        tags = np.stack([drivers.tags(mu) for mu in controls])

        def events(k, rows):
            return drivers.event_counts(k, tags[rows], actions.size)
    else:
        raise ValueError("a batch holds either strict or relaxed controls, not both")
    x = np.full((len(controls), drivers.family.n_scenarios, drivers.n_paths), float(x0))
    return _steps(model, increment, tables, events, drivers, x, *_branches(tables))


def _stored_run(model: ModelSpec, control: Control, drivers: Drivers):
    """The ensemble of ``control`` on ``drivers``, and ``keep(k, x)``, which copies in step k."""
    states = np.empty((drivers.grid.n_steps + 1, drivers.family.n_scenarios, drivers.n_paths))

    def keep(k: int, x: np.ndarray) -> None:
        states[k] = x[0]

    return StateEnsemble(states=states, drivers=drivers, model=model, control=control), keep


def simulate(model: ModelSpec, control: Control, drivers: Drivers, x0: float) -> StateEnsemble:
    """Simulate one control on the drivers and keep every step.

    The control's batch is pulled step by step and each step copied into
    the ensemble's own states. Strict and relaxed runs on the same
    drivers share the Brownian draws and the base jump events (tags come
    from a separate substream), so cross-control comparisons are
    common-random-number pairings. The ensemble holds no counts: a
    consumer forms each step's counts from the drivers' events.
    """
    ensemble, keep = _stored_run(model, control, drivers)
    for k, x in _batch_steps(model, [control], drivers, x0):
        keep(k, x)
    return ensemble
