"""Batched Euler simulation of the controlled jump-diffusion, strict and relaxed.

:func:`simulate_batch` runs every control of one kind (all strict or all
relaxed) through one time-major pass over a shared :class:`Drivers`
bundle, so a set of controls costs one sampling and one kernel call. The
relaxed step averages b and gamma under the step's weights and evaluates
f at each event's action tag; its weighted sums are accumulated in fixed
action order, so a one-hot (embedded strict) control reproduces the
strict simulation bit for bit under the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from .controls import RelaxedControl, StrictControl
from .jumps import Drivers, MarkSpace, sample_drivers
from .models import ModelSpec, ensure_validated
from .scenarios import ScenarioFamily, TimeGrid

Control = Union[StrictControl, RelaxedControl]


@dataclass(frozen=True)
class StateEnsemble:
    """Simulated state paths indexed by (scenario, path).

    ``states`` has shape (n_scenarios, n_paths, n_steps + 1). The bundle
    keeps everything a downstream consumer needs to reuse the same
    randomness: the drivers, the tagged counts of a relaxed control, and
    the control that produced the run.
    """

    states: np.ndarray
    drivers: Drivers
    tagged_counts: np.ndarray | None
    model: ModelSpec
    family: ScenarioFamily
    grid: TimeGrid
    marks: MarkSpace
    control: Control
    x0: float

    @property
    def counts(self) -> np.ndarray:
        return self.drivers.counts

    @property
    def seed(self) -> int:
        return self.drivers.seed

    @property
    def n_scenarios(self) -> int:
        return self.states.shape[0]

    @property
    def n_paths(self) -> int:
        return self.states.shape[1]

    @property
    def n_steps(self) -> int:
        return self.states.shape[2] - 1


class DistanceReport(NamedTuple):
    sup: np.ndarray  # (n_scenarios, n_paths) per-path sup_t |x1 - x2|
    mean_square: np.ndarray  # (n_scenarios,) cross-path mean of sup^2


def _check_finite(x: np.ndarray, k: int) -> None:
    """Raise when the (control, scenario, path) states after step k diverged."""
    finite = np.isfinite(x)
    if not finite.all():
        bad = ~finite
        c, s = (int(i) for i in np.argwhere(bad.any(axis=2))[0])
        raise FloatingPointError(
            f"non-finite state after step {k} under scenario {s} of control {c} on "
            f"{int(np.count_nonzero(bad[c, s]))} paths; the scheme diverged "
            "(check coefficients and dt)"
        )


def _strict_steps(model, controls, a_vals, grid, marks, dB, counts, X) -> None:
    """One Euler step under scenario s and control c is

        x'  =  x + b(t, x, u_k) dt + sigma(t, x) dB
             + gamma(t, x, u_k) a_k dt
             + sum_i f(t, x, theta_i, u_k) (dN_i - nu_i dt)

    with every coefficient read at the left endpoint and jumps acting on
    the pre-jump state.
    """
    u_vals = np.stack([u.values for u in controls])[:, :, None, None]
    nu = marks.intensities
    theta = marks.marks
    dt = grid.dt
    times = grid.times
    for k in range(grid.n_steps):
        t = times[k]
        a_dt = (a_vals[:, k] * dt)[:, None]
        uk = u_vals[:, k]
        xk = X[k]
        ck = np.ascontiguousarray(counts[:, k].T)
        incr = model.b(t, xk, uk) * dt
        incr = incr + model.sigma(t, xk) * dB[k]
        incr = incr + model.gamma(t, xk, uk) * a_dt
        jump_sum = 0.0
        comp_rate = 0.0
        for i in range(marks.n_marks):
            fi = model.f(t, xk, float(theta[i]), uk)
            jump_sum = jump_sum + fi * ck[i]
            comp_rate = comp_rate + fi * nu[i]
        np.add(xk, incr + (jump_sum - comp_rate * dt), out=X[k + 1])
        _check_finite(X[k + 1], k)


def _relaxed_steps(model, controls, a_vals, grid, marks, dB, tagged, X) -> None:
    """Weight-averaged b and gamma, f at each event's tag.

    The compensator is the product average sum_i sum_a w_k(a) f(theta_i,
    a) nu_i dt. Sums run over actions in grid order so that one-hot
    weights collapse to the strict expression exactly.
    """
    w = np.stack([mu.weights for mu in controls])[:, :, :, None, None]
    nu = marks.intensities
    theta = marks.marks
    actions = controls[0].grid.actions
    dt = grid.dt
    times = grid.times
    for k in range(grid.n_steps):
        t = times[k]
        a_dt = (a_vals[:, k] * dt)[:, None]
        wk = w[:, k]
        xk = X[k]
        b_bar = 0.0
        g_bar = 0.0
        for al in range(actions.size):
            av = float(actions[al])
            b_bar = b_bar + wk[:, al] * model.b(t, xk, av)
            g_bar = g_bar + wk[:, al] * model.gamma(t, xk, av)
        incr = b_bar * dt
        incr = incr + model.sigma(t, xk) * dB[k]
        incr = incr + g_bar * a_dt
        jump_sum = 0.0
        comp_rate = 0.0
        for i in range(marks.n_marks):
            th = float(theta[i])
            jump_i = 0.0
            f_bar = 0.0
            for al in range(actions.size):
                f_ia = model.f(t, xk, th, float(actions[al]))
                jump_i = jump_i + f_ia * tagged[k, i, al]
                f_bar = f_bar + wk[:, al] * f_ia
            jump_sum = jump_sum + jump_i
            comp_rate = comp_rate + f_bar * nu[i]
        np.add(xk, incr + (jump_sum - comp_rate * dt), out=X[k + 1])
        _check_finite(X[k + 1], k)


def simulate_batch(
    model: ModelSpec,
    controls: Sequence[Control],
    family: ScenarioFamily,
    grid: TimeGrid,
    marks: MarkSpace,
    drivers: Drivers,
    x0: float,
) -> np.ndarray:
    """Simulate every control under every scenario on one set of drivers.

    The controls must be all strict or all relaxed. Returns the states
    time-major, shape (n_steps + 1, n_controls, n_scenarios, n_paths);
    row c equals the run of control c alone, bit for bit.
    """
    ensure_validated(model)
    controls = list(controls)
    if not controls:
        raise ValueError("simulate_batch needs at least one control")
    K = grid.n_steps
    if family.n_steps != K or any(c.n_steps != K for c in controls):
        raise ValueError("controls, family and grid must agree on n_steps")
    dB = drivers.dB
    if dB.shape[:2] != (K, family.n_scenarios):
        raise ValueError("drivers were sampled for a different grid or family")
    if drivers.counts.shape[2] != marks.n_marks:
        raise ValueError("drivers were sampled for a different mark space")
    S, P = dB.shape[1:]
    a_vals = family.values
    X = np.empty((K + 1, len(controls), S, P))
    X[0] = x0
    if all(isinstance(c, StrictControl) for c in controls):
        _strict_steps(model, controls, a_vals, grid, marks, dB, drivers.counts, X)
    elif all(isinstance(c, RelaxedControl) for c in controls):
        actions = controls[0].grid.actions
        if any(not np.array_equal(c.grid.actions, actions) for c in controls):
            raise ValueError("relaxed controls of one batch must share the action grid")
        # the smallest integer dtype that holds every per-step count keeps this
        # array, live for the whole pass, small
        dtype = np.min_scalar_type(int(drivers.counts.max(initial=0)))
        tagged = np.zeros((K, marks.n_marks, actions.size, len(controls), 1, P), dtype)
        for c, mu in enumerate(controls):
            np.add.at(tagged, (drivers.step, drivers.mark_idx, drivers.tags(mu), c, 0,
                               drivers.path), 1)
        _relaxed_steps(model, controls, a_vals, grid, marks, dB, tagged, X)
    else:
        raise ValueError("a batch holds either strict or relaxed controls, not both")
    return X


def ensemble_from_batch(
    model: ModelSpec,
    control: Control,
    family: ScenarioFamily,
    grid: TimeGrid,
    marks: MarkSpace,
    drivers: Drivers,
    x0: float,
    states: np.ndarray,
) -> StateEnsemble:
    """Wrap one control's time-major states, shape (n_steps + 1, S, P).

    The states are copied into the C-ordered (S, P, n_steps + 1) layout
    that the ensemble's consumers reduce over, so their sums keep their
    summation order and their bits.
    """
    tagged = drivers.tagged_counts(control) if isinstance(control, RelaxedControl) else None
    return StateEnsemble(
        states=np.ascontiguousarray(np.moveaxis(states, 0, -1)),
        drivers=drivers,
        tagged_counts=tagged,
        model=model,
        family=family,
        grid=grid,
        marks=marks,
        control=control,
        x0=float(x0),
    )


def simulate_with(
    model: ModelSpec,
    control: Control,
    family: ScenarioFamily,
    grid: TimeGrid,
    marks: MarkSpace,
    drivers: Drivers,
    x0: float,
) -> StateEnsemble:
    """Simulate one control on existing drivers."""
    X = simulate_batch(model, [control], family, grid, marks, drivers, x0)
    return ensemble_from_batch(model, control, family, grid, marks, drivers, x0, X[:, 0])


def simulate(
    model: ModelSpec,
    control: Control,
    family: ScenarioFamily,
    grid: TimeGrid,
    marks: MarkSpace,
    n_paths: int,
    seed: int,
    x0: float,
) -> StateEnsemble:
    """Sample the drivers of a seed, then simulate one control.

    Strict and relaxed runs with the same seed share the Brownian draws
    and the base jump events (tags come from a separate substream), so
    cross-control comparisons are common-random-number pairings.
    """
    drivers = sample_drivers(family, grid, marks, n_paths, seed)
    return simulate_with(model, control, family, grid, marks, drivers, x0)


def sup_distance(e1: StateEnsemble, e2: StateEnsemble) -> DistanceReport:
    """Pathwise sup distance and its per-scenario mean square.

    Both ensembles must come from the same seed (common random numbers);
    comparing independently seeded runs would measure noise, not the
    controls' effect.
    """
    if e1.states.shape != e2.states.shape:
        raise ValueError("ensembles have mismatched (scenario, path, step) shape")
    if e1.seed != e2.seed:
        raise ValueError("sup_distance requires common random numbers (equal seeds)")
    diff = np.abs(e1.states - e2.states)
    sup = diff.max(axis=2)
    return DistanceReport(sup=sup, mean_square=(sup**2).mean(axis=1))
