"""Strict and relaxed controls on a finite action grid.

A strict control picks one action per grid step; a relaxed control puts
a probability weight vector over the action grid on every step. Both
expose their per-step ``weights`` (a strict control's are one-hot), the
one view every layer below the kernel reads a control through. The
embedding wraps a strict control's one-hot weights as a relaxed control,
and the chattering construction goes the other way: it converts a
relaxed control into a strict one whose per-block occupation of each
action matches the averaged weights up to one grid step.

A spike switches a strict control to one action on a window of grid
steps, given as its first step and step count. :func:`spike_window` is
the one conversion of a window in time units, [t0, t0 + width), to those
steps; it refuses a window that does not fall on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenarios import TimeGrid

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class ActionGrid:
    """Finite set of actions (scalar suite)."""

    actions: np.ndarray

    def __post_init__(self):
        actions = np.atleast_1d(np.asarray(self.actions, dtype=float))
        if actions.ndim != 1 or actions.size == 0:
            raise ValueError("action grid must be a nonempty flat list")
        if not np.all(np.isfinite(actions)):
            raise ValueError("actions must be finite")
        if len(np.unique(actions)) != actions.size:
            raise ValueError("values must be distinct")
        actions.setflags(write=False)
        object.__setattr__(self, "actions", actions)

    @property
    def n_actions(self) -> int:
        return self.actions.size


@dataclass(frozen=True)
class StrictControl:
    """Piecewise-constant open-loop control: one action index per step."""

    grid: ActionGrid
    indices: np.ndarray

    def __post_init__(self):
        idx = np.atleast_1d(np.asarray(self.indices, dtype=np.int64))
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("control needs at least one step")
        outside = idx[(idx < 0) | (idx >= self.grid.n_actions)]
        if outside.size:
            raise ValueError(f"index {outside[0]} outside the {self.grid.n_actions}-action grid")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    @property
    def n_steps(self) -> int:
        return self.indices.size

    @property
    def values(self) -> np.ndarray:
        return self.grid.actions[self.indices]

    @property
    def weights(self) -> np.ndarray:
        """Read-only one-hot weights (n_steps, n_actions): exact ones at the indices."""
        w = np.zeros((self.n_steps, self.grid.n_actions))
        w[np.arange(self.n_steps), self.indices] = 1.0
        w.setflags(write=False)
        return w


@dataclass(frozen=True)
class RelaxedControl:
    """Per-step probability weights over the action grid."""

    grid: ActionGrid
    weights: np.ndarray

    def __post_init__(self):
        try:
            w = np.asarray(self.weights, dtype=float)
        except ValueError:  # rows of unequal length
            raise ValueError("weights must have shape (n_steps, n_actions)") from None
        if w.ndim != 2 or w.shape[0] == 0:
            raise ValueError("weights must have shape (n_steps, n_actions)")
        if w.shape[1] != self.grid.n_actions:
            raise ValueError(f"rows have {w.shape[1]} entries for {self.grid.n_actions} actions")
        if np.any(w < -_WEIGHT_TOL) or np.any(w > 1 + _WEIGHT_TOL):
            raise ValueError("weights must lie in [0, 1]")
        sums = w.sum(axis=1)
        off = np.flatnonzero(np.abs(sums - 1.0) > _WEIGHT_TOL)
        if off.size:
            raise ValueError(f"row {off[0]} sums to {sums[off[0]]}, not 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n_steps(self) -> int:
        return self.weights.shape[0]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def embed_strict(u: StrictControl) -> RelaxedControl:
    """The Dirac embedding, u's one-hot weights as a relaxed control.

    Tables and kernels run a strict control as it is; the tests compare
    them against this embedding's relaxed run.
    """
    return RelaxedControl(u.grid, u.weights)


def block_length(n_steps: int, n: int) -> int:
    """Steps per block when ``n`` equal blocks tile ``n_steps`` grid steps."""
    if n < 1:
        raise ValueError(f"{n} is below the minimum 1")
    if n_steps % n != 0:
        raise ValueError(f"{n} blocks do not divide n_steps {n_steps}")
    return n_steps // n


def check_ladder(n_list) -> list[int]:
    """The block counts of a chattering ladder, which must strictly increase."""
    n_list = [int(n) for n in n_list]
    if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"entries must be strictly increasing, got {n_list}")
    return n_list


def chattering(mu: RelaxedControl, n: int) -> StrictControl:
    """Strict control matching mu's averaged occupation on n equal blocks.

    Within each block the weights are averaged, each action gets
    floor(average * block_steps) consecutive steps in grid order, and the
    leftover steps go to the largest remainders (ties to the lower action
    index). The occupation error per action per block is below one step.
    """
    K = mu.n_steps
    L = block_length(K, n)
    m = mu.grid.n_actions
    indices = np.empty(K, dtype=np.int64)
    for j in range(n):
        block = slice(j * L, (j + 1) * L)
        quota = mu.weights[block].sum(axis=0)
        base = np.floor(quota).astype(np.int64)
        leftover = L - int(base.sum())
        remainder = quota - base
        order = np.argsort(-remainder, kind="stable")
        base[order[:leftover]] += 1
        indices[block] = np.repeat(np.arange(m), base)
    return StrictControl(grid=mu.grid, indices=indices)


def spike(u: StrictControl, action_index: int, k0: int, span: int) -> StrictControl:
    """``u`` switched to ``action_index`` on its steps k0, ..., k0 + span - 1."""
    if not isinstance(u, StrictControl):
        raise ValueError("spike variations act on strict controls")
    # a Python comparison: an index beyond int64 is refused, not overflowed
    if not 0 <= action_index < u.grid.n_actions:
        raise ValueError(f"index {action_index} outside the {u.grid.n_actions}-action grid")
    if not (0 <= k0 and 1 <= span and k0 + span <= u.n_steps):
        raise ValueError(f"{span} steps from step {k0} leave the control's {u.n_steps} steps")
    idx = u.indices.copy()
    idx[k0 : k0 + span] = action_index
    return StrictControl(grid=u.grid, indices=idx)


def _grid_steps(value: float, dt: float) -> int:
    """``value / dt`` when it is a whole number of steps (to 1e-9), else raise."""
    steps = value / dt
    if not np.isfinite(steps):
        raise ValueError(f"{value} is {steps} steps of dt = {dt!r}, more than any grid has")
    if abs(steps - round(steps)) > 1e-9:
        raise ValueError(f"{value} is not a multiple of dt = {dt!r}")
    return int(round(steps))


def spike_start(t0: float, grid: TimeGrid) -> int:
    """First step of a spike window opening at ``t0``, a grid time before T."""
    k0 = _grid_steps(t0, grid.dt)
    if not 0 <= k0 < grid.n_steps:
        raise ValueError(f"{t0} leaves no step before T = {grid.T}")
    return k0


def spike_window(t0: float, width: float, grid: TimeGrid) -> tuple[int, int]:
    """The window [t0, t0 + width) as (first step, step count), rejecting misalignment.

    The one conversion of a spike from time units to grid steps.
    """
    k0 = spike_start(t0, grid)
    span = _grid_steps(width, grid.dt)
    if span < 1:
        raise ValueError(f"{width} is shorter than dt = {grid.dt!r}")
    if k0 + span > grid.n_steps:
        raise ValueError(f"window [t0, t0 + {width}) ends after T")
    return k0, span


def ekeland_distance(u: StrictControl, v: StrictControl, grid: TimeGrid) -> float:
    """Lebesgue measure of the set where the two controls disagree."""
    if u.n_steps != v.n_steps or u.n_steps != grid.n_steps:
        raise ValueError("controls must share the grid")
    return float(grid.dt * np.count_nonzero(u.values != v.values))


def uniform_relaxed(grid_actions: ActionGrid, n_steps: int) -> RelaxedControl:
    """Equal weights on every action at every step."""
    m = grid_actions.n_actions
    w = np.full((n_steps, m), 1.0 / m)
    return RelaxedControl(grid=grid_actions, weights=w)


def constant_strict(grid_actions: ActionGrid, n_steps: int, index: int) -> StrictControl:
    """The control that plays one action index throughout."""
    return StrictControl(grid=grid_actions, indices=np.full(n_steps, index, dtype=np.int64))
