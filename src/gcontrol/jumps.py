"""Poisson random measures on a finite mark set, and the per-seed driver bundle.

Jumps are simulated as a compound Poisson process: the path's event count
is Poisson with rate ``total_intensity * T``, event times are uniform on
(0, T], and marks are drawn i.i.d. with weights ``nu_i / nu(Gamma)``.
A control tags each event with an action drawn from its weights at the
event's grid step (a thinning construction, which reproduces the product
compensator exactly); a strict control's one-hot weights tag every event
with the action it plays, and an action of zero weight is never drawn.
The tag uniforms come from a separate substream and are drawn once per
event, so every control, strict or relaxed, sees the same base events.

:func:`sample_drivers` samples all of this, plus the standard-normal
draws of the Brownian part, once per (family, grid, marks, n_paths,
seed); every scenario and every control of a run then share one
:class:`Drivers` (common random numbers). The bundle is the one carrier
of that setting: an operation that runs controls takes the drivers and
reads the family, the grid and the marks from them, and a run samples
its drivers once (``experiments.run_document``). A consumer forms step
k's counts from its events (:meth:`Drivers.step_counts` on every path;
:meth:`Drivers.event_path_counts` gives every step's counts per action
tag on its event paths only) and its (S, P) Brownian increments from
the (n_steps, P) draws (:meth:`Drivers.step_dB`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from . import scenarios as scen_mod
from .controls import RelaxedControl, StrictControl
from .scenarios import ScenarioFamily, TimeGrid


@dataclass(frozen=True)
class MarkSpace:
    """Finite mark set with one intensity per mark.

    Intensities may be zero (such marks simply never fire), which keeps
    the empty-activity limit representable.
    """

    marks: np.ndarray
    intensities: np.ndarray

    def __post_init__(self):
        marks = np.atleast_1d(np.asarray(self.marks, dtype=float))
        inten = np.atleast_1d(np.asarray(self.intensities, dtype=float))
        if marks.ndim != 1:
            raise ValueError("marks must be a flat list of points")
        if marks.size == 0:
            raise ValueError("mark space must be nonempty")
        if marks.shape != inten.shape:
            raise ValueError("marks and intensities must have equal length")
        if not np.all(np.isfinite(marks)):
            raise ValueError("values must be finite")
        if len(np.unique(marks)) != marks.size:
            raise ValueError("values must be distinct")
        if not np.all(np.isfinite(inten)) or np.any(inten < 0):
            raise ValueError("intensities must be finite and nonnegative")
        marks.setflags(write=False)
        inten.setflags(write=False)
        object.__setattr__(self, "marks", marks)
        object.__setattr__(self, "intensities", inten)

    def __eq__(self, other):
        return (isinstance(other, MarkSpace) and np.array_equal(self.marks, other.marks)
                and np.array_equal(self.intensities, other.intensities))

    @property
    def n_marks(self) -> int:
        return self.marks.size

    @property
    def total_intensity(self) -> float:
        return float(self.intensities.sum())


# The largest Poisson mean numpy's sampler accepts; above it the sampler
# raises "lam value too large".
POISSON_MEAN_MAX = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))


def poisson_mean(marks: MarkSpace, T: float) -> float:
    """Mean event count per path on [0, T], refused above what the sampler accepts."""
    mean = marks.total_intensity * T
    if not mean <= POISSON_MEAN_MAX:
        raise ValueError(f"total intensity times T is {mean!r},"
                         f" above the largest Poisson mean {POISSON_MEAN_MAX!r}")
    return mean


def _step_of(times: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Grid step containing each event time in (0, T]."""
    k = np.floor(times / grid.dt).astype(np.int64)
    return np.clip(k, 0, grid.n_steps - 1)


def _index_from_uniform(u: np.ndarray, cum_weights: np.ndarray) -> np.ndarray:
    """Inverse-CDF lookup written so Dirac weights reduce exactly.

    ``cum_weights`` has one row per draw. The returned index counts the
    cumulative weights <= u that lie below the row's total, so a one-hot
    weight row at j maps every u in [0, 1) to exactly j, with no
    floating-point rounding involved, and an entry of zero weight is
    never drawn, not even when the row's total rounds below u.
    """
    return ((u[:, None] >= cum_weights) & (cum_weights < cum_weights[:, -1:])).sum(axis=1)


@dataclass(frozen=True)
class Drivers:
    """The randomness of one (family, grid, marks, n_paths, seed).

    ``xi`` holds the standard-normal draws, read-only and time-major
    (n_steps, n_paths), that every scenario scales by its volatility
    values (:meth:`step_dB`). Jump events
    are flat arrays sorted by (path, time): ``path``, ``times``,
    ``mark_idx``, ``step`` (the grid step holding the event) and one
    TAGS-substream uniform ``tag_u`` that :meth:`tags` maps to a relaxed
    control's action tag. Step k's events are
    ``by_step[offsets[k]:offsets[k + 1]]``: a stable sort by step and
    its n_steps + 1 row offsets.
    """

    seed: int
    grid: TimeGrid
    family: ScenarioFamily
    marks: MarkSpace
    xi: np.ndarray
    path: np.ndarray
    times: np.ndarray
    mark_idx: np.ndarray
    step: np.ndarray
    tag_u: np.ndarray
    by_step: np.ndarray
    offsets: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.xi.shape[1]

    @property
    def n_events(self) -> int:
        return self.times.size

    def step_dB(self, k: int) -> np.ndarray:
        """Step k's (n_scenarios, n_paths) increments ``(sqrt(a_k^(s)) xi[k, p]) sqrt(dt)``.

        The step variance under scenario ``s`` is ``a_k dt``.
        """
        a_k = self.family.values[:, k]
        return (np.sqrt(a_k)[:, None] * self.xi[k]) * np.sqrt(self.grid.dt)

    def tags(self, mu: RelaxedControl | StrictControl) -> np.ndarray:
        """Every event's action tag, drawn from ``mu``'s step weights; exact for one-hot rows."""
        if mu.n_steps != self.grid.n_steps:
            raise ValueError("control and drivers disagree on n_steps")
        cumw = np.cumsum(mu.weights, axis=1)
        return _index_from_uniform(self.tag_u, cumw[self.step])

    def step_counts(self, k: int) -> np.ndarray:
        """Step k's events per (mark, path), :func:`numpy.bincount`'s int64."""
        ev = self.by_step[self.offsets[k]:self.offsets[k + 1]]
        shape = (self.marks.n_marks, self.n_paths)
        flat = np.bincount(self.mark_idx[ev] * self.n_paths + self.path[ev],
                           minlength=np.prod(shape))
        return flat.reshape(shape)

    def event_path_counts(self, tags: np.ndarray,
                          n_actions: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every step's event paths and their events per (mark, action tag), on those paths only.

        ``tags`` is every event's tag (:meth:`tags`) on ``n_actions``
        actions. Returns ``(bounds, paths, counts)``: step k's event paths,
        ascending, are ``paths[bounds[k]:bounds[k + 1]]`` and their counts
        the same rows of ``counts``, (n_event_paths, n_marks, n_actions)
        over the run. The counts are signed int64, so the flow's inverse
        jump factor ``base ** -count`` cannot wrap.
        """
        ev = self.by_step
        st, on = self.step[ev], self.path[ev]
        # within a step the events keep their (path, time) order, so a new
        # (step, path) pair starts wherever the step or the path changes
        first = np.ones(ev.size, dtype=bool)
        first[1:] = (st[1:] != st[:-1]) | (on[1:] != on[:-1])
        n_before = np.concatenate([[0], np.cumsum(first)])
        paths = on[first]
        cell = ((n_before[1:] - 1) * self.marks.n_marks + self.mark_idx[ev]) * n_actions + tags[ev]
        counts = np.bincount(cell, minlength=paths.size * self.marks.n_marks * n_actions)
        return (n_before[self.offsets], paths,
                counts.reshape(paths.size, self.marks.n_marks, n_actions))


def sample_drivers(
    family: ScenarioFamily, grid: TimeGrid, marks: MarkSpace, n_paths: int, seed: int
) -> Drivers:
    """Sample the Brownian draws, jump events and tag uniforms of a seed.

    Event counts, times and marks are drawn in three vectorized calls on
    the jump substream, so the events depend only on (marks, T, n_paths,
    seed); in particular they are unchanged under grid refinement.
    """
    xi = scen_mod.sample_brownian(family, grid, n_paths, seed)
    gen = rng.substream(seed, rng.JUMPS)
    nu_bar = marks.total_intensity
    mean = poisson_mean(marks, grid.T)
    if nu_bar == 0.0:
        per_path = np.zeros(n_paths, dtype=np.int64)
        times = np.empty(0)
        mark_idx = np.empty(0, dtype=np.int64)
    else:
        per_path = gen.poisson(mean, size=n_paths)
        total = int(per_path.sum())
        # uniform(0, T) covers [0, T); reflecting it puts times in (0, T]
        times = grid.T - gen.uniform(0.0, grid.T, size=total)
        cum = np.cumsum(marks.intensities / nu_bar)[None, :]
        mark_idx = _index_from_uniform(
            gen.uniform(size=total), np.broadcast_to(cum, (total, marks.n_marks))
        )
    path = np.repeat(np.arange(n_paths), per_path)
    order = np.lexsort((times, path))
    path, times, mark_idx = path[order], times[order], mark_idx[order]
    step = _step_of(times, grid)
    tag_u = rng.substream(seed, rng.TAGS).uniform(size=times.size)
    by_step = np.argsort(step, kind="stable")
    offsets = np.searchsorted(step, np.arange(grid.n_steps + 1), side="left", sorter=by_step)
    for arr in (path, times, mark_idx, step, tag_u, by_step, offsets):
        arr.setflags(write=False)
    return Drivers(int(seed), grid, family, marks, xi, path, times, mark_idx, step, tag_u, by_step,
                   offsets)
