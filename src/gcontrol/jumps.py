"""Poisson random measures on a finite mark set, and the per-seed driver bundle.

Jumps are simulated as a compound Poisson process: the path's event count
is Poisson with rate ``total_intensity * T``, event times are uniform on
(0, T], and marks are drawn i.i.d. with weights ``nu_i / nu(Gamma)``.
A relaxed control tags each event with an action drawn from its weights
at the event's grid step (a thinning construction, which reproduces the
product compensator exactly). The tag uniforms come from a separate
substream and are drawn once per event, so every control, strict or
relaxed, sees the same base events.

:func:`sample_drivers` samples all of this, plus the Brownian increments,
once per (family, grid, marks, n_paths, seed); every scenario and every
control of a run then share one :class:`Drivers` (common random numbers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from . import scenarios as scen_mod
from .controls import RelaxedControl
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
        if len(np.unique(marks)) != marks.size:
            raise ValueError("marks must be distinct")
        if not np.all(np.isfinite(inten)) or np.any(inten < 0):
            raise ValueError("intensities must be finite and nonnegative")
        marks.setflags(write=False)
        inten.setflags(write=False)
        object.__setattr__(self, "marks", marks)
        object.__setattr__(self, "intensities", inten)

    @property
    def n_marks(self) -> int:
        return self.marks.size

    @property
    def total_intensity(self) -> float:
        return float(self.intensities.sum())


# The largest Poisson mean numpy's sampler accepts; above it the sampler
# raises "lam value too large".
POISSON_MEAN_MAX = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))


def _step_of(times: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Grid step containing each event time in (0, T]."""
    k = np.floor(times / grid.dt).astype(np.int64)
    return np.clip(k, 0, grid.n_steps - 1)


def _index_from_uniform(u: np.ndarray, cum_weights: np.ndarray) -> np.ndarray:
    """Inverse-CDF lookup written so Dirac weights reduce exactly.

    ``cum_weights`` has one row per draw. The returned index counts the
    cumulative weights <= u, so a one-hot weight row at j maps every
    u in [0, 1) to exactly j, with no floating-point rounding involved.
    """
    idx = (u[:, None] >= cum_weights).sum(axis=1)
    return np.minimum(idx, cum_weights.shape[1] - 1)


@dataclass(frozen=True)
class Drivers:
    """The randomness of one (family, grid, marks, n_paths, seed).

    Every dense array is time-major with paths last. ``dB`` holds the
    Brownian increments of every scenario, (n_steps, n_scenarios,
    n_paths), and ``counts`` the events per (step, mark, path). Jump
    events are flat arrays sorted by (path, time): ``path``, ``times``,
    ``mark_idx`` and ``step`` (the grid step holding the event), plus
    one TAGS-substream uniform ``tag_u`` per event that :meth:`tags`
    maps to a relaxed control's action tags.
    """

    seed: int
    dB: np.ndarray
    path: np.ndarray
    times: np.ndarray
    mark_idx: np.ndarray
    step: np.ndarray
    tag_u: np.ndarray
    counts: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.dB.shape[2]

    @property
    def n_events(self) -> int:
        return self.times.size

    def tags(self, mu: RelaxedControl) -> np.ndarray:
        """Action tag of every event under ``mu``, drawn from the step's weights."""
        if mu.n_steps != self.counts.shape[0]:
            raise ValueError("relaxed control and drivers disagree on n_steps")
        cumw = np.cumsum(mu.weights, axis=1)
        return _index_from_uniform(self.tag_u, cumw[self.step])

    def tagged_counts(self, mu: RelaxedControl) -> np.ndarray:
        """Events per (step, mark, action tag, path) under ``mu``.

        The dtype is the smallest signed integer that holds every
        per-step count, which keeps the array small; it is signed so
        that the flow's inverse jump factor ``base ** -count`` cannot wrap.
        """
        K, m, P = self.counts.shape
        dtype = np.min_scalar_type(-int(self.counts.max(initial=0)) - 1)
        out = np.zeros((K, m, mu.grid.n_actions, P), dtype=dtype)
        np.add.at(out, (self.step, self.mark_idx, self.tags(mu), self.path), 1)
        return out


def sample_drivers(
    family: ScenarioFamily, grid: TimeGrid, marks: MarkSpace, n_paths: int, seed: int
) -> Drivers:
    """Sample the Brownian increments, jump events and tag uniforms of a seed.

    Event counts, times and marks are drawn in three vectorized calls on
    the jump substream, so the events depend only on (marks, T, n_paths,
    seed); in particular they are unchanged under grid refinement.
    """
    dB = scen_mod.sample_brownian(family, grid, n_paths, seed)
    gen = rng.substream(seed, rng.JUMPS)
    nu_bar = marks.total_intensity
    if not nu_bar * grid.T <= POISSON_MEAN_MAX:
        raise ValueError(
            f"total intensity times horizon {nu_bar * grid.T!r} exceeds the largest"
            f" Poisson mean {POISSON_MEAN_MAX!r}"
        )
    if nu_bar == 0.0:
        per_path = np.zeros(n_paths, dtype=np.int64)
        times = np.empty(0)
        mark_idx = np.empty(0, dtype=np.int64)
    else:
        per_path = gen.poisson(nu_bar * grid.T, size=n_paths)
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
    counts = np.zeros((grid.n_steps, marks.n_marks, n_paths), dtype=np.int32)
    np.add.at(counts, (step, mark_idx, path), 1)
    for arr in (path, times, mark_idx, step, tag_u, counts):
        arr.setflags(write=False)
    return Drivers(int(seed), dB, path, times, mark_idx, step, tag_u, counts)
