"""Volatility-scenario families and the sublinear expectation they induce.

The driving noise is one-dimensional. The ambiguity set is a finite
family of deterministic piecewise-constant volatility paths ``a_t``
between two scalar bounds, held as one ``(n_scenarios, n_steps)`` array.
Under a fixed scenario the driving noise is a classical Brownian motion
whose step-``k`` increment has variance ``a_k * dt``; the upper
expectation of a payoff is the maximum of its per-scenario means. Noise
is generated once per seed and shared across scenarios (common random
numbers), so scenario comparisons difference out the Monte Carlo noise.
Every reported scenario mean, standard error and worst scenario is
formed by :func:`upper_expectation`, which refuses a non-finite one.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import rng

_ORDER_TOL = 1e-10
# the corner family enumerates 2**min(blocks, n_steps) paths
_MAX_CORNER_BLOCKS = 12


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with ``n_steps`` steps."""

    T: float
    n_steps: int

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")
        if int(self.n_steps) < 1 or int(self.n_steps) != self.n_steps:
            raise ValueError(f"n_steps must be a positive integer, got {self.n_steps}")
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "n_steps", int(self.n_steps))

    @property
    def dt(self) -> float:
        return self.T / self.n_steps

    @functools.cached_property
    def times(self) -> np.ndarray:
        """Grid times, length ``n_steps + 1``, computed once and read-only."""
        times = np.linspace(0.0, self.T, self.n_steps + 1)
        times.setflags(write=False)
        return times


@dataclass(frozen=True)
class VolatilityBounds:
    """Interval [sigma_low, sigma_high] for the step volatility rate."""

    sigma_low: float
    sigma_high: float

    def __post_init__(self):
        low = float(self.sigma_low)
        high = float(self.sigma_high)
        if not low >= -_ORDER_TOL:
            raise ValueError(f"sigma_low must be nonnegative, got {low}")
        if not high > 0:
            raise ValueError(f"sigma_high must be positive, got {high}")
        if not high - low >= -_ORDER_TOL:
            raise ValueError(f"sigma_high {high} is below sigma_low {low}")
        object.__setattr__(self, "sigma_low", low)
        object.__setattr__(self, "sigma_high", high)


@dataclass(frozen=True)
class ScenarioFamily:
    """Finite, ordered stand-in for the ambiguity set of laws.

    ``values[s, k]`` is the volatility rate ``a_k`` of scenario ``s`` on
    step ``k``; every entry lies within the bounds.
    """

    bounds: VolatilityBounds
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[1] < 1:
            raise ValueError(f"scenario values must have shape (m, n_steps), got {vals.shape}")
        if vals.shape[0] == 0:
            raise ValueError("scenario family must be nonempty")
        inside = ((vals - self.bounds.sigma_low >= -_ORDER_TOL)
                  & (self.bounds.sigma_high - vals >= -_ORDER_TOL))
        outside = np.flatnonzero(~inside.all(axis=1))
        if outside.size:
            raise ValueError(f"scenario {outside[0]} leaves the volatility bounds")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n_scenarios(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]

    def scalar_values(self) -> np.ndarray:
        """Scenario values, shape (m, n_steps)."""
        return self.values


class UpperMean(NamedTuple):
    value: float
    scenario_id: int
    stderr: float
    means: np.ndarray  # (S,) per-scenario means
    stderrs: np.ndarray  # (S,) their standard errors


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def build_scenario_family(
    bounds: VolatilityBounds,
    grid: TimeGrid,
    strategy: str = "corners",
    *,
    blocks: int = 2,
    count: int | None = None,
    seed: int | None = None,
) -> ScenarioFamily:
    """Build a finite scenario family.

    ``corners`` enumerates every piecewise-constant path taking the value
    sigma_low or sigma_high on each of ``blocks`` coarse blocks (duplicates
    collapse, so a degenerate interval yields a single scenario). A grid
    of fewer steps than ``blocks`` gives one block per step; more than 12
    blocks after that cap (4096 paths) are refused before anything is
    enumerated.
    ``random`` draws ``count`` paths uniformly on the interval; like the
    corner family it has at most 4096, and a larger ``count`` is refused
    before anything is drawn.
    """
    K = grid.n_steps
    if strategy == "corners":
        if blocks < 1:
            raise ValueError("corner strategy needs at least one block")
        if min(blocks, K) > _MAX_CORNER_BLOCKS:
            raise ValueError(f"blocks {blocks} on {K} steps would enumerate 2**{min(blocks, K)}"
                             f" corner paths; at most {_MAX_CORNER_BLOCKS} blocks are enumerated")
        chunks = np.array_split(np.arange(K), min(blocks, K))
        corners = (bounds.sigma_low, bounds.sigma_high)
        paths: list[np.ndarray] = []
        seen = set()
        for combo in itertools.product(range(2), repeat=len(chunks)):
            vals = np.empty(K)
            for chunk, which in zip(chunks, combo):
                vals[chunk] = corners[which]
            key = vals.tobytes()
            if key in seen:
                continue
            seen.add(key)
            paths.append(vals)
        values = np.stack(paths)
    elif strategy == "random":
        if count is None or count < 1:
            raise ValueError("random strategy needs count >= 1")
        if count > 2**_MAX_CORNER_BLOCKS:
            raise ValueError(f"count {count} is above {2**_MAX_CORNER_BLOCKS}, the most paths"
                             " a corner family has")
        if seed is None:
            raise ValueError("'seed' is a required property when strategy is 'random'")
        u = rng.substream(seed, rng.SCENARIOS).uniform(size=(count, K))
        values = bounds.sigma_low + u * (bounds.sigma_high - bounds.sigma_low)
    else:
        raise ValueError(f"unknown scenario strategy {strategy!r}")
    return ScenarioFamily(bounds=bounds, values=values)


def sample_brownian(family: ScenarioFamily, grid: TimeGrid, n_paths: int, seed: int) -> np.ndarray:
    """Sample the standard-normal draws that drive every scenario's Brownian motion.

    Parameters
    ----------
    family, grid
        Scenario family and the grid its values live on.
    n_paths
        Number of Monte Carlo paths; the draws ``xi`` are generated once
        and reused by every scenario (common random numbers).
    seed
        Substream seed; identical seeds give bit-identical draws.

    Returns
    -------
    np.ndarray
        Read-only, time-major, shape (n_steps, n_paths). Scenario ``s``
        scales step k's row to ``sqrt(a_k^(s)) xi[k] sqrt(dt)``
        (:meth:`gcontrol.jumps.Drivers.step_dB`), so that its step
        variance is ``a_k dt``.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    if family.n_steps != grid.n_steps:
        raise ValueError("family and grid disagree on n_steps")
    draws = rng.substream(seed, rng.BROWNIAN).standard_normal((n_paths, grid.n_steps))
    # drawn path-major, as the seeds were frozen; stored time-major
    xi = np.ascontiguousarray(draws.T)
    xi.setflags(write=False)
    return xi


def upper_expectation(samples: np.ndarray | Sequence[np.ndarray], what: str) -> UpperMean:
    """The worst-case mean: the largest of the per-scenario sample means.

    ``samples`` is (S, P), one row of per-path samples per scenario, or a
    list of equal-length rows. Each row's mean and stderr ``std(ddof=1) /
    sqrt(P)`` are reduced on C-contiguous rows, so a row gives the bits it
    gives alone. Ties go to the lowest scenario id. A mean or stderr that
    is not finite, even from finite samples, raises ``FloatingPointError``
    naming ``what`` and the first such scenario.
    """
    arr = np.ascontiguousarray(samples, dtype=float)
    if len(arr) == 0:
        raise ValueError("upper_expectation needs at least one scenario")
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise ValueError("scenario 0 needs at least 2 samples")
    means = arr.mean(axis=1)
    stderrs = arr.std(axis=1, ddof=1) / np.sqrt(arr.shape[1])
    finite = np.isfinite(means) & np.isfinite(stderrs)
    if not finite.all():
        raise FloatingPointError(f"non-finite {what} under scenario {int(np.argmin(finite))}")
    best = int(np.argmax(means))
    return UpperMean(float(means[best]), best, float(stderrs[best]), means, stderrs)


def generator_G(S, bounds: VolatilityBounds):
    """The volatility-ambiguity generator ``G(S) = max(lo S, hi S) / 2``, elementwise.

    For ``A >= Abar`` it satisfies ``G(A) - G(Abar) >= beta (A - Abar)``
    with ``beta = sigma_low / 2``, because both corners dominate sigma_low.
    """
    S = np.asarray(S, dtype=float)
    return 0.5 * np.maximum(bounds.sigma_low * S, bounds.sigma_high * S)
