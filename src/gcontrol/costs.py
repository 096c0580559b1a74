"""Cost functionals, brute-force value search, and chattering reports.

The cost of a control is the worst-case expectation over the scenario
family of the terminal cost plus the running cost, the latter integrated
by a left-endpoint quadrature to match the forward Euler scheme. Every
operation takes one :class:`~gcontrol.jumps.Drivers` bundle and the
initial state last, and all comparisons between controls run on that
bundle, so differences are coupled path by path rather than being
differences of independent estimates.

There is one quadrature, :class:`_PathCosts`, fed one batch step at a
time, and one place that feeds it: :func:`stream_costs`, which folds
each step into the batch's path costs as the kernel writes it. A strict
batch's running cost is folded once per step on the whole (C, S, P)
slot, with the rows' action values, as the kernel evaluates its
coefficients; a relaxed batch's is mixed row by row under each row's
weights. A set of controls whose paths nothing reads again (a lone
control's cost, brute-force candidates, chattering rungs, spiked
controls, the base of a spike) never holds its trajectories; a run whose
states a later pass reads (the relaxed control of a chattering ladder,
``u_n`` of a near-optimality table) is stored by a reducer handed to
:func:`stream_costs` alongside the cost, so its cost is folded in the
pass that stores it. Rows that share a prefix of actions share its
kernel work (:mod:`gcontrol.sde`): ``mp_check_near`` runs ``u_n`` and its
candidates as one batch, and ``spike_report`` the base of a spike and its
spiked controls, so each spike branches from the base's row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .controls import RelaxedControl, StrictControl, chattering, check_ladder
from .jumps import Drivers
from .models import ModelSpec, _avg, _coeff
from .scenarios import TimeGrid
from .sde import _require_finite, _stored_run, stream_batch

Control = StrictControl | RelaxedControl


@dataclass(frozen=True)
class CostReport:
    scenario_means: np.ndarray
    scenario_stderrs: np.ndarray
    upper_value: float
    argmax_scenario: int
    n_paths: int
    seed: int
    per_path: np.ndarray  # (n_scenarios, n_paths) raw path costs

    def __post_init__(self):
        if np.any(self.scenario_stderrs < 0):
            raise ValueError("standard errors cannot be negative")
        if self.upper_value != float(np.max(self.scenario_means)):
            raise ValueError("upper value must be the max of the scenario means")


@dataclass(frozen=True)
class ValueSearchResult:
    value: float
    minimizer_index: int
    minimizer: Control
    table: tuple  # ((control, J), ...) in enumeration order
    reports: tuple  # CostReport per candidate


class _PathCosts:
    """Left-endpoint quadrature of a batch's per-(control, scenario, path) costs.

    ``add(k, x_k)`` for k = 0, ..., n_steps - 1 in step order, with the
    batch's (C, S, P) step, then ``totals(x_T, ids)``, which raises on a
    non-finite cost, naming the row's label and the scenario. A strict
    batch evaluates h once per step on the whole slot with the rows' (C,
    1, 1) action values, as the strict kernel evaluates b, gamma and f. A
    relaxed batch mixes h under each row's step weights
    (:func:`gcontrol.models._avg`), which skips the zero weights, so its
    rows cannot be stacked bit for bit.
    """

    def __init__(self, model: ModelSpec, controls: Sequence[Control], grid: TimeGrid, shape):
        self.model = model
        self.grid = grid
        self.controls = controls
        self.values = None
        if all(isinstance(u, StrictControl) for u in controls):
            self.values = np.stack([u.values for u in controls])[:, :, None, None]
        self.running = np.zeros((len(controls), *shape))

    def add(self, k: int, x: np.ndarray) -> None:
        t, dt = float(self.grid.times[k]), self.grid.dt
        if self.values is not None:
            self.running += _coeff(self.model.h(t, x, self.values[:, k])) * dt
            return
        for run, u, xc in zip(self.running, self.controls, x):
            run += _avg(self.model.h, t, xc, u.weights[k], u.grid.actions) * dt

    def totals(self, x_T: np.ndarray, ids: Sequence[str]) -> np.ndarray:
        totals = self.running + np.asarray(self.model.g(x_T))
        for c, total in zip(ids, totals):
            _require_finite(total, f"path cost of {c}")
        return totals


def _cost_report(costs: np.ndarray, seed: int) -> CostReport:
    P = costs.shape[1]
    if P < 2:
        raise ValueError("scenario 0 needs at least 2 samples")
    means = costs.mean(axis=1)
    stderrs = costs.std(axis=1, ddof=1) / np.sqrt(P)
    # ties go to the lowest scenario id, as in upper_expectation
    worst = int(np.argmax(means))
    return CostReport(
        scenario_means=means,
        scenario_stderrs=stderrs,
        upper_value=float(means[worst]),
        argmax_scenario=worst,
        n_paths=P,
        seed=seed,
        per_path=costs,
    )


def stream_costs(
    model: ModelSpec, controls: list[Control], drivers: Drivers, x0: float, reduce=None,
    ids: Sequence[str] | None = None,
) -> list[CostReport]:
    """CostReport per control of one kernel batch.

    The batch runs through :func:`stream_batch`, which folds each step
    into the controls' path costs as it is written; ``reduce(k, x)``,
    when given, sees every step of the batch first, shape (n_controls,
    S, P). No trajectory is kept unless ``reduce`` keeps it, as a stored
    run's reducer (:func:`gcontrol.sde._stored_run`) does. The controls
    must be all strict or all relaxed. A non-finite path cost raises,
    naming its scenario and the control's label in ``ids`` (its role, as
    ``"rung n=4"``), by default ``"control i"`` at batch position i.
    """
    K = drivers.grid.n_steps
    sums = _PathCosts(model, controls, drivers.grid, (drivers.family.n_scenarios, drivers.n_paths))
    ids = [f"control {i}" for i in range(len(controls))] if ids is None else ids
    totals = []

    def fold(k: int, x: np.ndarray) -> None:
        if reduce is not None:
            reduce(k, x)
        if k < K:
            sums.add(k, x)
        else:
            totals.extend(sums.totals(x, ids))

    stream_batch(model, controls, drivers, x0, fold)
    return [_cost_report(c, drivers.seed) for c in totals]


def _serial_map(fn, items):
    return [fn(item) for item in items]


def evaluate_costs(
    model: ModelSpec, controls: list[Control], drivers: Drivers, x0: float,
    map_ordered=_serial_map,
) -> list[CostReport]:
    """CostReport per control, in order, from one shared set of drivers.

    The strict controls run as one batch and the relaxed ones as another;
    ``map_ordered(fn, batches)`` runs the batches and returns their
    results in order, so a caller may run them on threads. A non-finite
    path cost names the control by its index in ``controls``.
    """
    batches = [
        [i for i, u in enumerate(controls) if isinstance(u, kind)]
        for kind in (StrictControl, RelaxedControl)
    ]
    batches = [b for b in batches if b]

    def run(batch: list[int]) -> list[CostReport]:
        group = [controls[i] for i in batch]
        return stream_costs(model, group, drivers, x0, ids=[f"control {i}" for i in batch])

    reports: list = [None] * len(controls)
    for batch, batch_reports in zip(batches, map_ordered(run, batches)):
        for i, rep in zip(batch, batch_reports):
            reports[i] = rep
    return reports


def evaluate_cost(model: ModelSpec, control: Control, drivers: Drivers, x0: float) -> CostReport:
    """CostReport of one control on the drivers; no state is stored."""
    return stream_costs(model, [control], drivers, x0)[0]


def value_bruteforce(
    model: ModelSpec, candidates: list[Control], drivers: Drivers, x0: float
) -> ValueSearchResult:
    """Exhaustive search over a finite candidate list on one set of drivers.

    Ties go to the earliest candidate, and the (control, J) table keeps
    the enumeration order so reruns are comparable line by line.
    """
    if not candidates:
        raise ValueError("value search needs at least one candidate control")
    reports = evaluate_costs(model, list(candidates), drivers, x0)
    values = [r.upper_value for r in reports]
    best = int(np.argmin(values))
    return ValueSearchResult(
        value=values[best],
        minimizer_index=best,
        minimizer=candidates[best],
        table=tuple((u, j) for u, j in zip(candidates, values)),
        reports=tuple(reports),
    )


@dataclass(frozen=True)
class ChatteringReport:
    rows: tuple  # (n, msq_gap, cost_gap, cost_gap_se) per block count
    msq_nonincreasing: bool
    cost_nonincreasing: bool
    fitted_C: float
    j_relaxed: float
    j_relaxed_stderr: float
    min_chattering_j: float


def chattering_report(
    model: ModelSpec, mu: RelaxedControl, n_list: list[int], drivers: Drivers, x0: float
) -> ChatteringReport:
    """Approximation quality of chattering controls at several block counts.

    Both gap columns are coupled: the relaxed run and every strict run
    share the drivers, so the mean-square path gap uses pathwise sups and
    the cost gap subtracts matched path costs. Only the relaxed run keeps
    its states, stored in the pass that folds its cost; the rungs are
    streamed, each folded step by step into its path costs and its sup
    distance to the relaxed run.
    """
    n_list = check_ladder(n_list)
    ladder = [chattering(mu, n) for n in n_list]
    base, keep = _stored_run(model, mu, drivers)
    [base_report] = stream_costs(model, [mu], drivers, x0, keep, ids=["the relaxed control"])
    # per rung, the running max over steps of |x_mu - x_n|; max is exact
    # in any order, and each rung's (S, P) slice is C-contiguous
    sups = np.zeros((len(ladder),) + base.states.shape[1:])

    def sup_gap(k: int, x: np.ndarray) -> None:
        np.maximum(sups, np.abs(base.states[k] - x), out=sups)

    reports = stream_costs(model, ladder, drivers, x0, sup_gap, ids=[f"rung n={n}" for n in n_list])
    rows = []
    for sup, n, rep in zip(sups, n_list, reports):
        msq = float(np.max((sup**2).mean(axis=1)))
        gap = abs(rep.upper_value - base_report.upper_value)
        s_star = base_report.argmax_scenario
        diff = rep.per_path[s_star] - base_report.per_path[s_star]
        gap_se = float(diff.std(ddof=1) / np.sqrt(diff.size))
        rows.append((int(n), msq, float(gap), gap_se))
    msq_col = [r[1] for r in rows]
    gap_col = [r[2] for r in rows]
    inv_n = np.array([1.0 / r[0] for r in rows])
    gaps = np.array(gap_col)
    fitted_C = float((gaps * inv_n).sum() / (inv_n**2).sum())
    return ChatteringReport(
        rows=tuple(rows),
        msq_nonincreasing=bool(all(b <= a + 1e-15 for a, b in zip(msq_col, msq_col[1:]))),
        cost_nonincreasing=bool(all(b <= a + 1e-15 for a, b in zip(gap_col, gap_col[1:]))),
        fitted_C=fitted_C,
        j_relaxed=base_report.upper_value,
        j_relaxed_stderr=float(base_report.scenario_stderrs[base_report.argmax_scenario]),
        min_chattering_j=float(min(r.upper_value for r in reports)),
    )
