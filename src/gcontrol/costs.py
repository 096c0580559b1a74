"""Cost functionals, brute-force value search, and chattering reports.

The cost of a control is the worst-case expectation over the scenario
family of the terminal cost plus the running cost, the latter integrated
by a left-endpoint quadrature to match the forward Euler scheme. All
comparisons between controls reuse one seed, so differences are coupled
path by path rather than being differences of independent estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controls import RelaxedControl, StrictControl, chattering
from .jumps import Drivers, MarkSpace, sample_drivers
from .models import ModelSpec
from .scenarios import ScenarioFamily, TimeGrid, upper_expectation
from .sde import StateEnsemble, simulate, simulate_batch

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


def _path_costs(
    model: ModelSpec, control: Control, grid: TimeGrid, states: np.ndarray
) -> np.ndarray:
    """Per-(scenario, path) cost of time-major states, shape (n_steps + 1, S, P).

    Left-endpoint running cost plus terminal cost. For a relaxed control
    the running cost at each step is the weighted average of h over the
    action grid.
    """
    dt = grid.dt
    running = np.zeros(states.shape[1:])
    if isinstance(control, RelaxedControl):
        actions = control.grid.actions
        for k in range(grid.n_steps):
            xk = states[k]
            t = float(grid.times[k])
            hk = np.zeros_like(xk)
            for a_i, a in enumerate(actions):
                w = control.weights[k, a_i]
                if w != 0.0:
                    hk = hk + w * np.asarray(model.h(t, xk, a))
            running += hk * dt
    else:
        values = control.values
        for k in range(grid.n_steps):
            xk = states[k]
            t = float(grid.times[k])
            running += np.asarray(model.h(t, xk, float(values[k]))) * dt
    total = running + np.asarray(model.g(states[-1]))
    if not np.all(np.isfinite(total)):
        raise FloatingPointError("cost evaluation produced non-finite values")
    return total


def _cost_report(costs: np.ndarray, seed: int) -> CostReport:
    upper = upper_expectation(list(costs))
    means = costs.mean(axis=1)
    P = costs.shape[1]
    stderrs = costs.std(axis=1, ddof=1) / np.sqrt(P)
    return CostReport(
        scenario_means=means,
        scenario_stderrs=stderrs,
        upper_value=upper.value,
        argmax_scenario=upper.scenario_id,
        n_paths=P,
        seed=seed,
        per_path=costs,
    )


def cost_from_ensemble(ensemble: StateEnsemble) -> CostReport:
    costs = _path_costs(ensemble.model, ensemble.control, ensemble.grid, ensemble.states)
    return _cost_report(costs, ensemble.seed)


def batch_costs(
    model: ModelSpec, controls: list[Control], grid: TimeGrid, states: np.ndarray, seed: int
) -> list[CostReport]:
    """CostReport per control from a :func:`simulate_batch` result."""
    return [
        _cost_report(_path_costs(model, u, grid, states[:, c]), seed)
        for c, u in enumerate(controls)
    ]


def _serial_map(fn, items):
    return [fn(item) for item in items]


def evaluate_costs(
    model: ModelSpec,
    controls: list[Control],
    family: ScenarioFamily,
    grid: TimeGrid,
    marks: MarkSpace,
    drivers: Drivers,
    x0: float,
    map_ordered=_serial_map,
) -> list[CostReport]:
    """CostReport per control, in order, from one shared set of drivers.

    The strict controls run as one batch and the relaxed ones as another;
    ``map_ordered(fn, batches)`` runs the batches and returns their
    results in order, so a caller may run them on threads.
    """
    batches = [
        [i for i, u in enumerate(controls) if isinstance(u, kind)]
        for kind in (StrictControl, RelaxedControl)
    ]
    batches = [b for b in batches if b]

    def run(batch: list[int]) -> list[CostReport]:
        group = [controls[i] for i in batch]
        states = simulate_batch(model, group, family, grid, marks, drivers, x0)
        return batch_costs(model, group, grid, states, drivers.seed)

    reports: list = [None] * len(controls)
    for batch, batch_reports in zip(batches, map_ordered(run, batches)):
        for i, rep in zip(batch, batch_reports):
            reports[i] = rep
    return reports


def evaluate_cost(
    model: ModelSpec,
    control: Control,
    family: ScenarioFamily,
    grid: TimeGrid,
    marks: MarkSpace,
    n_paths: int,
    seed: int,
    x0: float,
) -> CostReport:
    ensemble = simulate(model, control, family, grid, marks, n_paths, seed, x0)
    return cost_from_ensemble(ensemble)


def value_bruteforce(
    model: ModelSpec,
    candidates: list[Control],
    family: ScenarioFamily,
    grid: TimeGrid,
    marks: MarkSpace,
    n_paths: int,
    seed: int,
    x0: float,
) -> ValueSearchResult:
    """Exhaustive search over a finite candidate list, one shared seed.

    Ties go to the earliest candidate, and the (control, J) table keeps
    the enumeration order so reruns are comparable line by line.
    """
    if not candidates:
        raise ValueError("value search needs at least one candidate control")
    drivers = sample_drivers(family, grid, marks, n_paths, seed)
    reports = evaluate_costs(model, list(candidates), family, grid, marks, drivers, x0)
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
    model: ModelSpec,
    mu: RelaxedControl,
    family: ScenarioFamily,
    grid: TimeGrid,
    marks: MarkSpace,
    n_list: list[int],
    n_paths: int,
    seed: int,
    x0: float,
) -> ChatteringReport:
    """Approximation quality of chattering controls at several block counts.

    Both gap columns are coupled: the relaxed run and every strict run
    share the seed, so the mean-square path gap uses pathwise sups and
    the cost gap subtracts matched path costs.
    """
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("block counts must be strictly ascending")
    ladder = [chattering(mu, n) for n in n_list]
    drivers = sample_drivers(family, grid, marks, n_paths, seed)
    base = simulate_batch(model, [mu], family, grid, marks, drivers, x0)[:, 0]
    (base_report,) = batch_costs(model, [mu], grid, base[:, None], seed)
    states = simulate_batch(model, ladder, family, grid, marks, drivers, x0)
    reports = batch_costs(model, ladder, grid, states, seed)
    rows = []
    for c, (n, rep) in enumerate(zip(n_list, reports)):
        sup = np.abs(base - states[:, c]).max(axis=0)
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


def cost_report_csv(report: CostReport) -> str:
    lines = ["scenario_id,mean,stderr,n_paths,seed"]
    for s in range(report.scenario_means.size):
        lines.append(
            f"{s},{repr(float(report.scenario_means[s]))},"
            f"{repr(float(report.scenario_stderrs[s]))},{report.n_paths},{report.seed}"
        )
    return "\n".join(lines) + "\n"


def chattering_csv(report: ChatteringReport) -> str:
    lines = ["n,msq_gap,cost_gap,cost_gap_stderr"]
    for n, msq, gap, gap_se in report.rows:
        lines.append(f"{n},{repr(float(msq))},{repr(float(gap))},{repr(float(gap_se))}")
    return "\n".join(lines) + "\n"
