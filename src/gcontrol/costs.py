"""Cost functionals, brute-force value search, and chattering reports.

The cost of a control is the worst-case expectation over the scenario
family of the terminal cost plus the running cost, the latter integrated
by a left-endpoint quadrature to match the forward Euler scheme. Every
operation takes one :class:`~gcontrol.jumps.Drivers` bundle and the
initial state last, and all comparisons between controls run on that
bundle, so differences are coupled path by path rather than being
differences of independent estimates. Every reported mean and stderr is
formed by :func:`gcontrol.scenarios.upper_expectation`.

There is one costed batch, :class:`_PathCosts`: a kernel batch pulled
one step at a time, each step folded into the batch's path costs before
it is handed on. A strict batch's running cost is folded once per step
on the whole (C, S, P) slot, with the rows' action values, as the kernel
evaluates its coefficients; a relaxed batch's is mixed row by row under
each row's weights. No batch keeps its trajectories: a consumer that
reads the states pulls the steps itself and folds them as they come,
the chattering rungs into their sup distance to the relaxed control,
whose batch is pulled in lockstep with theirs, and the spiked controls
into their quotients. Only a run whose states a later pass reads again
(``u_n`` of a near-optimality table) is stored, by its consumer copying
each pulled step, so its cost is folded in the pass that stores it. Rows
that share a prefix of actions share its kernel work
(:mod:`gcontrol.sde`): ``mp_check_near`` runs ``u_n`` and its candidates
as one batch, and ``spike_report`` the base of a spike and its spiked
controls, so each spike branches from the base's row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .controls import RelaxedControl, StrictControl, chattering, check_ladder
from .jumps import Drivers
from .models import ModelSpec, _avg, _coeff
from .scenarios import upper_expectation
from .sde import _batch_steps, _require_finite

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
    """A costed batch: its kernel steps, pulled one at a time, each folded into the path costs.

    The batch is checked and its kernel set up when it is built
    (:func:`gcontrol.sde._batch_steps`); the controls must be all strict
    or all relaxed. Iterating yields ``(k, x)`` for k = 0, ..., n_steps,
    the batch's (C, S, P) step slot, which the next pull overwrites; each
    step is folded into the path costs before it is handed on, so a
    consumer that stops after the last step (``zip`` over two batches
    does) leaves nothing unfolded. :meth:`reports` pulls the steps left.
    A batch that has raised stays failed: its first error is raised
    again from every later pull and from :meth:`reports`, which never
    reports the costs of a batch that did not finish.

    The running cost is a left-endpoint quadrature. A strict batch
    evaluates h once per step on the whole slot with the rows' (C, 1, 1)
    action values, as the strict kernel evaluates b, gamma and f. A
    relaxed batch mixes h under each row's step weights
    (:func:`gcontrol.models._avg`), which skips the zero weights, so its
    rows cannot be stacked bit for bit. At the last step g is added, and
    a non-finite path cost raises, naming its scenario and the control's
    label in ``ids`` (its role, as ``"rung n=4"``), by default
    ``"control i"`` at batch position i; so does a non-finite cost mean
    or stderr in :meth:`reports`.
    """

    def __init__(self, model: ModelSpec, controls: Sequence[Control], drivers: Drivers,
                 x0: float, ids: Sequence[str] | None = None):
        self.steps = _batch_steps(model, controls, drivers, x0)
        self.model = model
        self.controls = controls
        self.drivers = drivers
        self.ids = [f"control {i}" for i in range(len(controls))] if ids is None else ids
        self.values = None
        if all(isinstance(u, StrictControl) for u in controls):
            self.values = np.stack([u.values for u in controls])[:, :, None, None]
        # the running costs, and from the last step on the path costs
        self.costs = np.zeros((len(controls), drivers.family.n_scenarios, drivers.n_paths))
        self.error = None

    def __iter__(self):
        return self

    def __next__(self) -> tuple[int, np.ndarray]:
        if self.error is not None:
            raise self.error
        try:
            k, x = next(self.steps)
            self.fold(k, x)
        except StopIteration:
            raise
        except Exception as error:
            self.error = error
            raise
        return k, x

    def fold(self, k: int, x: np.ndarray) -> None:
        """Fold step k's (C, S, P) states into the path costs."""
        grid = self.drivers.grid
        if k == grid.n_steps:
            self.costs += np.asarray(self.model.g(x))
            for c, cost in zip(self.ids, self.costs):
                _require_finite(cost, f"path cost of {c}")
            return
        t, dt = float(grid.times[k]), grid.dt
        if self.values is not None:
            self.costs += _coeff(self.model.h(t, x, self.values[:, k])) * dt
            return
        for run, u, xc in zip(self.costs, self.controls, x):
            run += _avg(self.model.h, t, xc, u.weights[k], u.grid.actions) * dt

    def reports(self) -> list[CostReport]:
        """CostReport per control, after pulling the steps that are left."""
        for _ in self:
            pass
        reports = []
        for c, costs in zip(self.ids, self.costs):
            um = upper_expectation(costs, f"cost of {c}")
            reports.append(CostReport(
                scenario_means=um.means,
                scenario_stderrs=um.stderrs,
                upper_value=um.value,
                argmax_scenario=um.scenario_id,
                n_paths=self.drivers.n_paths,
                seed=self.drivers.seed,
                per_path=costs,
            ))
        return reports


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
        return _PathCosts(model, group, drivers, x0, [f"control {i}" for i in batch]).reports()

    reports: list = [None] * len(controls)
    for batch, batch_reports in zip(batches, map_ordered(run, batches)):
        for i, rep in zip(batch, batch_reports):
            reports[i] = rep
    return reports


def evaluate_cost(model: ModelSpec, control: Control, drivers: Drivers, x0: float) -> CostReport:
    """CostReport of one control on the drivers; no state is stored."""
    return _PathCosts(model, [control], drivers, x0).reports()[0]


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
    the cost gap subtracts matched path costs; its stderr is that of the
    base's worst scenario s* in the estimator of the (S, P) difference,
    so a non-finite one under any scenario raises. No run is stored: the
    relaxed control and the ladder are two costed batches pulled in
    lockstep, and each rung's step is folded into its sup distance to the
    relaxed control's step. At a step the relaxed control runs and folds
    its cost first, so its kernel or cost failure at a step is raised
    before the ladder's, and a rung that fails at an earlier step is
    raised first.
    """
    n_list = check_ladder(n_list)
    ladder = [chattering(mu, n) for n in n_list]
    relaxed = _PathCosts(model, [mu], drivers, x0, ["the relaxed control"])
    rungs = _PathCosts(model, ladder, drivers, x0, [f"rung n={n}" for n in n_list])
    # per rung, the running max over steps of |x_mu - x_n|; max is exact
    # in any order, and each rung's (S, P) slice is C-contiguous
    sups = np.zeros((len(ladder), drivers.family.n_scenarios, drivers.n_paths))
    for (_, x_mu), (_, x) in zip(relaxed, rungs):
        np.maximum(sups, np.abs(x_mu[0] - x), out=sups)
    [base_report] = relaxed.reports()
    reports = rungs.reports()
    rows = []
    s_star = base_report.argmax_scenario
    for sup, n, rep in zip(sups, n_list, reports):
        msq = upper_expectation(sup**2, f"mean-square gap of rung n={n}").value
        gap = abs(rep.upper_value - base_report.upper_value)
        paired = upper_expectation(rep.per_path - base_report.per_path, f"cost gap of rung n={n}")
        rows.append((int(n), msq, float(gap), float(paired.stderrs[s_star])))
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
