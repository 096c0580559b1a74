"""Backward representation of the cost gradient and stationarity checks.

The costate is recovered along simulated paths by least-squares Monte
Carlo (the per-step regression scheme of Gobet, Lemor and Warin): the
terminal gradient is transported with the linearized flow, conditional
means are fitted with a polynomial basis in the state, and the
martingale loadings (Brownian, compensated jumps, and the second-order
volatility channel) come from cross-path regressions of the fitted
martingale increments.

The layer works time-major, as does every array it takes: states and
backward variable (K+1, S, P), all C-ordered; a step's (S, P) Brownian
increments are formed when it is read (``Drivers.step_dB``). The flow
``phi`` and its inverse ``psi`` are never held whole: they are streamed
one step at a time (:func:`~gcontrol.variational.fundamental_steps`),
once for the backward variable and once for the regressions, because
the flow is cheap to run again and a stored flow would double the
memory of every table. The triple exists one step at a time: ``p`` and
``q`` (S, P) and ``r`` (S, P, m).

:func:`_adjoint_core` forms the raw backward variable in one (K+1, S, P)
buffer, then walks the grid once forward; at each step it solves the
state regression and the increment regression of every scenario from
stacked normal equations (the scheme's own least-squares problem). The
state regression's Gram matrix is the Hankel matrix of the power sums of
the standardized state, so no (S, P, n) design is formed; the increment
regression's Gram block of the shared columns (compensated marks and the
constant) is formed once per step, and only its dB row and right-hand
side per scenario. The eigenvalues of each Gram matrix give the
condition number; a singular or ill-conditioned Gram matrix falls back to
the min-norm SVD solution of its design, and the health numbers count
those fallbacks. Once a step's loadings exist, one step late, the core
hands the step (its flow, inverse flow and fit) to the caller's reducer,
which from then on owns the step's row of the buffer. One formula,
:func:`_triple_at`, turns a backward variable into ``(p, q, r)`` at a
step, and one, :func:`_q_at`, gives its ``q`` together with ``sigma_x``
at that step. Both take the step's state as an argument and read the
run's model, control and drivers from the core, so a triple can be
formed along a run that is not stored. ``r`` is formed one mark at a
time, from contiguous (S, P) operands with that mark's
``1 / (1 + f_x)``, a scalar when ``f_x`` is constant in the state, and
stored mark-last like every ``r`` of this module.

The reducers are the tables' own. :func:`mp_check_relaxed` reads the
raw (unfitted) variable: it keeps each block start's inputs, ``psi``
and the raw step, and writes each step's volatility-channel summand
(:func:`tail_summand`) into the step's row, so one backward sum over the
rows gives every block's :func:`tail_weights`, after which the buffer is
dropped. The table forms each start's triple from its inputs
(:func:`_triple_at`); the loadings it reads there were final before the
reducer ran. In :func:`bsde_stability_report` each rung's core runs
first, without a reducer, so it forms no inverse flow, and the rung's
stored states and backward variable are dropped after it: the core keeps
each step's state regression as a small :class:`StateFit` record, from
which :func:`_evaluate_fit` gives the fit at any state. Then the relaxed
control's core runs with the one reducer that folds the whole ladder:
at each step it pulls every rung's state and ``psi`` from a replay of
the rung's strict kernel and flow, which forms no ``phi``, evaluates the
rung's fit at the replayed state, forms the relaxed control's triple
once and every rung's triple, and folds each pair into the rung's
per-(scenario, path) gap accumulators (:func:`_finite_triple`). Below
eight marks the ``nu``-weighted ``r`` term is summed mark by mark on
(S, P) operands, which is the order numpy sums so short an axis in. A
backward variable, triple component or table entry that overflows
raises, naming the step and the scenario.

A control is read through its ``weights`` over ``grid.actions`` (one-hot
for a strict control), so a strict control's adjoint and tables run on the
strict run itself: the strict kernel, and the flow on the events' tags,
which for a strict control are its played indices. Its Dirac embedding
is what the tests compare against.

Everything reads its run from a :class:`~gcontrol.sde.StateEnsemble`,
whose drivers carry the scenario family, the grid, the marks and the
seed, or, for an operation that simulates several controls itself
(:func:`mp_check_near`, :func:`bsde_stability_report`), from the
drivers and the initial state it is given last.

On top of the triple the module builds stationarity tables for strict,
near-optimal, and relaxed controls (each with deterministic estimator
health numbers) and stability gaps under chattering approximations.
Verdicts are statistical: an entry passes when its estimate clears
minus the stated slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .controls import (
    RelaxedControl,
    StrictControl,
    block_length,
    chattering,
    check_ladder,
    ekeland_distance,
    spike,
)
from .costs import stream_costs
from .jumps import Drivers, MarkSpace
from .models import ModelSpec, _avg, _coeff
from .scenarios import TimeGrid, generator_G, upper_expectation
from .sde import (StateEnsemble, _batch_steps, _first_nonfinite, _require_finite, _stored_run,
                  simulate)
from .variational import _flow, fundamental_steps

_DEGENERATE_STD = 1e-12
# a Gram matrix whose condition number lmax / lmin exceeds this is not solved;
# its design goes to the SVD instead (design condition numbers above 1e4)
_GRAM_COND_MAX = 1e8
# the state is standardized with ddof=0, so sum z**2 = P and every power sum
# sum z**(2d) is at most P**d; at this degree that stays below 1e304 for any
# P below 2**63, so no Gram entry overflows
_MAX_BASIS_DEGREE = 16


class MPEntry(NamedTuple):
    block: int
    step: int
    action: float
    estimate: float
    stderr: float
    slack: float
    passed: bool
    scenario_id: int


@dataclass(frozen=True)
class MPCheckReport:
    """Stationarity table: one entry per (report block, candidate action)."""

    entries: tuple[MPEntry, ...]
    verdict: bool
    hypothesis: str
    n_blocks: int
    slack_mult: float
    extra_slack: float
    n_paths: int
    seed: int
    health: Mapping[str, float]

    def summary(self) -> dict:
        worst = min(self.entries, key=lambda e: e.estimate + e.slack)
        return {
            "verdict": "pass" if self.verdict else "fail",
            "worst_entry": float(worst.estimate),
            "worst_block": int(worst.block),
            "worst_action": float(worst.action),
        }


@dataclass(frozen=True)
class NearOptimalReport:
    """Stationarity verdict with an Ekeland allowance in the slack."""

    mp: MPCheckReport
    epsilon_n: float
    C: float
    C_min: float
    jepsilon_ok: bool
    n_candidates: int


class StabilityRow(NamedTuple):
    n: int
    p_gap: float
    p_stderr: float
    q_gap: float
    q_stderr: float
    r_gap: float
    r_stderr: float
    k_gap: float


@dataclass(frozen=True)
class StabilityReport:
    rows: tuple[StabilityRow, ...]
    p_nonincreasing: bool
    q_nonincreasing: bool
    r_nonincreasing: bool
    basis_degree: int
    seed: int
    health: Mapping[str, float]


def hamiltonian(model: ModelSpec, marks: MarkSpace, t, x, a, p, q, r):
    """``H = h + p b + q sigma + sum_i r_i f(theta_i) nu_i``.

    ``r`` carries the mark axis last. Everything broadcasts, so scalar
    and per-path arguments both work.
    """
    x = np.asarray(x, dtype=float)
    a = float(a)
    val = (
        np.asarray(model.h(t, x, a), dtype=float)
        + np.asarray(p, dtype=float) * np.asarray(model.b(t, x, a), dtype=float)
        + np.asarray(q, dtype=float) * (np.asarray(model.sigma(t, x), dtype=float) + 0.0 * x)
    )
    r = np.asarray(r, dtype=float)
    for i in range(marks.n_marks):
        theta = float(marks.marks[i])
        nu = float(marks.intensities[i])
        val = val + r[..., i] * np.asarray(model.f(t, x, theta, a), dtype=float) * nu
    return val


def tail_summand(phi_k, q_k, sx_k, a_k, s_k, bounds) -> np.ndarray:
    """Step k's term ``phi_k (q_k sx_k a_k + S_k a_k - 2 G(S_k))`` of :func:`tail_weights`.

    ``G`` is the scalar generator :func:`~gcontrol.scenarios.generator_G`.
    ``phi_k`` and ``q_k`` are (S, P), ``sx_k`` (S, P) or a scalar, and
    ``a_k`` and ``s_k`` the step's (S,) volatility values and
    second-order loadings.
    """
    s_net = s_k * a_k - 2.0 * generator_G(s_k, bounds)
    return phi_k * (q_k * sx_k * a_k[:, None] + s_net[:, None])


def tail_weights(summands, starts: Sequence[int], dt: float) -> np.ndarray:
    """Downstream volatility-channel weight of a spike opened at each start step.

    For a start ``k0`` the weight is ``sum_{k >= k0} summands[k] dt``,
    with step k's :func:`tail_summand` in row k of the (K, S, P)
    ``summands``. One backward pass serves every start. Returns shape
    (len(starts), S, P).
    """
    out = np.empty((len(starts),) + summands.shape[1:])
    acc = np.zeros(summands.shape[1:])
    slot = {int(k0): j for j, k0 in enumerate(starts)}
    for k in range(len(summands) - 1, min(starts) - 1, -1):
        acc += summands[k]
        if k in slot:
            out[slot[k]] = acc * dt
    return out


def f_term(
    impulse: np.ndarray,
    dgamma: np.ndarray,
    p_at: np.ndarray,
    a_at: np.ndarray,
    psi_at: np.ndarray,
    weight: np.ndarray,
) -> np.ndarray:
    """Volatility-channel contribution of a spike opened at a block start.

    The instantaneous part couples the gamma response to the scenario
    quadratic variation ``a_at`` at the start; the downstream part is the
    variational flow's starting value ``psi_at * impulse`` times the
    block's :func:`tail_weights` entry. With a single constant scenario
    the ``S``-weighted terms of that weight cancel exactly, because the
    generator maximum is attained at that scenario.
    """
    return p_at * dgamma * a_at + psi_at * impulse * weight


def _svd_lstsq(design: np.ndarray, target: np.ndarray):
    """Min-norm least squares on a stack of designs from one SVD.

    ``design`` is (B, P, n) and ``target`` (B, P). Singular values at or
    below ``eps * max(P, n)`` times the largest are cut, the default
    ``rcond`` of ``np.linalg.lstsq``. Returns the coefficients (B, n)
    and the 2-norm condition numbers (B,), the latter as
    ``np.linalg.cond`` reports them (inf when singular).
    """
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    keep = s > np.finfo(float).eps * max(design.shape[-2:]) * s[:, :1]
    uty = np.where(keep, (target[:, None, :] @ u)[:, 0, :], 0.0)
    coef = (np.swapaxes(vt, 1, 2) @ (uty / np.where(keep, s, 1.0))[:, :, None])[:, :, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = s[:, 0] / s[:, -1]
    cond[np.isnan(cond)] = np.inf
    return coef, cond


def _solve_normal(gram: np.ndarray, rhs: np.ndarray,
                  fallback: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]):
    """Least squares from stacked normal equations ``gram @ coef = rhs``.

    ``gram`` (B, n, n) and ``rhs`` (B, n) are the moment sums of B
    designs. The eigenvalues of each Gram matrix give the design's
    2-norm condition number, ``sqrt(lmax / lmin)``. A Gram matrix that is
    singular or whose own condition number ``lmax / lmin`` exceeds
    ``_GRAM_COND_MAX`` is not solved: ``fallback(rows)`` builds those
    rows' (len(rows), P, n) designs and targets, and :func:`_svd_lstsq`
    gives their min-norm coefficients and condition numbers. Each row is
    solved on its own, so a row's result does not depend on the stack
    it sits in. Returns the coefficients (B, n), the condition numbers
    (B,) and the number of fallback rows.
    """
    lam = np.linalg.eigvalsh(gram)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = lam[:, -1] / lam[:, 0]
        cond = np.sqrt(ratio)
    ok = (lam[:, 0] > 0.0) & (ratio <= _GRAM_COND_MAX)
    if ok.all():
        return np.linalg.solve(gram, rhs[:, :, None])[:, :, 0], cond, 0
    coef = np.empty(rhs.shape)
    coef[ok] = np.linalg.solve(gram[ok], rhs[ok][:, :, None])[:, :, 0]
    rows = np.flatnonzero(~ok)
    coef[rows], cond[rows] = _svd_lstsq(*fallback(rows))
    return coef, cond, rows.size


def check_basis_degree(degree: int) -> int:
    """The degree of the state regression's polynomial basis, at most 16."""
    if degree > _MAX_BASIS_DEGREE:
        raise ValueError(f"degree {degree} is above {_MAX_BASIS_DEGREE}, beyond which the"
                         " power sums of the standardized state can overflow")
    return degree


class StateFit(NamedTuple):
    """One step's state regression, per scenario: enough to evaluate its fit at any state.

    ``flat`` (S,) marks the scenarios whose state was degenerate, and
    ``means`` holds their targets' plain means. The live scenarios hold
    their state's ``centre`` and ``sd`` and their ``coef``
    (S_live, degree + 1), lowest power first.
    """

    flat: np.ndarray
    means: np.ndarray
    centre: np.ndarray
    sd: np.ndarray
    coef: np.ndarray


def _horner(coef: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Each row's polynomial ``sum_i coef[:, i] z**i`` at the standardized state ``z``.

    ``coef`` is (S_live, degree + 1), lowest power first, and ``z``
    (S_live, P); Horner's rule, highest power first, in one new array:
    the first product forms it and every later step runs in place. These
    are the elementwise operations of ``val = val * z + c``, so the bits
    are that form's. The result is writable and shares no memory with
    ``coef`` or ``z``, at degree 0 too.
    """
    if coef.shape[1] == 1:
        return np.broadcast_to(coef, z.shape).copy()
    val = coef[:, -1:] * z
    for i in range(coef.shape[1] - 2, -1, -1):
        val += coef[:, i:i + 1]
        if i:
            val *= z
    return val


def _evaluate_fit(record: StateFit, x: np.ndarray) -> np.ndarray:
    """The fit of ``record`` at the (S, P) state ``x``: standardize, then :func:`_horner`.

    At the state the record was regressed on this is the regression's
    own fit, bit for bit; at a replay of that state, too. When no
    scenario is degenerate the whole state is standardized at once.
    """
    if not record.flat.any():
        return _horner(record.coef, (x - record.centre[:, None]) / record.sd[:, None])
    pred = np.empty(x.shape)
    pred[record.flat] = record.means[:, None]
    live = ~record.flat
    if live.any():
        pred[live] = _horner(record.coef, (x[live] - record.centre[:, None]) / record.sd[:, None])
    return pred


def _regress_state(x: np.ndarray, target: np.ndarray, degree: int):
    """Fit each scenario's target on a standardized polynomial basis in its state.

    ``x`` and ``target`` are one step's (S, P) slices. For every scenario
    with a spread-out state the Gram matrix of the basis ``z**i`` is the
    Hankel matrix of the power sums ``sum z**j`` (j <= 2 degree) and the
    right-hand side holds ``sum z**i target``; the stack goes to
    :func:`_solve_normal`. A degenerate state row (deterministic time,
    single path) falls back to the plain mean, which is the exact
    conditional expectation there, with condition number 1. The live rows'
    fit is :func:`_horner` at the standardized state the power sums were
    formed from, which is what :func:`_evaluate_fit` gives from the
    step's :class:`StateFit` record at that state, bit for bit. The
    deviations from the mean are formed once, for the spread and the
    standardized state; ``sd`` is ``np.std``'s own arithmetic on them, so
    it has that function's bits. When no row is degenerate the live rows
    are ``x`` and ``target`` themselves, not copies.
    Returns the fit (S, P), its record, the condition numbers (S,), the
    residual sums of squares (S,) and the number of SVD fallbacks.
    """
    centre = x.mean(axis=1)
    dev = x - centre[:, None]
    sd = np.sqrt(np.square(dev).sum(axis=1) / x.shape[1])
    cond = np.ones(x.shape[0])
    fallbacks = 0
    flat = sd < _DEGENERATE_STD
    live = ~flat
    n = degree + 1
    coef = np.empty((0, n))
    means = target[flat].mean(axis=1)
    pred = None
    yl = target
    if flat.any():
        pred = np.empty(x.shape)
        pred[flat] = means[:, None]
        dev, yl, centre, sd = dev[live], target[live], centre[live], sd[live]
    if centre.size:
        z = np.divide(dev, sd[:, None], out=dev)
        power = np.empty((z.shape[0], 2 * degree + 1))
        rhs = np.empty((z.shape[0], n))
        power[:, 0] = z.shape[1]
        rhs[:, 0] = yl.sum(axis=1)
        zj = z
        for j in range(1, 2 * degree + 1):
            power[:, j] = zj.sum(axis=1)
            if j < n:
                rhs[:, j] = (zj * yl).sum(axis=1)
            if j < 2 * degree:
                zj = zj * z
        gram = power[:, np.add.outer(np.arange(n), np.arange(n))]

        def design(rows):
            return z[rows][:, :, None] ** np.arange(n), yl[rows]

        coef, cond[live], fallbacks = _solve_normal(gram, rhs, design)
        if pred is None:
            pred = _horner(coef, z)
        else:
            pred[live] = _horner(coef, z)
    record = StateFit(flat, means, centre, sd, coef)
    return pred, record, cond, ((target - pred) ** 2).sum(axis=1), fallbacks


def _regress_increment(dm: np.ndarray, db: np.ndarray, dn: np.ndarray):
    """Project each scenario's martingale increment on [dB, compensated marks, 1].

    ``dm`` and ``db`` are one step's (S, P) slices, ``dn`` the (m, P)
    compensated counts every scenario shares. Constant columns (no
    Brownian variance, no events at this step) are dropped instead of
    letting the design go singular; their loadings are reported as zero.
    The Gram block of the shared columns is formed once; only the dB row
    and the right-hand side are formed per scenario. Scenarios that keep
    the dB column and those that drop it are solved as two stacks by
    :func:`_solve_normal`. Returns q (S,), r (S, m), the intercepts (S,),
    the condition numbers (S,), the dropped-column counts (S,) and the
    number of SVD fallbacks.
    """
    n_scen, n_paths = dm.shape
    n_marks = dn.shape[0]
    # exact: a mark column is constant when its mark fired equally often on every path
    keep_n = np.flatnonzero(~(dn == dn[:, :1]).all(axis=1))
    keep_b = db.std(axis=1) > _DEGENERATE_STD
    shared = np.concatenate([dn[keep_n], np.ones((1, n_paths))])
    n = shared.shape[0] + 1
    # per scenario, the dB row and the target against [dB, shared]: (S, 2, n)
    pair = np.stack([db, dm], axis=1)
    cross = np.concatenate([pair @ db[:, :, None], pair @ shared.T], axis=2)
    gram = np.empty((n_scen, n, n))
    gram[:, 0] = cross[:, 0]
    gram[:, 1:, 0] = cross[:, 0, 1:]
    gram[:, 1:, 1:] = shared @ shared.T
    rhs = cross[:, 1]

    coef = np.zeros((n_scen, n))
    cond = np.empty(n_scen)
    fallbacks = 0
    for with_b in (True, False):
        sel = np.flatnonzero(keep_b == with_b)
        if sel.size == 0:
            continue
        lo = 0 if with_b else 1

        def design(rows):
            scen = sel[rows]
            cols = np.concatenate([db[scen][:, :, None],
                                   np.broadcast_to(shared.T, (scen.size, n_paths, n - 1))], axis=2)
            return cols[:, :, lo:], dm[scen]

        coef[sel, lo:], cond[sel], fb = _solve_normal(gram[sel, lo:, lo:], rhs[sel, lo:], design)
        fallbacks += fb
    r_k = np.zeros((n_scen, n_marks))
    r_k[:, keep_n] = coef[:, 1:-1]
    dropped = (n_marks - keep_n.size) + (~keep_b).astype(int)
    return coef[:, 0], r_k, coef[:, -1], cond, dropped, fallbacks


def _invert_step_drift(c: np.ndarray, a: np.ndarray, lo: float, hi: float, dt: float):
    """Second-order loadings consistent with fitted per-step drifts.

    A representable drift is ``S (a - argmax probe) dt``, which is never
    positive, so positive intercepts are noise and map to zero; so does
    a singleton volatility band, where the drift carries no information
    about ``S``. ``c`` and ``a`` are one step's (S,) drifts and volatility
    values, or (S, K) tables; returns S of that shape.
    """
    out = np.zeros(np.shape(c))
    if hi - lo <= 1e-12:
        return out
    neg = ~(c >= 0.0)
    below_hi = neg & (a < hi - 1e-12)
    above_lo = neg & ~below_hi & (a > lo + 1e-12)
    out[below_hi] = c[below_hi] / ((a[below_hi] - hi) * dt)
    out[above_lo] = c[above_lo] / ((a[above_lo] - lo) * dt)
    return out


def _terminal_gradient(model: ModelSpec, x: np.ndarray) -> np.ndarray:
    """``g_x`` at the (S, P) terminal state ``x``, (S, P) also where it is constant."""
    return np.asarray(model.g_x(x), dtype=float) + np.zeros_like(x)


def _adjoint_core(
    ensemble: StateEnsemble, basis_degree: int,
    reduce: Callable[[SimpleNamespace, int, np.ndarray, np.ndarray, np.ndarray], None]
    | None = None,
) -> SimpleNamespace:
    """Raw backward variable, per-step regressions and loadings, time-major.

    The flow is streamed twice (:func:`~gcontrol.variational.fundamental_steps`),
    so ``phi`` and ``psi`` are never held whole. The first pass writes
    step k's running term ``h_x phi_k dt`` into the (K+1, S, P) buffer
    ``y`` and the terminal ``g_x phi_K`` into its last row, then sums
    ``y`` backward in place into the raw backward variable. The second
    pass regresses the raw variable on the state and the martingale
    increment of the fitted variable on the step's noise, each from
    stacked normal equations across scenarios (:func:`_solve_normal`).
    Step k's state regression is kept as its :class:`StateFit` record in
    ``core.fits[k]``, k = 0, ..., K - 1, a few numbers per scenario, so
    a caller that drops ``y`` and the states can evaluate the fit again
    at a replayed state (:func:`_evaluate_fit`), bit for bit.

    Once the loadings ``Q``, ``R`` and ``S_t`` of step j exist, which is
    one step late, ``reduce(core, j, phi_j, psi_j, fit_j)`` is called
    for j = 0, ..., K - 1 in order, with the step's flow, its inverse
    and its fit, each (S, P); ``core`` is the namespace this returns,
    with the run's model, control and drivers and the loadings filled up
    to step j. ``phi_j`` and ``psi_j`` are overwritten after the call.
    From the call on the reducer owns
    ``y[j]``: the core reads the raw step only before it. Without a
    reducer ``y`` ends as the raw backward variable, and the second pass
    forms no inverse flow either, since only a reducer reads ``psi``; the
    loadings, fits and health numbers are those of any reducer that
    leaves ``y`` alone, bit for bit. A backward variable
    that overflows raises ``FloatingPointError`` naming the step and the
    scenario; so does a flow step, as in ``fundamental_steps``, but the
    first pass forms ``phi`` only, so there a ``phi`` that overflows is
    named even where ``psi`` overflowed at an earlier step.
    """
    check_basis_degree(basis_degree)
    model = ensemble.model
    grid = ensemble.grid
    marks = ensemble.marks
    dt = grid.dt
    n_steps = grid.n_steps
    _, n_scen, n_paths = ensemble.states.shape
    n_marks = marks.n_marks
    w = ensemble.control.weights
    actions = ensemble.control.grid.actions
    x = ensemble.states
    times = grid.times

    def running(k, phi_k):
        hx = _avg(model.h_x, float(times[k]), x[k], w[k], actions)
        return hx * phi_k * dt

    gx_term = _terminal_gradient(model, x[n_steps])
    y = np.empty((n_steps + 1, n_scen, n_paths))
    for k, phi_k, _ in fundamental_steps(ensemble, need_inverse=False):
        y[k] = running(k, phi_k) if k < n_steps else gx_term * phi_k
    _require_finite(y[n_steps], f"backward variable at step {n_steps}")
    for k in range(n_steps - 1, -1, -1):
        np.add(y[k + 1], y[k], out=y[k])
        _require_finite(y[k], f"backward variable at step {k}")

    a_tab = ensemble.family.values
    lo = ensemble.family.bounds.sigma_low
    hi = ensemble.family.bounds.sigma_high
    core = SimpleNamespace(
        model=model,
        control=ensemble.control,
        drivers=ensemble.drivers,
        gx_term=gx_term,
        y=y,
        Q=np.zeros((n_scen, n_steps)),
        R=np.zeros((n_scen, n_steps, n_marks)),
        S_t=np.zeros((n_scen, n_steps)),
        intercept=np.zeros((n_scen, n_steps)),
        cond_y=np.ones((n_scen, n_steps)),
        cond_increment=np.ones((n_scen, n_steps)),
        fits=[],
    )
    sq_resid = np.zeros(n_scen)
    dropped = 0
    fallbacks = 0
    comp = marks.intensities[:, None] * dt
    past = np.zeros((n_scen, n_paths))
    prev = None
    # only a reducer reads psi
    for k, phi_k, psi_k in fundamental_steps(ensemble, need_inverse=reduce is not None):
        if k < n_steps:
            fit, record, core.cond_y[:, k], rss, fb = _regress_state(x[k], y[k], basis_degree)
            core.fits.append(record)
            sq_resid += rss
            fallbacks += fb
        else:
            fit = y[n_steps]
        m_k = fit + past
        if prev is not None:
            j = k - 1
            m_prev, phi_j, psi_j, fit_j = prev
            # 0.0 - comp, not -comp, so a silent mark's column is +0.0
            dn = np.zeros((n_marks, n_paths)) - comp
            paths, counts = ensemble.drivers.event_counts(j)
            dn[:, paths] = counts[..., 0].T - comp
            (core.Q[:, j], core.R[:, j], core.intercept[:, j], core.cond_increment[:, j], drop,
             fb) = _regress_increment(m_k - m_prev, ensemble.drivers.step_dB(j), dn)
            core.S_t[:, j] = _invert_step_drift(core.intercept[:, j], a_tab[:, j], lo, hi, dt)
            dropped += int(drop.sum())
            fallbacks += fb
            if reduce is not None:
                reduce(core, j, phi_j, psi_j, fit_j)
        if k < n_steps:
            past = past + running(k, phi_k)
        prev = (m_k, phi_k, psi_k, fit)

    core.y_residual = np.sqrt(sq_resid / (n_steps * n_paths))
    core.dropped_columns = dropped
    core.svd_fallbacks = fallbacks
    core.clamped_intercepts = (int(np.count_nonzero(core.intercept > 0.0))
                               if hi - lo > 1e-12 else 0)
    return core


def _q_at(core: SimpleNamespace, k: int, x_k: np.ndarray, y_k: np.ndarray, psi_k: np.ndarray):
    """``q = psi (Q - y sigma_x)`` at step k, (S, P), and the ``sigma_x`` it reads at ``x_k``."""
    sx = _coeff(core.model.sigma_x(float(core.drivers.grid.times[k]), x_k))
    return psi_k * (core.Q[:, k][:, None] - y_k * sx), sx


def _triple_at(core: SimpleNamespace, k: int, x_k: np.ndarray, y_k: np.ndarray,
               psi_k: np.ndarray):
    """``(p, q, r)`` at step k from the state ``x_k``, a backward variable ``y_k`` and ``psi_k``.

    Each argument is (S, P). ``p = y psi`` and ``q`` from :func:`_q_at`
    are (S, P). ``r`` is (S, P, m): mark i's entry is
    ``R_i psi / (1 + f_x) + p (1 / (1 + f_x) - 1)`` with that mark's
    ``f_x`` at ``x_k`` under the step's weights, and the step's loadings
    ``Q``/``R`` from ``core``, which also carries the run's model, control
    and drivers.
    """
    marks = core.drivers.marks
    t = float(core.drivers.grid.times[k])
    u = core.control
    p = y_k * psi_k
    q, _ = _q_at(core, k, x_k, y_k, psi_k)
    r = np.empty(p.shape + (marks.n_marks,))
    for i, th in enumerate(marks.marks):
        inv = 1.0 / (1.0 + _avg(core.model.f_x, t, x_k, u.weights[k], u.grid.actions,
                                theta=float(th)))
        np.add(core.R[:, k, i][:, None] * psi_k * inv, p * (inv - 1.0), out=r[..., i])
    return p, q, r


def _finite_triple(core: SimpleNamespace, k: int, x_k: np.ndarray, y_k: np.ndarray,
                   psi_k: np.ndarray) -> tuple:
    """:func:`_triple_at`, checked: a non-finite component raises.

    The ``FloatingPointError`` names the component, the step and the
    first scenario.
    """
    step = _triple_at(core, k, x_k, y_k, psi_k)
    for name, v in zip("pqr", step):
        bad = _first_nonfinite(v)
        if bad is not None:
            raise FloatingPointError(
                f"adjoint component {name} is not finite at step {k} under scenario {bad[0]}"
            )
    return step


def _hypothesis_label(model: ModelSpec, grid: TimeGrid, actions: np.ndarray) -> str:
    lo_x, hi_x = model.bounds["state_box"]
    xs = np.linspace(lo_x, hi_x, 5)
    clean = True
    for t in (0.0, 0.5 * grid.T, grid.T):
        for a in actions:
            bv = np.asarray(model.b(t, xs, float(a)), dtype=float) + np.zeros_like(xs)
            hv = np.asarray(model.h(t, xs, float(a)), dtype=float) + np.zeros_like(xs)
            if np.any(bv != 0.0) or np.any(hv != 0.0):
                clean = False
    if clean:
        return "b = 0 and h = 0: stationarity guarantee applies"
    return "nonzero b or h: outside the stationarity guarantee, verdict is informational"


def _estimator_health(core: SimpleNamespace) -> dict:
    """Deterministic health numbers of the adjoint regressions behind a table.

    Condition numbers of the state and increment regressions (max and
    median over scenarios and steps), the largest rms state-fit residual,
    the regression columns dropped as constant, the regressions solved
    by SVD because their Gram matrix was singular or ill-conditioned, and
    the positive per-step drifts that :func:`_invert_step_drift` maps to
    zero.
    """
    return {
        "cond_y_max": float(np.max(core.cond_y)),
        "cond_y_median": float(np.median(core.cond_y)),
        "cond_increment_max": float(np.max(core.cond_increment)),
        "cond_increment_median": float(np.median(core.cond_increment)),
        "y_residual_max": float(np.max(core.y_residual)),
        "dropped_columns": int(core.dropped_columns),
        "svd_fallbacks": int(core.svd_fallbacks),
        "clamped_intercepts": int(core.clamped_intercepts),
    }


def mp_check_relaxed(
    ensemble: StateEnsemble,
    *,
    n_blocks: int = 4,
    slack_mult: float = 3.0,
    extra_slack: float = 0.0,
    basis_degree: int = 2,
) -> MPCheckReport:
    """Stationarity table for the ensemble's control, relaxed or strict.

    The model, the control and the run's setting are the ensemble's.
    Each entry compares a candidate action against the mixture at a
    report-block start: the Hamiltonian difference plus the
    volatility-channel term, averaged per scenario and maximized across
    scenarios. An entry passes when its estimate is at least minus
    ``slack_mult`` standard errors minus ``extra_slack``. The mixture is
    the control's ``weights``: a strict control runs as it is, its one-hot
    weights the Dirac mixture, whose own atom's entries are exactly zero
    by construction. The triple is built from the raw (unfitted) backward
    variable, and only at block starts. The adjoint core hands each step
    on as it is regressed; a block start keeps copies of its ``psi`` and
    its raw step, and the step's :func:`tail_summand` then takes the
    step's row of the backward variable, so one backward sum over those
    rows gives every block's :func:`tail_weights`. The backward variable
    is dropped before the table loop, which forms each block start's
    triple from its kept inputs; ``Q`` and ``R`` at the start are final
    before the reducer runs and are not written again.
    """
    model, mu, grid, marks = ensemble.model, ensemble.control, ensemble.grid, ensemble.marks
    family = ensemble.family
    block_len = block_length(grid.n_steps, n_blocks)
    w, actions = mu.weights, mu.grid.actions
    a_tab = family.values
    nus = marks.intensities
    n_scen = a_tab.shape[0]
    starts = [b * block_len for b in range(n_blocks)]
    at_start = {}

    def reduce(core, j, phi_j, psi_j, fit_j):
        # a block start keeps its raw step, then the row holds the step's tail summand
        x_j, y_j = ensemble.states[j], core.y[j]
        if j in starts:
            at_start[j] = (psi_j.copy(), y_j.copy())
        q_j, sx_j = _q_at(core, j, x_j, y_j, psi_j)
        y_j[...] = tail_summand(phi_j, q_j, sx_j, a_tab[:, j], core.S_t[:, j], family.bounds)

    core = _adjoint_core(ensemble, basis_degree, reduce)
    weights = tail_weights(core.y[:-1], starts, grid.dt)
    # past the tail weights the rows hold only summands, which nothing reads
    del core.y

    entries: list[MPEntry] = []
    for b, k0 in enumerate(starts):
        t0 = float(grid.times[k0])
        x = ensemble.states[k0]
        a0 = a_tab[:, k0][:, None]
        # Q and R at k0 were final before the reducer ran and are not written again
        psi0, y0 = at_start.pop(k0)
        p0, q0, r0 = _triple_at(core, k0, x, y0, psi0)

        # per action: H, then b, gamma and f at every mark, each (S, P)
        rows = []
        for a in map(float, actions):
            coeffs = [model.b(t0, x, a), model.gamma(t0, x, a)]
            coeffs += [model.f(t0, x, float(th), a) for th in marks.marks]
            rows.append([hamiltonian(model, marks, t0, x, a, p0, q0, r0)]
                        + [np.asarray(c, dtype=float) + np.zeros_like(x) for c in coeffs])
        base = [np.zeros_like(x) for _ in rows[0]]
        for ai, row in enumerate(rows):
            wa = float(w[k0, ai])
            if wa != 0.0:
                base = [acc + wa * v for acc, v in zip(base, row)]

        for ai, row in enumerate(rows):
            d_h, d_b, dgamma, *d_f = (v - acc for v, acc in zip(row, base))
            impulse = d_b + dgamma * a0
            for i, d_fi in enumerate(d_f):
                impulse = impulse - d_fi * float(nus[i])
            vals = d_h + f_term(impulse, dgamma, p0, a0, psi0, weights[b])
            _require_finite(vals, f"stationarity entry of action {float(actions[ai])!r} in block "
                                  f"{b} at step {k0}")
            um = upper_expectation([vals[s] for s in range(n_scen)])
            slack = slack_mult * um.stderr + extra_slack
            entries.append(
                MPEntry(
                    block=b,
                    step=k0,
                    action=float(actions[ai]),
                    estimate=float(um.value),
                    stderr=float(um.stderr),
                    slack=float(slack),
                    passed=bool(um.value >= -slack),
                    scenario_id=um.scenario_id,
                )
            )

    return MPCheckReport(
        entries=tuple(entries),
        verdict=all(e.passed for e in entries),
        hypothesis=_hypothesis_label(model, grid, actions),
        n_blocks=n_blocks,
        slack_mult=slack_mult,
        extra_slack=extra_slack,
        n_paths=ensemble.n_paths,
        seed=ensemble.seed,
        health=_estimator_health(core),
    )


def mp_check_near(
    model: ModelSpec,
    u_n: StrictControl,
    candidates: Sequence[StrictControl],
    C: float,
    drivers: Drivers,
    x0: float,
    *,
    epsilon_n: float | None = None,
    n_blocks: int = 4,
    slack_mult: float = 3.0,
    basis_degree: int = 2,
    add_block_spikes: bool = True,
) -> NearOptimalReport:
    """Stationarity table with an Ekeland allowance ``C * epsilon_n``.

    When ``epsilon_n`` is not given it is measured as the worst cost
    improvement rate over the candidate list, optionally enriched with
    one-step spikes at every report-block start. With ``epsilon_n = 0``
    the table is identical to the strict check. ``C_min`` is the
    smallest allowance coefficient that would make every entry pass
    given the statistical slack; it is infinite when an entry fails and
    no allowance is available.

    ``u_n`` and the candidates run as one cost batch, ``u_n`` first, its
    states stored for the table by the batch's reducer; each block spike
    equals ``u_n`` before its start, so the kernel branches it from
    ``u_n``'s row there (:mod:`gcontrol.sde`). A non-finite cost names
    ``u_n``, or a candidate as ``control i`` by its index in the candidate
    list (block spikes follow the given candidates).
    """
    if C < 0.0:
        raise ValueError(f"the allowance coefficient must be nonnegative, got {C}")
    grid = drivers.grid
    block_len = block_length(grid.n_steps, n_blocks)

    cands = list(candidates)
    if add_block_spikes:
        for b in range(n_blocks):
            k0 = b * block_len
            for ai in range(u_n.grid.n_actions):
                if ai != int(u_n.indices[k0]):
                    cands.append(spike(u_n, ai, k0, 1))

    if epsilon_n is not None and epsilon_n < 0.0:
        raise ValueError(f"epsilon_n must be nonnegative, got {epsilon_n}")

    # one batch: u_n's row 0 is stored for the table, the candidates keep no
    # trajectory, and each spike branches from u_n's row at its block start
    ens, keep = _stored_run(model, u_n, drivers)
    j_n, *j_cands = (rep.upper_value for rep in stream_costs(
        model, [u_n] + cands, drivers, x0, keep,
        ids=["u_n"] + [f"control {i}" for i in range(len(cands))]))
    scored = [(ekeland_distance(u_n, cand, grid), j_c) for cand, j_c in zip(cands, j_cands)]

    if epsilon_n is None:
        # worst cost-improvement rate of u_n; candidates at distance zero are skipped
        eps = 0.0
        for d, j_c in scored:
            if d > 0.0:
                eps = max(eps, max(0.0, j_n - j_c) / d)
    else:
        eps = float(epsilon_n)

    jepsilon_ok = all(
        not j_n > j_c + eps * d + 1e-9 * (1.0 + abs(j_n)) for d, j_c in scored
    )

    mp = mp_check_relaxed(ens, n_blocks=n_blocks, slack_mult=slack_mult, extra_slack=C * eps,
                          basis_degree=basis_degree)

    need = 0.0
    for e in mp.entries:
        need = max(need, -(e.estimate) - slack_mult * e.stderr)
    if need <= 0.0:
        c_min = 0.0
    elif eps > 0.0:
        c_min = need / eps
    else:
        c_min = math.inf

    return NearOptimalReport(
        mp=mp,
        epsilon_n=eps,
        C=float(C),
        C_min=float(c_min),
        jepsilon_ok=jepsilon_ok,
        n_candidates=len(cands),
    )


def _nu_weighted_mark_sum(r: np.ndarray, nus: np.ndarray) -> np.ndarray:
    """``np.multiply(r, nus).sum(axis=2)`` of an (S, P, m) ``r``, bit for bit; ``r`` is overwritten.

    Below eight terms numpy sums an axis in order, so the sum is formed
    mark by mark, in mark order, on (S, P) operands: numpy's reduction
    would run an inner loop as short as the mark axis once per
    (scenario, path) pair. From eight terms up numpy sums pairwise, with
    eight accumulators, in an order of its own, so there the reduction
    itself runs.
    """
    # from eight terms up a mark-wise sum would change the bits
    if r.shape[2] >= 8:
        return np.multiply(r, nus, out=r).sum(axis=2)
    val = r[..., 0] * nus[0]
    for i in range(1, r.shape[2]):
        r_i = r[..., i]
        val += np.multiply(r_i, nus[i], out=r_i)
    return val


def bsde_stability_report(
    model: ModelSpec,
    mu: RelaxedControl,
    n_list: Sequence[int],
    drivers: Drivers,
    x0: float,
    *,
    basis_degree: int = 2,
) -> StabilityReport:
    """Adjoint gaps between a relaxed control and its chattering ladder.

    All runs share the drivers, so gaps are common-random-number pairings:
    sup-square for ``p``, integrated square for ``q``, intensity-weighted
    integrated square for ``r``. The orthogonal remainder is identically
    zero on both sides, so its gap column is exactly zero.

    No triple is held whole, no flow, and no states or backward variable
    of a rung. Each rung's core runs first, without a reducer, and the
    rung keeps only its loadings and each step's fit record
    (``core.fits``); its states and its backward variable are dropped
    after its core. Then one core runs on the relaxed control's stored
    run, and its reducer folds the whole ladder at each step: it pulls
    every rung's step from a replay of the rung's strict kernel and flow
    (``sde._batch_steps`` and ``variational._flow``), which reproduces
    the rung's states and ``psi`` bit for bit. The replay forms no
    ``phi``: the fold does not read it, and the rung's own core has
    already checked it. The reducer then forms the relaxed control's
    triple once, and then each rung's, with the rung's fit evaluated
    from the step's record at the replayed state (:func:`_evaluate_fit`),
    which reproduces the fit bit for bit. Every rung's step is pulled
    before the relaxed control's triple is formed, so the replays' step
    temporaries are gone before it exists. The peak holds two
    state-sized arrays, the relaxed control's states and backward
    variable, and per rung six (S, P) slots: three accumulators, a
    kernel slot and the replay's two ``psi`` slots. The accumulators
    hold the running max of ``|p_n - p|`` and the running sums of the
    squared ``q`` and the ``nu``-weighted squared ``r`` differences, in
    step order, which is the order numpy sums a time-major array over its
    first axis when a step holds more than one (scenario, path) pair. A
    step's ``r`` term sums its marks in numpy's order for the mark axis
    (:func:`_nu_weighted_mark_sum`): mark by mark on (S, P) operands below
    eight marks, and by numpy's own pairwise reduction from eight up. The
    terminal node's ``|g_x(x_n) - g_x(x)|`` joins the max after the pass,
    from each replay's terminal state (a max is exact in any order).
    ``health`` is the :func:`_estimator_health` of the relaxed control's
    regressions.

    A rung's kernel or regression failure is raised before anything of
    the relaxed control runs, and at a step the relaxed control's triple
    is checked before the rungs'.
    """
    n_list = check_ladder(n_list)
    dt = drivers.grid.dt
    nus = drivers.marks.intensities

    def rung_core(n):
        """Rung n's core, holding its loadings and fit records but no state-sized array."""
        core = _adjoint_core(simulate(model, chattering(mu, n), drivers, x0), basis_degree)
        del core.y, core.gx_term
        return core

    rungs = [rung_core(n) for n in n_list]
    ens = simulate(model, mu, drivers, x0)
    # each rung's states and psi, replayed step by step; the fold reads no phi
    flows = [_flow(model, rung.control, drivers,
                   (x[0] for _, x in _batch_steps(model, [rung.control], drivers, x0)),
                   need_inverse=True, need_forward=False) for rung in rungs]
    # per rung: the running max of |dp| and the sums of dq**2 and nu-weighted dr**2
    acc = np.zeros((len(rungs), 3) + ens.states.shape[1:])

    def fold_rung(rung, j, step, triple_mu, p_sup, q_sum, r_sum):
        # a frame of its own, so a rung's triple is freed before the next rung's is formed
        _, x_n, _, psi_n = step
        p, q, r = _finite_triple(rung, j, x_n, _evaluate_fit(rung.fits[j], x_n), psi_n)
        # the rung's triple is its own, so each difference is formed in its place
        for v, v_mu in zip((p, q, r), triple_mu):
            np.subtract(v, v_mu, out=v)
        np.maximum(p_sup, np.abs(p, out=p), out=p_sup)
        q_sum += np.square(q, out=q)
        r_sum += _nu_weighted_mark_sum(np.square(r, out=r), nus)

    def fold(core, j, phi_j, psi_j, fit_j):
        steps = [next(flow) for flow in flows]
        triple_mu = _finite_triple(core, j, ens.states[j], fit_j, psi_j)
        for rung, step, acc_n in zip(rungs, steps, acc):
            fold_rung(rung, j, step, triple_mu, *acc_n)

    mu_core = _adjoint_core(ens, basis_degree, fold)
    del ens, mu_core.y
    for flow, acc_n in zip(flows, acc):
        _, x_end, _, _ = next(flow)
        np.maximum(acc_n[0], np.abs(_terminal_gradient(model, x_end) - mu_core.gx_term),
                   out=acc_n[0])

    rows: list[StabilityRow] = []
    for n, (p_sup, q_sum, r_sum) in zip(n_list, acc):
        gaps = []
        for name, dev in (("p", p_sup**2), ("q", q_sum * dt), ("r", r_sum * dt)):
            _require_finite(dev, f"{name} gap of rung n={n}")
            gaps.append(upper_expectation(list(dev)))
        um_p, um_q, um_r = gaps
        rows.append(
            StabilityRow(
                n=n,
                p_gap=float(um_p.value),
                p_stderr=float(um_p.stderr),
                q_gap=float(um_q.value),
                q_stderr=float(um_q.stderr),
                r_gap=float(um_r.value),
                r_stderr=float(um_r.stderr),
                k_gap=0.0,
            )
        )

    return StabilityReport(
        rows=tuple(rows),
        p_nonincreasing=all(b.p_gap <= a.p_gap for a, b in zip(rows, rows[1:])),
        q_nonincreasing=all(b.q_gap <= a.q_gap for a, b in zip(rows, rows[1:])),
        r_nonincreasing=all(b.r_gap <= a.r_gap for a, b in zip(rows, rows[1:])),
        basis_degree=basis_degree,
        seed=drivers.seed,
        health=_estimator_health(mu_core),
    )
