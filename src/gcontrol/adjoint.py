"""Backward representation of the cost gradient and stationarity checks.

The costate is recovered along simulated paths by least-squares Monte
Carlo (the per-step regression scheme of Gobet, Lemor and Warin): the
terminal gradient is transported with the linearized flow, conditional
means are fitted with a polynomial basis in the state, and the
martingale loadings (Brownian, compensated jumps, and the second-order
volatility channel) come from cross-path regressions of the fitted
martingale increments.

The layer works time-major, as does every array it takes or returns:
states and flow (K+1, S, P), counts (K, m, P), and the triple's ``p``
(K+1, S, P), ``q`` (K, S, P) and ``r`` (K, S, P, m), all C-ordered.
:func:`_adjoint_core` walks the grid once forward; at each step it
solves the state regression of every scenario as one stacked SVD and
the increment regression as another (scenarios that drop the dB column
form a second stack). Each SVD yields the min-norm coefficients, the
condition numbers and the residuals together. One formula,
:func:`_triple_at`, turns a backward variable into ``(p, q, r)`` at a
step, reading ``sigma_x`` at that step rather than from a stored
array. :func:`_triple_steps` feeds it the fitted variable one step at a
time: :func:`solve_adjoint` fills whole arrays from it, and
:func:`bsde_stability_report` folds each chattering rung's steps into
per-(scenario, path) gap accumulators, so it never holds a rung's
triple. :func:`mp_check_relaxed` feeds :func:`_triple_at` the raw
(unfitted) variable at report-block starts only, with one backward pass
for the volatility-channel weights of every block. A backward variable,
triple component or table entry that overflows raises, naming the step
and the scenario.

On top of the triple the module builds stationarity tables for strict,
near-optimal, and relaxed controls (each with deterministic estimator
health numbers), one-step driver residuals, stability gaps under
chattering approximations, and a Lipschitz audit of the driver.
Verdicts are statistical: an entry passes when its estimate clears
minus the stated slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .controls import (
    RelaxedControl,
    SpikeSpec,
    StrictControl,
    chattering,
    ekeland_distance,
    embed_strict,
    spike,
)
from .costs import batch_costs
from .jumps import MarkSpace, sample_drivers
from .models import ModelSpec, ensure_validated
from .rng import PROBES, substream
from .scenarios import ScenarioFamily, TimeGrid, generator_G, upper_expectation
from .sde import StateEnsemble, ensemble_from_batch, simulate, simulate_batch, simulate_with
from .variational import _avg, _weights_and_actions, solve_fundamental

_DEGENERATE_STD = 1e-12


def _fmt(x) -> str:
    return repr(float(x))


def _sigma_x(model: ModelSpec, t: float, x: np.ndarray) -> np.ndarray:
    """``sigma_x(t, x)`` broadcast to the shape of ``x``."""
    return np.asarray(model.sigma_x(t, x), dtype=float) + np.zeros_like(x)


def _nonfinite_scenario(v: np.ndarray) -> int | None:
    """The first scenario (axis 0) where ``v`` is not finite, or None."""
    finite = np.isfinite(v)
    if finite.all():
        return None
    return int(np.argwhere(~finite)[0][0])


def _require_finite(v: np.ndarray, what: str) -> None:
    """Raise ``FloatingPointError`` naming ``what`` and the first non-finite scenario."""
    s = _nonfinite_scenario(v)
    if s is not None:
        raise FloatingPointError(f"non-finite {what} under scenario {s}")


@dataclass(frozen=True)
class AdjointTriple:
    """Costate ``p`` per grid node, loadings ``q``/``r`` per step.

    The orthogonal remainder ``k`` is identically zero under the finite
    scenario family used here; the column is kept so reports can show
    it. Every component is time-major, so ``p[k]`` and ``q[k]`` are
    contiguous (S, P) steps.
    """

    p: np.ndarray  # (K+1, S, P)
    q: np.ndarray  # (K, S, P)
    r: np.ndarray  # (K, S, P, m)
    k: np.ndarray  # (K, S, P), all zeros

    def __post_init__(self):
        kk, s, p_ = self.q.shape
        if self.p.shape != (kk + 1, s, p_):
            raise ValueError("p must have one more time index than q")
        if self.r.shape[:3] != (kk, s, p_) or self.r.ndim != 4:
            raise ValueError("r must align with q and carry a mark axis")
        if self.k.shape != self.q.shape:
            raise ValueError("k must have the shape of q")
        for name in ("p", "q", "r", "k"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"adjoint component {name} is not finite")
        if np.any(self.k != 0.0):
            raise ValueError("the orthogonal remainder must be identically zero")

    @property
    def n_marks(self) -> int:
        return self.r.shape[3]


@dataclass(frozen=True)
class BSDERepresentation:
    """Diagnostics of the regression-backed martingale representation.

    ``X`` is the raw backward variable at time zero (terminal gradient
    times the forward flow plus the running-cost integral), ``y`` the
    fitted conditional means of that variable along the grid. ``Q``/``R``
    are per-step cross-path loadings, ``intercept`` the leftover drift,
    and ``S_t`` the second-order loading recovered from that drift.
    Condition numbers are reported, never raised on.
    """

    X: np.ndarray  # (S, P) terminal functional
    y: np.ndarray  # (K+1, S, P)
    Q: np.ndarray  # (S, K)
    R: np.ndarray  # (S, K, m)
    S_t: np.ndarray  # (S, K)
    intercept: np.ndarray  # (S, K)
    cond_y: np.ndarray  # (S, K)
    cond_increment: np.ndarray  # (S, K)
    y_residual: np.ndarray  # (S,) rms in-sample regression residual
    basis_degree: int


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


class LipschitzAudit(NamedTuple):
    c0: float
    worst_ratio: float
    n_probes: int
    ok: bool


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


def tail_weights(
    phi: np.ndarray,
    psi: np.ndarray,
    y: np.ndarray,
    Q: np.ndarray,
    sx: Callable[[int], np.ndarray],
    a_tab: np.ndarray,
    s_table: np.ndarray,
    bounds,
    dt: float,
    starts: Sequence[int],
) -> np.ndarray:
    """Downstream volatility-channel weight of a spike opened at each start step.

    For a start ``k0`` the weight is

        sum_{k >= k0} phi_k (q_k sx_k a_k + S_k a_k - 2 G(S_k)) dt

    with ``q_k = psi_k (Q_k - y_k sx_k)`` and ``G`` the scalar generator
    :func:`~gcontrol.scenarios.generator_G`. One backward pass serves
    every start. ``phi``, ``psi`` and ``y`` are time-major (K+1, S, P),
    ``sx(k)`` returns ``sigma_x`` at step k, shape (S, P), and ``Q``,
    ``a_tab`` and ``s_table`` are (S, K). Returns shape
    (len(starts), S, P).
    """
    s_net = s_table * a_tab - 2.0 * generator_G(s_table, bounds)
    out = np.empty((len(starts),) + phi.shape[1:])
    acc = np.zeros(phi.shape[1:])
    slot = {int(k0): j for j, k0 in enumerate(starts)}
    for k in range(Q.shape[1] - 1, min(starts) - 1, -1):
        sx_k = sx(k)
        q_k = psi[k] * (Q[:, k][:, None] - y[k] * sx_k)
        acc += phi[k] * (q_k * sx_k * a_tab[:, k][:, None] + s_net[:, k][:, None])
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


def _vander(z: np.ndarray, degree: int) -> np.ndarray:
    """Increasing powers of z along a new last axis, as repeated products like np.vander."""
    out = np.empty(z.shape + (degree + 1,))
    out[..., 0] = 1.0
    for j in range(1, degree + 1):
        out[..., j] = z if j == 1 else out[..., j - 1] * z
    return out


def _svd_lstsq(design: np.ndarray, target: np.ndarray):
    """Min-norm least squares on a stack of designs from one SVD.

    ``design`` is (B, P, n) and ``target`` (B, P). Singular values at or
    below ``eps * max(P, n)`` times the largest are cut, the default
    ``rcond`` of ``np.linalg.lstsq``. Returns the coefficients (B, n),
    the fitted values (B, P) and the 2-norm condition numbers (B,), the
    latter as ``np.linalg.cond`` reports them (inf when singular).
    """
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    keep = s > np.finfo(float).eps * max(design.shape[-2:]) * s[:, :1]
    uty = np.where(keep, (target[:, None, :] @ u)[:, 0, :], 0.0)
    fitted = (u @ uty[:, :, None])[:, :, 0]
    coef = (np.swapaxes(vt, 1, 2) @ (uty / np.where(keep, s, 1.0))[:, :, None])[:, :, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = s[:, 0] / s[:, -1]
    cond[np.isnan(cond)] = np.inf
    return coef, fitted, cond


def _regress_state(x: np.ndarray, target: np.ndarray, degree: int):
    """Fit each scenario's target on a standardized polynomial basis in its state.

    ``x`` and ``target`` are one step's (S, P) slices; every scenario
    with a spread-out state goes into one stacked SVD. A degenerate
    state row (deterministic time, single path) falls back to the plain
    mean, which is the exact conditional expectation there, with
    condition number 1. Returns the fit (S, P), the condition numbers
    (S,) and the residual sums of squares (S,).
    """
    sd = x.std(axis=1)
    pred = np.empty_like(target)
    cond = np.ones(x.shape[0])
    flat = sd < _DEGENERATE_STD
    if flat.any():
        pred[flat] = target[flat].mean(axis=1)[:, None]
    live = ~flat
    if live.any():
        xl = x[live]
        z = (xl - xl.mean(axis=1)[:, None]) / sd[live][:, None]
        _, pred[live], cond[live] = _svd_lstsq(_vander(z, degree), target[live])
    return pred, cond, ((target - pred) ** 2).sum(axis=1)


def _regress_increment(dm: np.ndarray, db: np.ndarray, dn: np.ndarray):
    """Project each scenario's martingale increment on [dB, compensated marks, 1].

    ``dm`` and ``db`` are one step's (S, P) slices, ``dn`` the (m, P)
    compensated counts every scenario shares. Constant columns (no
    Brownian variance, no events at this step) are dropped instead of
    letting the design go singular; their loadings are reported as zero.
    Scenarios that keep the dB column and those that drop it are solved
    as two stacks. Returns q (S,), r (S, m), the intercepts (S,), the
    condition numbers (S,) and the dropped-column counts (S,).
    """
    n_scen, n_paths = dm.shape
    n_marks = dn.shape[0]
    keep_n = [i for i in range(n_marks) if float(dn[i].std()) > _DEGENERATE_STD]
    keep_b = db.std(axis=1) > _DEGENERATE_STD
    shared = [dn[i] for i in keep_n] + [np.ones(n_paths)]
    q_k = np.zeros(n_scen)
    r_k = np.zeros((n_scen, n_marks))
    c_k = np.empty(n_scen)
    cond = np.empty(n_scen)
    for with_b in (True, False):
        sel = np.flatnonzero(keep_b == with_b)
        if sel.size == 0:
            continue
        cols = [np.broadcast_to(col, (sel.size, n_paths)) for col in shared]
        if with_b:
            cols.insert(0, db[sel])
        coef, _, cond[sel] = _svd_lstsq(np.stack(cols, axis=-1), dm[sel])
        offset = int(with_b)
        if with_b:
            q_k[sel] = coef[:, 0]
        r_k[np.ix_(sel, keep_n)] = coef[:, offset:offset + len(keep_n)]
        c_k[sel] = coef[:, -1]
    dropped = (n_marks - len(keep_n)) + (~keep_b).astype(int)
    return q_k, r_k, c_k, cond, dropped


def _invert_step_drift(c: np.ndarray, a: np.ndarray, lo: float, hi: float, dt: float):
    """Second-order loadings consistent with fitted per-step drifts.

    A representable drift is ``S (a - argmax probe) dt``, which is never
    positive, so positive intercepts are noise and map to zero; so does
    a singleton volatility band, where the drift carries no information
    about ``S``. ``c`` and ``a`` are (S, K); returns S of that shape.
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


def _jump_inverse(model: ModelSpec, marks: MarkSpace, t: float, x, w_k, actions) -> np.ndarray:
    """``1 / (1 + f_x)`` per mark under the step's weights, shape (S, P, m)."""
    fxb = np.stack(
        [_avg(model.f_x, t, x, w_k, actions, theta=float(th)) for th in marks.marks], axis=-1
    )
    return 1.0 / (1.0 + fxb)


def _adjoint_core(
    ensemble: StateEnsemble, basis_degree: int, *, keep_fit: bool = False
) -> SimpleNamespace:
    """Raw backward variable, per-step regressions and loadings, time-major.

    One forward pass over the steps regresses the raw backward variable
    on the state (one stacked SVD per step across scenarios) and the
    martingale increment of the fitted variable on the step's noise
    (another). Every (K+1, S, P) array in the result is time-major; the
    fitted variable is kept only when ``keep_fit``. A backward variable
    that overflows raises ``FloatingPointError`` naming the step and
    the scenario.
    """
    model = ensemble.model
    grid = ensemble.grid
    marks = ensemble.marks
    dt = grid.dt
    n_steps = grid.n_steps
    _, n_scen, n_paths = ensemble.states.shape
    n_marks = marks.n_marks
    w, actions = _weights_and_actions(ensemble.control)

    pair = solve_fundamental(ensemble)
    phi, psi = pair.phi, pair.psi
    del pair  # its all-zero eta is not read here
    x = ensemble.states
    dB = ensemble.drivers.dB
    times = grid.times

    def running(k):
        hx = _avg(model.h_x, float(times[k]), x[k], w[k], actions)
        return hx * phi[k] * dt

    gx_term = np.asarray(model.g_x(x[n_steps]), dtype=float) + np.zeros_like(x[n_steps])
    targets = np.empty((n_steps + 1, n_scen, n_paths))
    targets[n_steps] = gx_term * phi[n_steps]
    _require_finite(targets[n_steps], f"backward variable at step {n_steps}")
    for k in range(n_steps - 1, -1, -1):
        targets[k] = targets[k + 1] + running(k)
        _require_finite(targets[k], f"backward variable at step {k}")

    yhat = np.empty_like(targets) if keep_fit else None
    cond_y = np.ones((n_scen, n_steps))
    cond_inc = np.ones((n_scen, n_steps))
    sq_resid = np.zeros(n_scen)
    q_load = np.zeros((n_scen, n_steps))
    r_load = np.zeros((n_scen, n_steps, n_marks))
    intercept = np.zeros((n_scen, n_steps))
    dropped = 0
    comp = marks.intensities[:, None] * dt
    counts = ensemble.counts
    past = np.zeros((n_scen, n_paths))
    m_prev = None
    for k in range(n_steps + 1):
        if k < n_steps:
            fit, cond_y[:, k], rss = _regress_state(x[k], targets[k], basis_degree)
            sq_resid += rss
        else:
            fit = targets[n_steps]
        if keep_fit:
            yhat[k] = fit
        m_k = fit + past
        if k > 0:
            j = k - 1
            q_load[:, j], r_load[:, j], intercept[:, j], cond_inc[:, j], drop = (
                _regress_increment(m_k - m_prev, dB[j], counts[j] - comp)
            )
            dropped += int(drop.sum())
        if k < n_steps:
            past = past + running(k)
        m_prev = m_k
    y_residual = np.sqrt(sq_resid / (n_steps * n_paths))

    a_tab = ensemble.family.values
    lo = ensemble.family.bounds.sigma_low
    hi = ensemble.family.bounds.sigma_high
    s_table = _invert_step_drift(intercept, a_tab, lo, hi, dt)
    clamped = int(np.count_nonzero(intercept > 0.0)) if hi - lo > 1e-12 else 0

    return SimpleNamespace(
        phi=phi,
        psi=psi,
        x=x,
        w=w,
        actions=actions,
        gx_term=gx_term,
        targets=targets,
        yhat=yhat,
        X=targets[0].copy(),
        Q=q_load,
        R=r_load,
        S_t=s_table,
        intercept=intercept,
        cond_y=cond_y,
        cond_increment=cond_inc,
        y_residual=y_residual,
        dropped_columns=dropped,
        clamped_intercepts=clamped,
        basis_degree=basis_degree,
    )


def _triple_at(ensemble: StateEnsemble, core: SimpleNamespace, k: int, y_k: np.ndarray):
    """``(p, q, r)`` at step k from a backward variable ``y_k``, shape (S, P).

    ``p = y psi``, ``q = psi (Q - y sigma_x)`` and
    ``r = R psi / (1 + f_x) + p (1 / (1 + f_x) - 1)`` per mark, with the
    step's loadings ``Q``/``R`` from ``core``; ``r`` has shape (S, P, m).
    """
    psi = core.psi[k]
    t = float(ensemble.grid.times[k])
    inv = _jump_inverse(ensemble.model, ensemble.marks, t, core.x[k], core.w[k], core.actions)
    p = y_k * psi
    q = psi * (core.Q[:, k][:, None] - y_k * _sigma_x(ensemble.model, t, core.x[k]))
    r = core.R[:, k][:, None, :] * psi[:, :, None] * inv + p[:, :, None] * (inv - 1.0)
    return p, q, r


def _triple_steps(ensemble: StateEnsemble, core: SimpleNamespace) -> Iterator[tuple]:
    """Yield ``(p_k, q_k, r_k)`` of the fitted variable for k < K, one step at a time.

    ``core`` must keep its fit. A non-finite component raises the
    ``ValueError`` of :class:`AdjointTriple`, naming the step and the
    scenario, before the step is handed on.
    """
    for k in range(ensemble.grid.n_steps):
        step = _triple_at(ensemble, core, k, core.yhat[k])
        for name, v in zip("pqr", step):
            s = _nonfinite_scenario(v)
            if s is not None:
                raise ValueError(
                    f"adjoint component {name} is not finite at step {k} under scenario {s}"
                )
        yield step


def _fitted_triple(ensemble: StateEnsemble, core: SimpleNamespace):
    """The arrays ``p`` (K+1, S, P), ``q`` (K, S, P) and ``r`` (K, S, P, m).

    The terminal value of ``p`` is the exact terminal gradient, set
    directly rather than through the fitted product.
    """
    n_steps = ensemble.grid.n_steps
    p = np.empty(ensemble.states.shape)
    q = np.empty(p[:n_steps].shape)
    r = np.empty(q.shape + (ensemble.marks.n_marks,))
    for k, (p_k, q_k, r_k) in enumerate(_triple_steps(ensemble, core)):
        p[k], q[k], r[k] = p_k, q_k, r_k
    p[n_steps] = core.gx_term
    return p, q, r


def solve_adjoint(
    ensemble: StateEnsemble, basis_degree: int = 2
) -> tuple[AdjointTriple, BSDERepresentation]:
    """Recover the adjoint triple along an ensemble's paths.

    ``p`` is the fitted backward variable times ``psi``; ``q`` and ``r``
    transport the regression loadings with ``psi`` and the jump
    inverse. The terminal value of ``p`` is the exact terminal gradient,
    set directly rather than through the fitted product. Degenerate
    regressions fall back to means and dropped columns; condition
    numbers land in the representation for inspection.
    """
    core = _adjoint_core(ensemble, basis_degree, keep_fit=True)
    p, q, r = _fitted_triple(ensemble, core)
    triple = AdjointTriple(p=p, q=q, r=r, k=np.zeros_like(q))
    rep = BSDERepresentation(
        X=core.X,
        y=core.yhat,
        Q=core.Q,
        R=core.R,
        S_t=core.S_t,
        intercept=core.intercept,
        cond_y=core.cond_y,
        cond_increment=core.cond_increment,
        y_residual=core.y_residual,
        basis_degree=basis_degree,
    )
    return triple, rep


def bsde_residual(ensemble: StateEnsemble, triple: AdjointTriple) -> np.ndarray:
    """Mean-square one-step residual of the driver representation.

    The driver is evaluated with the scenario quadratic-variation
    density ``pi = a_t`` and with the jump coefficient itself (not its
    state derivative) weighting ``r``:

        F = -h_x + p (b_x - pi gamma_x) - pi q sigma_x + sum_i r_i f nu_i

    and the residual at step k is
    ``p_{k+1} - p_k + F dt - q dB - sum_i r_i dN~_i`` averaged in square
    over paths and steps, one value per scenario.
    """
    model = ensemble.model
    grid = ensemble.grid
    marks = ensemble.marks
    dt = grid.dt
    n_steps = grid.n_steps
    _, n_scen, n_paths = ensemble.states.shape
    w, actions = _weights_and_actions(ensemble.control)
    a_tab = ensemble.family.values
    dB = ensemble.drivers.dB
    counts = ensemble.counts
    nus = marks.intensities
    p = triple.p

    total = np.zeros(n_scen)
    for k in range(n_steps):
        t = float(grid.times[k])
        x = ensemble.states[k]
        pi = a_tab[:, k][:, None]
        bx = _avg(model.b_x, t, x, w[k], actions)
        gx = _avg(model.gamma_x, t, x, w[k], actions)
        hxk = _avg(model.h_x, t, x, w[k], actions)
        sxk = _sigma_x(model, t, x)
        q, r = triple.q[k], triple.r[k]
        drv = -hxk + p[k] * (bx - pi * gx) - pi * q * sxk
        for i in range(marks.n_marks):
            f_i = _avg(model.f, t, x, w[k], actions, theta=float(marks.marks[i]))
            drv = drv + r[:, :, i] * f_i * float(nus[i])
        resid = p[k + 1] - p[k] + drv * dt - q * dB[k]
        for i in range(marks.n_marks):
            resid = resid - r[:, :, i] * (counts[k, i] - float(nus[i]) * dt)
        total += (resid**2).sum(axis=1)
    return total / (n_paths * n_steps)


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
    the regression columns dropped as constant, and the positive
    per-step drifts that :func:`_invert_step_drift` maps to zero.
    """
    return {
        "cond_y_max": float(np.max(core.cond_y)),
        "cond_y_median": float(np.median(core.cond_y)),
        "cond_increment_max": float(np.max(core.cond_increment)),
        "cond_increment_median": float(np.median(core.cond_increment)),
        "y_residual_max": float(np.max(core.y_residual)),
        "dropped_columns": int(core.dropped_columns),
        "clamped_intercepts": int(core.clamped_intercepts),
    }


def mp_check_relaxed(
    model: ModelSpec,
    mu: RelaxedControl,
    family: ScenarioFamily,
    grid: TimeGrid,
    marks: MarkSpace,
    n_paths: int,
    seed: int,
    x0: float,
    *,
    n_blocks: int = 4,
    slack_mult: float = 3.0,
    extra_slack: float = 0.0,
    basis_degree: int = 2,
    ensemble: StateEnsemble | None = None,
) -> MPCheckReport:
    """Stationarity table for a relaxed control.

    Each entry compares a candidate action against the mixture at a
    report-block start: the Hamiltonian difference plus the
    volatility-channel term, averaged per scenario and maximized across
    scenarios. An entry passes when its estimate is at least minus
    ``slack_mult`` standard errors minus ``extra_slack``. Entries at a
    Dirac mixture's own atom are exactly zero by construction. The
    triple is built from the raw (unfitted) backward variable, and only
    at block starts. A caller that already simulated ``mu`` on this seed
    passes that ``ensemble``.
    """
    ensure_validated(model)
    n_steps = grid.n_steps
    if n_blocks < 1 or n_steps % n_blocks != 0:
        raise ValueError(f"n_blocks must divide the step count, got {n_blocks} for {n_steps}")
    if ensemble is None:
        ens = simulate(model, mu, family, grid, marks, n_paths, seed, x0)
    elif ensemble.seed != seed or ensemble.n_paths != n_paths or ensemble.control is not mu:
        raise ValueError("the ensemble was not simulated for this control, seed and n_paths")
    else:
        ens = ensemble
    core = _adjoint_core(ens, basis_degree)

    w, actions = core.w, core.actions
    a_tab = family.values
    nus = marks.intensities
    n_scen = a_tab.shape[0]
    block_len = n_steps // n_blocks
    starts = [b * block_len for b in range(n_blocks)]
    weights = tail_weights(core.phi, core.psi, core.targets, core.Q,
                           lambda k: _sigma_x(model, float(grid.times[k]), core.x[k]),
                           a_tab, core.S_t, family.bounds, grid.dt, starts)

    entries: list[MPEntry] = []
    for b, k0 in enumerate(starts):
        t0 = float(grid.times[k0])
        x = core.x[k0]
        a0 = a_tab[:, k0][:, None]
        psi0 = core.psi[k0]
        p0, q0, r0 = _triple_at(ens, core, k0, core.targets[k0])

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
        n_paths=n_paths,
        seed=seed,
        health=_estimator_health(core),
    )


def mp_check_strict(
    model: ModelSpec,
    u_star: StrictControl,
    family: ScenarioFamily,
    grid: TimeGrid,
    marks: MarkSpace,
    n_paths: int,
    seed: int,
    x0: float,
    *,
    n_blocks: int = 4,
    slack_mult: float = 3.0,
    basis_degree: int = 2,
) -> MPCheckReport:
    """Stationarity table for a strict control.

    Runs the relaxed table on the Dirac embedding, which reduces entry
    for entry to the strict comparison against ``u_star``.
    """
    return mp_check_relaxed(
        model,
        embed_strict(u_star),
        family,
        grid,
        marks,
        n_paths,
        seed,
        x0,
        n_blocks=n_blocks,
        slack_mult=slack_mult,
        basis_degree=basis_degree,
    )


def mp_check_near(
    model: ModelSpec,
    u_n: StrictControl,
    candidates: Sequence[StrictControl],
    C: float,
    family: ScenarioFamily,
    grid: TimeGrid,
    marks: MarkSpace,
    n_paths: int,
    seed: int,
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
    """
    if C < 0.0:
        raise ValueError(f"the allowance coefficient must be nonnegative, got {C}")
    n_steps = grid.n_steps
    if n_blocks < 1 or n_steps % n_blocks != 0:
        raise ValueError(f"n_blocks must divide the step count, got {n_blocks} for {n_steps}")

    cands = list(candidates)
    if add_block_spikes:
        block_len = n_steps // n_blocks
        for b in range(n_blocks):
            k0 = b * block_len
            t0 = float(grid.times[k0])
            for ai in range(u_n.grid.n_actions):
                if ai == int(u_n.indices[k0]):
                    continue
                spec = SpikeSpec(base=u_n, action_index=ai, t0=t0, width=grid.dt)
                cands.append(spike(spec, grid))

    if epsilon_n is not None and epsilon_n < 0.0:
        raise ValueError(f"epsilon_n must be nonnegative, got {epsilon_n}")

    # u_n and every candidate in one strict batch; u_n's row, wrapped as its
    # Dirac embedding, feeds the table, and the batch is gone before the adjoint
    drivers = sample_drivers(family, grid, marks, n_paths, seed)
    controls = [u_n] + cands
    states = simulate_batch(model, controls, family, grid, marks, drivers, x0)
    reports = batch_costs(model, controls, grid, states, drivers.seed)
    mu_n = embed_strict(u_n)
    ens = ensemble_from_batch(model, mu_n, family, grid, marks, drivers, x0, states[:, 0])
    del states
    j_n = reports[0].upper_value
    scored = [
        (ekeland_distance(u_n, cand, grid), rep.upper_value)
        for cand, rep in zip(cands, reports[1:])
    ]
    del reports

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

    mp = mp_check_relaxed(
        model,
        mu_n,
        family,
        grid,
        marks,
        n_paths,
        seed,
        x0,
        n_blocks=n_blocks,
        slack_mult=slack_mult,
        extra_slack=C * eps,
        basis_degree=basis_degree,
        ensemble=ens,
    )

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


def bsde_stability_report(
    model: ModelSpec,
    mu: RelaxedControl,
    family: ScenarioFamily,
    grid: TimeGrid,
    marks: MarkSpace,
    n_list: Sequence[int],
    n_paths: int,
    seed: int,
    x0: float,
    *,
    basis_degree: int = 2,
) -> StabilityReport:
    """Adjoint gaps between a relaxed control and its chattering ladder.

    All runs share the seed, so gaps are common-random-number pairings:
    sup-square for ``p``, integrated square for ``q``, intensity-weighted
    integrated square for ``r``. The orthogonal remainder is identically
    zero on both sides, so its gap column is exactly zero.

    Only the relaxed control's ``p``, ``q`` and ``r`` are held whole. A
    rung's triple is formed one step at a time and folded into three
    (S, P) accumulators: the running max of ``|p_n - p|`` (terminal node
    included) and the running sums of the squared ``q`` and the
    ``nu``-weighted squared ``r`` differences, in step order, which is
    the order numpy sums a time-major array over its first axis when a
    step holds more than one (scenario, path) pair.
    """
    n_list = [int(n) for n in n_list]
    if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n_list must be strictly increasing and nonempty, got {n_list}")
    dt = grid.dt
    n_steps = grid.n_steps
    nus = marks.intensities

    # one set of drivers for every rung; each rung is simulated right
    # before its adjoint, and its ensemble and regressions are dropped
    # before the next one, because the adjoint sets the peak memory
    drivers = sample_drivers(family, grid, marks, n_paths, seed)
    ens = simulate_with(model, mu, family, grid, marks, drivers, x0)
    core = _adjoint_core(ens, basis_degree, keep_fit=True)
    p_mu, q_mu, r_mu = _fitted_triple(ens, core)
    del ens, core

    rows: list[StabilityRow] = []
    for n in n_list:
        ens = simulate_with(model, chattering(mu, n), family, grid, marks, drivers, x0)
        core = _adjoint_core(ens, basis_degree, keep_fit=True)
        p_sup = np.abs(core.gx_term - p_mu[n_steps])
        q_sum = np.zeros(p_sup.shape)
        r_sum = np.zeros(p_sup.shape)
        for k, (p, q, r) in enumerate(_triple_steps(ens, core)):
            np.maximum(p_sup, np.abs(p - p_mu[k]), out=p_sup)
            q_sum += (q - q_mu[k]) ** 2
            r_sum += (((r - r_mu[k]) ** 2) * nus).sum(axis=2)
        del ens, core

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
        seed=seed,
    )


def driver_lipschitz_audit(
    model: ModelSpec,
    family: ScenarioFamily,
    grid: TimeGrid,
    marks: MarkSpace,
    n_probes: int = 1000,
    seed: int = 0,
) -> LipschitzAudit:
    """Check the driver's Lipschitz constant against declared bounds.

    ``C0 = max(|b_x| + pi |gamma_x|, pi |sigma_x|, |f|)`` with ``pi`` the
    upper volatility corner. Random probe pairs of (p, q, r) at random
    (t, x, a, pi) must produce difference ratios below ``C0`` in the
    metric ``|dp| + |dq| + sum_i |dr_i| nu_i``.
    """
    ensure_validated(model)
    if n_probes < 1:
        raise ValueError(f"n_probes must be positive, got {n_probes}")
    lo_x, hi_x = model.bounds["state_box"]
    lo_a, hi_a = model.bounds["action_box"]
    pi_lo = family.bounds.sigma_low
    pi_hi = family.bounds.sigma_high
    c0 = max(
        model.bounds["b_x"] + pi_hi * model.bounds["gamma_x"],
        pi_hi * model.bounds["sigma_x"],
        model.bounds["f"],
    )

    gen = substream(seed, PROBES)
    t = gen.uniform(0.0, grid.T, n_probes)
    x = gen.uniform(lo_x, hi_x, n_probes)
    a = gen.uniform(lo_a, hi_a, n_probes)
    pi = gen.uniform(pi_lo, pi_hi, n_probes)
    dp = gen.standard_normal(n_probes) - gen.standard_normal(n_probes)
    dq = gen.standard_normal(n_probes) - gen.standard_normal(n_probes)
    dr = gen.standard_normal((n_probes, marks.n_marks)) - gen.standard_normal(
        (n_probes, marks.n_marks)
    )

    bx = np.asarray(model.b_x(t, x, a), dtype=float) + np.zeros_like(x)
    gx = np.asarray(model.gamma_x(t, x, a), dtype=float) + np.zeros_like(x)
    sxv = _sigma_x(model, t, x)

    diff = dp * (bx - pi * gx) - pi * dq * sxv
    denom = np.abs(dp) + np.abs(dq)
    for i in range(marks.n_marks):
        f_i = np.asarray(
            model.f(t, x, float(marks.marks[i]), a), dtype=float
        ) + np.zeros_like(x)
        nu_i = float(marks.intensities[i])
        diff = diff + dr[:, i] * f_i * nu_i
        denom = denom + np.abs(dr[:, i]) * nu_i

    mask = denom > 1e-12
    ratio = np.abs(diff[mask]) / denom[mask]
    worst = float(ratio.max()) if ratio.size else 0.0
    return LipschitzAudit(
        c0=float(c0),
        worst_ratio=worst,
        n_probes=int(n_probes),
        ok=bool(worst <= c0 * (1.0 + 1e-9)),
    )


def mp_report_csv(report: MPCheckReport) -> str:
    lines = ["block,action,estimate,stderr,slack,verdict"]
    for e in report.entries:
        verdict = "pass" if e.passed else "fail"
        lines.append(
            f"{e.block},{_fmt(e.action)},{_fmt(e.estimate)},"
            f"{_fmt(e.stderr)},{_fmt(e.slack)},{verdict}"
        )
    return "\n".join(lines) + "\n"


def stability_csv(report: StabilityReport) -> str:
    lines = ["n,p_gap,p_stderr,q_gap,q_stderr,r_gap,r_stderr,k_gap"]
    for row in report.rows:
        lines.append(
            f"{row.n},{_fmt(row.p_gap)},{_fmt(row.p_stderr)},{_fmt(row.q_gap)},"
            f"{_fmt(row.q_stderr)},{_fmt(row.r_gap)},{_fmt(row.r_stderr)},{_fmt(row.k_gap)}"
        )
    return "\n".join(lines) + "\n"
