"""Backward representation of the cost gradient and stationarity checks.

The costate is recovered along simulated paths by least-squares Monte
Carlo: the terminal gradient is transported with the linearized flow,
conditional means are fitted per scenario with a polynomial basis in the
state, and the martingale loadings (Brownian, compensated jumps, and the
second-order volatility channel) come from per-step cross-path
regressions of the fitted martingale increments.

On top of the triple the module builds stationarity tables for strict,
near-optimal, and relaxed controls, one-step driver residuals, stability
gaps under chattering approximations, and a Lipschitz audit of the
driver. Verdicts are statistical: an entry passes when its estimate
clears minus the stated slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple, Sequence

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
from .costs import evaluate_costs
from .jumps import Drivers, MarkSpace, sample_drivers
from .models import ModelSpec, ensure_validated
from .rng import PROBES, substream
from .scenarios import ScenarioFamily, TimeGrid, generator_G, upper_expectation
from .sde import StateEnsemble, simulate, simulate_with
from .variational import _avg, _weights_and_actions, solve_fundamental

_DEGENERATE_STD = 1e-12


def _fmt(x) -> str:
    return repr(float(x))


@dataclass(frozen=True)
class AdjointTriple:
    """Costate ``p`` per grid node, loadings ``q``/``r`` per step.

    The orthogonal remainder ``k`` is identically zero under the finite
    scenario family used here; the column is kept so reports can show
    it.
    """

    p: np.ndarray  # (S, P, K+1)
    q: np.ndarray  # (S, P, K)
    r: np.ndarray  # (S, P, K, m)
    k: np.ndarray  # (S, P, K), all zeros

    def __post_init__(self):
        s, p_, kk = self.q.shape
        if self.p.shape != (s, p_, kk + 1):
            raise ValueError("p must have one more time index than q")
        if self.r.shape[:3] != (s, p_, kk) or self.r.ndim != 4:
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

    ``targets`` holds the raw backward variable (terminal gradient times
    the forward flow plus the remaining running-cost integral), ``y`` its
    fitted conditional means. ``Q``/``R`` are per-step cross-path
    loadings, ``intercept`` the leftover drift, and ``S_t`` the
    second-order loading recovered from that drift. Condition numbers
    are reported, never raised on.
    """

    X: np.ndarray  # (S, P) terminal functional
    y: np.ndarray  # (S, P, K+1)
    targets: np.ndarray  # (S, P, K+1)
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


def f_term(
    ensemble: StateEnsemble,
    k0: int,
    impulse: np.ndarray,
    dgamma: np.ndarray,
    p_at: np.ndarray,
    q_path: np.ndarray,
    sigma_x_path: np.ndarray,
    phi: np.ndarray,
    psi: np.ndarray,
    s_table: np.ndarray,
) -> np.ndarray:
    """Volatility-channel contribution of a spike opened at step ``k0``.

    The instantaneous part couples the gamma response to the scenario
    quadratic variation at ``k0``; the downstream part weights the
    variational flow ``ztilde = phi * (psi_k0 * impulse)`` with the
    diffusion loading and the second-order loading, net of twice the
    generator. With a single constant scenario the ``S``-weighted terms
    cancel exactly, because the generator maximum is attained at that
    scenario.
    """
    grid = ensemble.grid
    dt = grid.dt
    n_steps = grid.n_steps
    a_tab = ensemble.family.scalar_values()
    bounds = ensemble.family.bounds
    n_scen = a_tab.shape[0]

    z0 = psi[:, :, k0] * impulse  # (S, P)
    ztilde = phi[:, :, k0:n_steps] * z0[:, :, None]

    g_tab = np.empty((n_scen, n_steps - k0))
    for s in range(n_scen):
        for j, k in enumerate(range(k0, n_steps)):
            g_tab[s, j] = generator_G(s_table[s, k], bounds)
    s_net = s_table[:, k0:n_steps] * a_tab[:, k0:n_steps] - 2.0 * g_tab

    q_part = (
        q_path[:, :, k0:n_steps]
        * sigma_x_path[:, :, k0:n_steps]
        * ztilde
        * a_tab[:, None, k0:n_steps]
    )
    tail = (q_part + ztilde * s_net[:, None, :]).sum(axis=2) * dt
    return p_at * dgamma * a_tab[:, k0][:, None] + tail


def _regress_state(x: np.ndarray, target: np.ndarray, degree: int):
    """Fit target on a standardized polynomial basis in the state.

    A degenerate state column (deterministic time, single path) falls
    back to the plain mean, which is the exact conditional expectation
    there.
    """
    sd = float(x.std())
    if sd < _DEGENERATE_STD:
        pred = np.full(x.shape, float(target.mean()))
        return pred, 1.0, float(((target - pred) ** 2).sum())
    z = (x - x.mean()) / sd
    design = np.vander(z, degree + 1, increasing=True)
    coef, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
    pred = design @ coef
    with np.errstate(divide="ignore", over="ignore"):
        cond = float(np.linalg.cond(design))
    return pred, cond, float(((target - pred) ** 2).sum())


def _regress_increment(dm: np.ndarray, db: np.ndarray, dn: np.ndarray):
    """Project a martingale increment on [dB, compensated marks, 1].

    Constant columns (no Brownian variance, no events at this step) are
    dropped instead of letting the normal equations go singular; their
    loadings are reported as zero.
    """
    n_marks = dn.shape[1]
    keep_b = float(db.std()) > _DEGENERATE_STD
    keep_n = [i for i in range(n_marks) if float(dn[:, i].std()) > _DEGENERATE_STD]
    cols = ([db] if keep_b else []) + [dn[:, i] for i in keep_n] + [np.ones_like(dm)]
    design = np.column_stack(cols)
    coef, _, _, _ = np.linalg.lstsq(design, dm, rcond=None)
    q_k = float(coef[0]) if keep_b else 0.0
    r_k = np.zeros(n_marks)
    offset = 1 if keep_b else 0
    for j, i in enumerate(keep_n):
        r_k[i] = float(coef[offset + j])
    with np.errstate(divide="ignore", over="ignore"):
        cond = float(np.linalg.cond(design))
    return q_k, r_k, float(coef[-1]), cond


def _invert_step_drift(c: float, a: float, lo: float, hi: float, dt: float) -> float:
    """Second-order loading consistent with a fitted per-step drift.

    A representable drift is ``S (a - argmax probe) dt``, which is never
    positive, so positive intercepts are noise and map to zero; so does
    a singleton volatility band, where the drift carries no information
    about ``S``.
    """
    if hi - lo <= 1e-12 or c >= 0.0:
        return 0.0
    if a < hi - 1e-12:
        return float(c / ((a - hi) * dt))
    if a > lo + 1e-12:
        return float(c / ((a - lo) * dt))
    return 0.0


def _adjoint_core(ensemble: StateEnsemble, basis_degree: int) -> SimpleNamespace:
    model = ensemble.model
    grid = ensemble.grid
    marks = ensemble.marks
    dt = grid.dt
    n_steps = grid.n_steps
    n_scen, n_paths = ensemble.states.shape[:2]
    n_marks = marks.n_marks
    nus = marks.intensities

    pair = solve_fundamental(ensemble)
    phi, psi = pair.phi, pair.psi
    w, actions = _weights_and_actions(ensemble.control)

    sx = np.empty((n_scen, n_paths, n_steps))
    hx = np.empty((n_scen, n_paths, n_steps))
    fxb = np.empty((n_scen, n_paths, n_steps, n_marks))
    for k in range(n_steps):
        t = float(grid.times[k])
        x = ensemble.states[:, :, k]
        sx[:, :, k] = np.asarray(model.sigma_x(t, x), dtype=float) + np.zeros_like(x)
        hx[:, :, k] = _avg(model.h_x, t, x, w[k], actions)
        for i in range(n_marks):
            fxb[:, :, k, i] = _avg(model.f_x, t, x, w[k], actions, theta=float(marks.marks[i]))

    x_term = ensemble.states[:, :, n_steps]
    gx_term = np.asarray(model.g_x(x_term), dtype=float) + np.zeros_like(x_term)

    targets = np.empty((n_scen, n_paths, n_steps + 1))
    targets[:, :, n_steps] = gx_term * phi[:, :, n_steps]
    for k in range(n_steps - 1, -1, -1):
        targets[:, :, k] = targets[:, :, k + 1] + hx[:, :, k] * phi[:, :, k] * dt

    past = np.zeros((n_scen, n_paths, n_steps + 1))
    for k in range(n_steps):
        past[:, :, k + 1] = past[:, :, k] + hx[:, :, k] * phi[:, :, k] * dt

    yhat = np.empty_like(targets)
    yhat[:, :, n_steps] = targets[:, :, n_steps]
    cond_y = np.ones((n_scen, n_steps))
    sq_resid = np.zeros(n_scen)
    for s in range(n_scen):
        for k in range(n_steps):
            pred, cond, rss = _regress_state(
                ensemble.states[s, :, k], targets[s, :, k], basis_degree
            )
            yhat[s, :, k] = pred
            cond_y[s, k] = cond
            sq_resid[s] += rss
    y_residual = np.sqrt(sq_resid / (n_steps * n_paths))

    mhat = yhat + past
    dB = ensemble.noise.scalar_dB()
    counts = ensemble.counts
    comp = nus[None, :] * dt
    q_load = np.zeros((n_scen, n_steps))
    r_load = np.zeros((n_scen, n_steps, n_marks))
    intercept = np.zeros((n_scen, n_steps))
    cond_inc = np.ones((n_scen, n_steps))
    for s in range(n_scen):
        for k in range(n_steps):
            dm = mhat[s, :, k + 1] - mhat[s, :, k]
            dn = counts[:, k, :] - comp
            q_k, r_k, c_k, cond = _regress_increment(dm, dB[s, :, k], dn)
            q_load[s, k] = q_k
            r_load[s, k] = r_k
            intercept[s, k] = c_k
            cond_inc[s, k] = cond

    a_tab = ensemble.family.scalar_values()
    lo = float(ensemble.family.bounds.sigma_low[0, 0])
    hi = float(ensemble.family.bounds.sigma_high[0, 0])
    s_table = np.zeros((n_scen, n_steps))
    for s in range(n_scen):
        for k in range(n_steps):
            s_table[s, k] = _invert_step_drift(
                float(intercept[s, k]), float(a_tab[s, k]), lo, hi, dt
            )

    p = yhat * psi
    q = psi[:, :, :n_steps] * (q_load[:, None, :] - yhat[:, :, :n_steps] * sx)
    inv = 1.0 / (1.0 + fxb)
    r = (
        r_load[:, None, :, :] * psi[:, :, :n_steps, None] * inv
        + p[:, :, :n_steps, None] * (inv - 1.0)
    )
    p[:, :, n_steps] = gx_term

    return SimpleNamespace(
        phi=phi,
        psi=psi,
        sx=sx,
        hx=hx,
        fxb=fxb,
        targets=targets,
        past=past,
        yhat=yhat,
        X=targets[:, :, 0],
        Q=q_load,
        R=r_load,
        S_t=s_table,
        intercept=intercept,
        cond_y=cond_y,
        cond_increment=cond_inc,
        y_residual=y_residual,
        p=p,
        q=q,
        r=r,
        basis_degree=basis_degree,
    )


def solve_adjoint(
    ensemble: StateEnsemble, basis_degree: int = 2
) -> tuple[AdjointTriple, BSDERepresentation]:
    """Recover the adjoint triple along an ensemble's paths.

    The terminal value of ``p`` is the exact terminal gradient, set
    directly rather than through the fitted product. Degenerate
    regressions fall back to means and dropped columns; condition
    numbers land in the representation for inspection.
    """
    core = _adjoint_core(ensemble, basis_degree)
    triple = AdjointTriple(p=core.p, q=core.q, r=core.r, k=np.zeros_like(core.q))
    rep = BSDERepresentation(
        X=core.X,
        y=core.yhat,
        targets=core.targets,
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
    n_scen, n_paths = ensemble.states.shape[:2]
    w, actions = _weights_and_actions(ensemble.control)
    a_tab = ensemble.family.scalar_values()
    dB = ensemble.noise.scalar_dB()
    counts = ensemble.counts
    nus = marks.intensities

    total = np.zeros(n_scen)
    for k in range(n_steps):
        t = float(grid.times[k])
        x = ensemble.states[:, :, k]
        pi = a_tab[:, k][:, None]
        bx = _avg(model.b_x, t, x, w[k], actions)
        gx = _avg(model.gamma_x, t, x, w[k], actions)
        hxk = _avg(model.h_x, t, x, w[k], actions)
        sxk = np.asarray(model.sigma_x(t, x), dtype=float) + np.zeros_like(x)
        drv = -hxk + triple.p[:, :, k] * (bx - pi * gx) - pi * triple.q[:, :, k] * sxk
        for i in range(marks.n_marks):
            f_i = _avg(model.f, t, x, w[k], actions, theta=float(marks.marks[i]))
            drv = drv + triple.r[:, :, k, i] * f_i * float(nus[i])
        resid = (
            triple.p[:, :, k + 1]
            - triple.p[:, :, k]
            + drv * dt
            - triple.q[:, :, k] * dB[:, :, k]
        )
        for i in range(marks.n_marks):
            dn_i = counts[:, k, i] - float(nus[i]) * dt
            resid = resid - triple.r[:, :, k, i] * dn_i[None, :]
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
    drivers: Drivers | None = None,
) -> MPCheckReport:
    """Stationarity table for a relaxed control.

    Each entry compares a candidate action against the mixture at a
    report-block start: the Hamiltonian difference plus the
    volatility-channel term, averaged per scenario and maximized across
    scenarios. An entry passes when its estimate is at least minus
    ``slack_mult`` standard errors minus ``extra_slack``. Entries at a
    Dirac mixture's own atom are exactly zero by construction. A caller
    that already sampled this seed passes its ``drivers``.
    """
    ensure_validated(model)
    n_steps = grid.n_steps
    if n_blocks < 1 or n_steps % n_blocks != 0:
        raise ValueError(f"n_blocks must divide the step count, got {n_blocks} for {n_steps}")
    if drivers is None:
        ens = simulate(model, mu, family, grid, marks, n_paths, seed, x0)
    else:
        ens = simulate_with(model, mu, family, grid, marks, drivers, x0)
    core = _adjoint_core(ens, basis_degree)

    psi_steps = core.psi[:, :, :n_steps]
    p_raw = core.targets * core.psi
    q_raw = psi_steps * (core.Q[:, None, :] - core.targets[:, :, :n_steps] * core.sx)
    inv = 1.0 / (1.0 + core.fxb)
    r_raw = (
        core.R[:, None, :, :] * psi_steps[:, :, :, None] * inv
        + p_raw[:, :, :n_steps, None] * (inv - 1.0)
    )

    w, actions = _weights_and_actions(mu)
    a_tab = family.scalar_values()
    nus = marks.intensities
    n_scen = a_tab.shape[0]
    block_len = n_steps // n_blocks

    entries: list[MPEntry] = []
    for b in range(n_blocks):
        k0 = b * block_len
        t0 = float(grid.times[k0])
        x = ens.states[:, :, k0]
        a0 = a_tab[:, k0][:, None]
        p0 = p_raw[:, :, k0]
        q0 = q_raw[:, :, k0]
        r0 = r_raw[:, :, k0]

        h_vals, b_vals, g_vals, f_vals = [], [], [], []
        for a in actions:
            a = float(a)
            h_vals.append(hamiltonian(model, marks, t0, x, a, p0, q0, r0))
            b_vals.append(np.asarray(model.b(t0, x, a), dtype=float) + np.zeros_like(x))
            g_vals.append(np.asarray(model.gamma(t0, x, a), dtype=float) + np.zeros_like(x))
            f_vals.append(
                [
                    np.asarray(model.f(t0, x, float(marks.marks[i]), a), dtype=float)
                    + np.zeros_like(x)
                    for i in range(marks.n_marks)
                ]
            )

        base_h = np.zeros_like(x)
        base_b = np.zeros_like(x)
        base_g = np.zeros_like(x)
        base_f = [np.zeros_like(x) for _ in range(marks.n_marks)]
        for ai in range(actions.size):
            wa = float(w[k0, ai])
            if wa == 0.0:
                continue
            base_h = base_h + wa * h_vals[ai]
            base_b = base_b + wa * b_vals[ai]
            base_g = base_g + wa * g_vals[ai]
            for i in range(marks.n_marks):
                base_f[i] = base_f[i] + wa * f_vals[ai][i]

        for ai in range(actions.size):
            d_h = h_vals[ai] - base_h
            dgamma = g_vals[ai] - base_g
            impulse = (b_vals[ai] - base_b) + dgamma * a0
            for i in range(marks.n_marks):
                impulse = impulse - (f_vals[ai][i] - base_f[i]) * float(nus[i])
            f_part = f_term(
                ens, k0, impulse, dgamma, p0, q_raw, core.sx, core.phi, core.psi, core.S_t
            )
            vals = d_h + f_part
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

    # u_n and every candidate in one batch; the batch is gone before the adjoint
    drivers = sample_drivers(family, grid, marks, n_paths, seed)
    reports = evaluate_costs(model, [u_n] + cands, family, grid, marks, drivers, x0)
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
        embed_strict(u_n),
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
        drivers=drivers,
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
    """
    n_list = [int(n) for n in n_list]
    if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n_list must be strictly increasing and nonempty, got {n_list}")
    dt = grid.dt
    nus = marks.intensities

    # one set of drivers for every rung; the rungs are simulated one at a
    # time, right before their adjoint solve, because the adjoint sets the
    # peak memory and a batch would hold every rung's states at once
    drivers = sample_drivers(family, grid, marks, n_paths, seed)
    ens_mu = simulate_with(model, mu, family, grid, marks, drivers, x0)
    triple_mu, _ = solve_adjoint(ens_mu, basis_degree)

    rows: list[StabilityRow] = []
    for n in n_list:
        u_n = chattering(mu, n)
        ens_n = simulate_with(model, u_n, family, grid, marks, drivers, x0)
        triple_n, _ = solve_adjoint(ens_n, basis_degree)

        p_dev = np.abs(triple_n.p - triple_mu.p).max(axis=2) ** 2
        q_dev = ((triple_n.q - triple_mu.q) ** 2).sum(axis=2) * dt
        r_dev = (((triple_n.r - triple_mu.r) ** 2) * nus[None, None, None, :]).sum(
            axis=(2, 3)
        ) * dt

        um_p = upper_expectation(list(p_dev))
        um_q = upper_expectation(list(q_dev))
        um_r = upper_expectation(list(r_dev))
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
    pi_lo = float(family.bounds.sigma_low[0, 0])
    pi_hi = float(family.bounds.sigma_high[0, 0])
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
    sxv = np.asarray(model.sigma_x(t, x), dtype=float) + np.zeros_like(x)

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
