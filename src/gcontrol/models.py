"""Coefficient bundles and the built-in model registry.

A model packs the scalar-state dynamics coefficients b, sigma, gamma and
f, the costs h and g, their first derivatives in the state, and the
probe boxes its checks sample. The state, the noise and the
action are all one-dimensional, and controls range over a finite action
grid, so no derivative in the action is needed. Every evaluator is
vectorized over the state argument. The linear-quadratic jump model
carries one closed-form reference: the exact moment recursion of its
Euler chain and the cost it gives (:func:`lq_moments_discrete`,
:func:`lq_cost_discrete`), which the tests and perfbench's output check
compare a run against.

A derivative that does not depend on the state may return a float
instead of an array shaped like ``x``; the registry models do, for every
derivative that is constant in ``x``. Consumers broadcast a derivative
to the state's shape only where they index or store it, so a float
costs one scalar operation where a full array would cost one per path.
:func:`_avg` mixes a coefficient under a step's control weights.

Dynamics convention, per scenario with volatility rate a_t:

    dx = b(t, x, u) dt + sigma(t, x) dB + gamma(t, x, u) a_t dt
         + sum_i f(t, x, theta_i, u) (dN_i - nu_i dt)

so gamma rides the quadratic-variation rate and the jump term is
compensated each step.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from . import rng
from .jumps import MarkSpace
from .scenarios import TimeGrid

Coeff = Callable[..., Any]


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Scalar-state coefficient bundle with first state derivatives and probe boxes.

    ``bounds`` declares the probe boxes (state_box, action_box,
    theta_box) that the derivative check, the table's hypothesis label
    and the tests' audits sample; a box left out is the default one.
    """

    name: str
    b: Coeff
    sigma: Coeff
    gamma: Coeff
    f: Coeff
    h: Coeff
    g: Coeff
    b_x: Coeff
    sigma_x: Coeff
    gamma_x: Coeff
    f_x: Coeff
    h_x: Coeff
    g_x: Coeff
    bounds: Mapping[str, Any]
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "bounds", {**_PROBE_BOXES, **self.bounds})


_VALIDATED: "weakref.WeakSet[ModelSpec]" = weakref.WeakSet()


# a central difference's rounding bound is this many machine epsilons of
# |f(x + e)| + |f(x - e)| over e: each evaluation carries a few roundings
_FD_ROUNDING_ULPS = 4.0


def check_derivatives(model: ModelSpec, seed: int = 0, n_probes: int = 32) -> list[str]:
    """Compare declared derivatives with central finite differences.

    Probes are drawn from the model's declared boxes. A mismatch beyond
    max(1e-4, 1e-2 |value|), plus the difference's own rounding bound
    ``4 eps_mach (|f(x + e)| + |f(x - e)|) / e``, is reported; the
    rounding bound keeps an exact derivative of a coefficient with large
    values from being refused for the cancellation in its difference. A
    coefficient, derivative or difference that is not finite at a probe
    is reported as such: the difference of two infinities is NaN, which
    passes every tolerance test. The returned list is empty when the model
    is consistent.
    """
    gen = rng.substream(seed, rng.PROBES)
    lo_x, hi_x = model.bounds["state_box"]
    lo_a, hi_a = model.bounds["action_box"]
    lo_th, hi_th = model.bounds["theta_box"]
    t_pts = gen.uniform(0.0, 1.0, n_probes)
    x_pts = gen.uniform(lo_x, hi_x, n_probes)
    a_pts = gen.uniform(lo_a, hi_a, n_probes)
    th_pts = gen.uniform(lo_th, hi_th, n_probes)
    ulp = np.finfo(float).eps

    def failure(name, fun, dfun, at, idx_eps):
        """``(what, detail)`` when ``dfun``, the derivative ``name`` of ``fun`` in
        argument ``idx_eps``, fails at ``at``; None within tolerance."""
        eps = 1e-6 * max(1.0, abs(at[idx_eps]))
        up = list(at)
        dn = list(at)
        up[idx_eps] += eps
        dn[idx_eps] -= eps
        f_up, f_dn = float(fun(*up)), float(fun(*dn))
        exact = float(dfun(*at))
        approx = (f_up - f_dn) / (2 * eps)
        coefficient = name.removesuffix("_x")
        for what, value in ((coefficient, f_up), (coefficient, f_dn), (name, exact),
                            (f"the central difference of {coefficient}", approx)):
            if not math.isfinite(value):
                return f"{what} is not finite", ""
        rounding = _FD_ROUNDING_ULPS * ulp * (abs(f_up) + abs(f_dn)) / eps
        if abs(approx - exact) > max(1e-4, 1e-2 * abs(exact)) + rounding:
            return f"{name} mismatch", f": fd {approx:.6g} vs {exact:.6g}"
        return None

    checks = [
        ("b_x", model.b, model.b_x),
        ("sigma_x", lambda t, x, a: model.sigma(t, x), lambda t, x, a: model.sigma_x(t, x)),
        ("gamma_x", model.gamma, model.gamma_x),
        ("h_x", model.h, model.h_x),
    ]
    violations = []
    for j in range(n_probes):
        t, x, a, th = float(t_pts[j]), float(x_pts[j]), float(a_pts[j]), float(th_pts[j])
        for name, fun, dfun in checks:
            found = failure(name, fun, dfun, (t, x, a), 1)
            if found is not None:
                violations.append(f"{found[0]} at (t={t:.3g}, x={x:.3g}, a={a:.3g}){found[1]}")
        found = failure("f_x", model.f, model.f_x, (t, x, th, a), 1)
        if found is not None:
            violations.append(f"{found[0]} at (t={t:.3g}, x={x:.3g}, theta={th:.3g}, a={a:.3g}){found[1]}")
        found = failure("g_x", model.g, model.g_x, (x,), 0)
        if found is not None:
            violations.append(f"{found[0]} at x={x:.3g}{found[1]}")
    return violations


def ensure_validated(model: ModelSpec) -> None:
    """Run the derivative check once per model instance; raise on mismatch."""
    if model in _VALIDATED:
        return
    violations = check_derivatives(model)
    if violations:
        raise ValueError(f"{len(violations)} derivative checks fail, first: {violations[0]}")
    _VALIDATED.add(model)


def _coeff(v):
    """A coefficient value as a float or a float array, ``-0.0`` read as ``0.0``.

    A value that does not depend on the state stays a scalar. Adding
    ``0.0`` gives the bits of adding a zero array of the state's shape,
    which turns a negative zero into a positive one, without forming it.
    """
    return np.asarray(v, dtype=float) + 0.0


def _mix(w_k, value):
    """``sum_a w_k[a] value(a)`` over the actions of nonzero weight, in action order.

    A weight of one leaves its value as it is (``1.0 * v == v``), so a
    strict control's mixture is its action's value.
    """
    out = None
    for a_i, wa in enumerate(map(float, w_k)):
        if wa == 0.0:
            continue
        v = value(a_i)
        term = v if wa == 1.0 else wa * v
        out = term if out is None else out + term
    return 0.0 if out is None else out


def _avg(fun, t, x, w_k, actions, theta=None):
    """Weight-averaged coefficient, a scalar when ``fun`` is constant in ``x``."""
    lead = () if theta is None else (theta,)
    return _mix(w_k, lambda a_i: _coeff(fun(t, x, *lead, float(actions[a_i]))))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


# the probe box of each kind that a model does not declare
_PROBE_BOXES = {"state_box": (-3.0, 3.0), "action_box": (-2.0, 2.0), "theta_box": (-1.0, 1.0)}


def _boxes(params: Mapping[str, Any]) -> dict:
    return {k: tuple(params[k]) for k in _PROBE_BOXES if k in params}


def make_zero(params: Mapping[str, Any] | None = None) -> ModelSpec:
    """No dynamics, terminal cost g(x) = x."""
    params = dict(params or {})
    zero3 = lambda t, x, a: 0.0 * x
    zero4 = lambda t, x, th, a: 0.0 * x
    return ModelSpec(
        name="zero",
        b=zero3,
        sigma=lambda t, x: 0.0 * x,
        gamma=zero3,
        f=zero4,
        h=zero3,
        g=lambda x: 1.0 * x,
        b_x=lambda t, x, a: 0.0,
        sigma_x=lambda t, x: 0.0,
        gamma_x=lambda t, x, a: 0.0,
        f_x=lambda t, x, th, a: 0.0,
        h_x=lambda t, x, a: 0.0,
        g_x=lambda x: 1.0,
        bounds=_boxes(params),
        params=params,
    )


_CONSTANT_DRIFT_DEFAULTS = {"mu": 1.0, "sigma0": 0.0}


def make_constant_drift(params: Mapping[str, Any] | None = None) -> ModelSpec:
    """dx = mu dt + sigma0 dB, terminal cost g(x) = x."""
    params = {**_CONSTANT_DRIFT_DEFAULTS, **(params or {})}
    mu = float(params["mu"])
    sigma0 = float(params["sigma0"])
    zero3 = lambda t, x, a: 0.0 * x
    zero4 = lambda t, x, th, a: 0.0 * x
    return ModelSpec(
        name="constant_drift",
        b=lambda t, x, a: mu + 0.0 * x,
        sigma=lambda t, x: sigma0 + 0.0 * x,
        gamma=zero3,
        f=zero4,
        h=zero3,
        g=lambda x: 1.0 * x,
        b_x=lambda t, x, a: 0.0,
        sigma_x=lambda t, x: 0.0,
        gamma_x=lambda t, x, a: 0.0,
        f_x=lambda t, x, th, a: 0.0,
        h_x=lambda t, x, a: 0.0,
        g_x=lambda x: 1.0,
        bounds=_boxes(params),
        params=params,
    )


_LQ_DEFAULTS = {
    "b1": 0.2,
    "b2": 0.5,
    "s0": 0.3,
    "s1": 0.1,
    "c1": 0.1,
    "c2": 0.3,
    "f1": 0.1,
    "f2": 0.0,
    "h1": 0.5,
    "h2": 0.5,
    "gq": 0.5,
}


def make_linear_jump_lq(params: Mapping[str, Any] | None = None) -> ModelSpec:
    """Linear dynamics with multiplicative jumps and quadratic costs.

    b = b1 x + b2 u, sigma = s0 + s1 x, gamma = c1 x + c2 u,
    f = (f1 x + f2 u) theta, h = h1 x^2 + h2 u^2, g = gq x^2.
    The jump size defaults to action-free (f2 = 0): a controlled jump
    size makes spike difference quotients diverge in mean square, so it
    must be asked for explicitly.
    """
    p = dict(_LQ_DEFAULTS)
    p.update(params or {})
    b1, b2 = float(p["b1"]), float(p["b2"])
    s0, s1 = float(p["s0"]), float(p["s1"])
    c1, c2 = float(p["c1"]), float(p["c2"])
    f1, f2 = float(p["f1"]), float(p["f2"])
    h1, h2 = float(p["h1"]), float(p["h2"])
    gq = float(p["gq"])
    return ModelSpec(
        name="linear_jump_lq",
        b=lambda t, x, a: b1 * x + b2 * a,
        sigma=lambda t, x: s0 + s1 * x,
        gamma=lambda t, x, a: c1 * x + c2 * a,
        f=lambda t, x, th, a: (f1 * x + f2 * a) * th,
        h=lambda t, x, a: h1 * x**2 + h2 * a**2,
        g=lambda x: gq * x**2,
        b_x=lambda t, x, a: b1,
        sigma_x=lambda t, x: s1,
        gamma_x=lambda t, x, a: c1,
        f_x=lambda t, x, th, a: f1 * th,
        h_x=lambda t, x, a: 2.0 * h1 * x,
        g_x=lambda x: 2.0 * gq * x,
        bounds=_boxes(p),
        params=p,
    )


_BILINEAR_DEFAULTS = {"th0": -0.2, "th1": 0.6, "s1": 0.0, "gl": 1.0}


def make_bilinear(params: Mapping[str, Any] | None = None) -> ModelSpec:
    """dx = (th0 + th1 u) x dt + s1 x dB, terminal cost gl x."""
    p = dict(_BILINEAR_DEFAULTS)
    p.update(params or {})
    th0, th1 = float(p["th0"]), float(p["th1"])
    s1, gl = float(p["s1"]), float(p["gl"])
    zero4 = lambda t, x, th, a: 0.0 * x
    return ModelSpec(
        name="bilinear",
        b=lambda t, x, a: (th0 + th1 * a) * x,
        sigma=lambda t, x: s1 * x,
        gamma=lambda t, x, a: 0.0 * x,
        f=zero4,
        h=lambda t, x, a: 0.0 * x,
        g=lambda x: gl * x,
        b_x=lambda t, x, a: th0 + th1 * a,
        sigma_x=lambda t, x: s1,
        gamma_x=lambda t, x, a: 0.0,
        f_x=lambda t, x, th, a: 0.0,
        h_x=lambda t, x, a: 0.0,
        g_x=lambda x: gl,
        bounds=_boxes(p),
        params=p,
    )


MODEL_BUILDERS: dict[str, Callable[[Mapping[str, Any] | None], ModelSpec]] = {
    "zero": make_zero,
    "constant_drift": make_constant_drift,
    "linear_jump_lq": make_linear_jump_lq,
    "bilinear": make_bilinear,
}

# Every parameter a config may set, with its default. The builders also
# accept probe boxes (state_box, action_box, theta_box), which are
# library-only because a config parameter is a single number.
MODEL_DEFAULTS: dict[str, Mapping[str, float]] = {
    "zero": {},
    "constant_drift": _CONSTANT_DRIFT_DEFAULTS,
    "linear_jump_lq": _LQ_DEFAULTS,
    "bilinear": _BILINEAR_DEFAULTS,
}

MODEL_PARAM_DOCS: dict[str, str] = {
    "zero": "no parameters; x stays at x0, cost is x0",
    "constant_drift": "mu, sigma0; dx = mu dt + sigma0 dB, cost E[x_T]",
    "linear_jump_lq": ", ".join(sorted(_LQ_DEFAULTS)) + "; linear dynamics, quadratic costs",
    "bilinear": ", ".join(sorted(_BILINEAR_DEFAULTS)) + "; dx = (th0 + th1 u) x dt + s1 x dB, cost gl E[x_T]",
}


def build_model(name: str, params: Mapping[str, Any] | None = None) -> ModelSpec:
    if name not in MODEL_BUILDERS:
        raise KeyError(f"unknown model {name!r}; known: {sorted(MODEL_BUILDERS)}")
    return MODEL_BUILDERS[name](params)


# ---------------------------------------------------------------------------
# closed-form reference quantities
# ---------------------------------------------------------------------------


def _mark_moments(marks: MarkSpace) -> tuple[float, float]:
    m1 = float((marks.intensities * marks.marks).sum())
    m2 = float((marks.intensities * marks.marks**2).sum())
    return m1, m2


def _lq_rates(p: Mapping[str, float], a: float):
    lam = p["b1"] + p["c1"] * a
    beta = p["b2"] + p["c2"] * a
    return lam, beta


def lq_moments_discrete(
    params: Mapping[str, float],
    grid: TimeGrid,
    x0: float,
    u_mean: np.ndarray,
    u_sq: np.ndarray,
    a_path: np.ndarray,
    marks: MarkSpace,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Exact moments of the Euler chain for the linear-quadratic jump model.

    Propagates E[x_k] and E[x_k^2] of the simulated scheme itself (left
    state in every coefficient, per-step compensation), so a Monte Carlo
    run should match within sampling error at ANY step size. Returns
    (m1 path, m2 path, cost).
    """
    p = {k: float(v) for k, v in params.items() if isinstance(v, (int, float))}
    _, nu2 = _mark_moments(marks)
    f1, f2 = p["f1"], p["f2"]
    s0, s1 = p["s0"], p["s1"]
    h1, h2 = p["h1"], p["h2"]
    dt = grid.dt
    K = grid.n_steps
    m1 = np.empty(K + 1)
    m2 = np.empty(K + 1)
    m1[0] = x0
    m2[0] = x0 * x0
    cost = 0.0
    for k in range(K):
        a = float(a_path[k])
        u1 = float(u_mean[k])
        u2 = float(u_sq[k])
        lam, beta = _lq_rates(p, a)
        cost += (h1 * m2[k] + h2 * u2) * dt
        drift_sq = lam**2 * m2[k] + 2 * lam * beta * u1 * m1[k] + beta**2 * u1**2
        diff_sq = s0**2 + 2 * s0 * s1 * m1[k] + s1**2 * m2[k]
        jump_sq = f1**2 * m2[k] + 2 * f1 * f2 * u1 * m1[k] + f2**2 * u2
        m1[k + 1] = m1[k] + (lam * m1[k] + beta * u1) * dt
        m2[k + 1] = m2[k] + 2 * (lam * m2[k] + beta * u1 * m1[k]) * dt + dt**2 * drift_sq + a * dt * diff_sq + nu2 * dt * jump_sq
    cost += p["gq"] * m2[K]
    return m1, m2, float(cost)


def lq_cost_discrete(params, grid, x0, u_mean, u_sq, a_path, marks) -> float:
    """Cost part of :func:`lq_moments_discrete`."""
    return lq_moments_discrete(params, grid, x0, u_mean, u_sq, a_path, marks)[2]

