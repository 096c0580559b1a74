"""Model registry and closed-form cost references.

The reference values frozen below were produced by the matrix-exponential
moment solver in `tests/oracles.py` and cross-checked against plain Monte
Carlo at 10^4 paths before being pinned.
"""

import ast
import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import bilinear_cost_continuous, bilinear_cost_discrete, lq_cost_continuous

from gcontrol import models as md
from gcontrol.jumps import MarkSpace
from gcontrol.scenarios import TimeGrid


LQ_PARAMS = {
    "b1": 0.2, "b2": 0.5, "s0": 0.3, "s1": 0.1,
    "c1": 0.1, "c2": 0.3, "f1": 0.1, "f2": 0.0,
    "h1": 0.5, "h2": 0.5, "gq": 0.5,
}
MARKS = MarkSpace(marks=np.array([-0.4, 0.6]), intensities=np.array([0.7, 0.3]))


@pytest.mark.parametrize("module", ["scipy", "jsonschema"])
def test_import_leaves_scipy_unloaded(module):
    # numpy is the only runtime dependency: scipy serves only the tests'
    # continuous-time oracle in tests/oracles.py, and nothing needs jsonschema
    code = f"import sys, gcontrol; print({module!r} in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("module", ["scipy", "jsonschema"])
def test_no_source_file_imports(module):
    # the import above runs no function body, so it cannot see an import
    # made inside a function; the parsed source shows every one
    found = []
    for path in sorted(Path(md.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.partition(".")[0] == module for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_registry_contents():
    names = md.MODEL_BUILDERS.keys()
    assert {"zero", "constant_drift", "linear_jump_lq", "bilinear"} <= set(names)
    with pytest.raises(KeyError):
        md.build_model("nope", {})


def test_registry_models_pass_derivative_audit():
    for name in md.MODEL_BUILDERS:
        model = md.build_model(name, {})
        assert md.check_derivatives(model, seed=0) == []


def test_derivative_audit_catches_mismatch():
    base = md.make_linear_jump_lq(LQ_PARAMS)
    import dataclasses

    broken = dataclasses.replace(base, b_x=lambda t, x, u: np.full_like(x, 99.0))
    bad = md.check_derivatives(broken, seed=0)
    assert bad and any("b_x" in msg for msg in bad)
    with pytest.raises(ValueError):
        md.ensure_validated(broken)


def test_derivative_check_allows_for_the_rounding_of_large_coefficients():
    # gamma = c1 x + c2 a: at c2 = -1e9 the central difference of an exact
    # gamma_x loses about |c2 a| eps_mach / e to cancellation
    assert md.check_derivatives(md.make_linear_jump_lq({**LQ_PARAMS, "c2": -1e9})) == []
    # at moderate values the rounding bound is far below a 1% error
    base = md.make_linear_jump_lq(LQ_PARAMS)
    off = dataclasses.replace(base, gamma_x=lambda t, x, u: base.gamma_x(t, x, u) + 0.02)
    assert any("gamma_x" in msg for msg in md.check_derivatives(off))


def test_validation_cache_is_per_instance():
    m = md.make_zero({})
    md.ensure_validated(m)
    md.ensure_validated(m)  # second call hits the cache


def test_zero_model_shapes():
    m = md.build_model("zero", {})
    t = 0.3
    x = np.array([1.0, 2.0])
    u = np.array([0.5, 0.5])
    assert np.all(m.b(t, x, u) == 0.0)
    assert np.all(m.sigma(t, x) == 0.0)
    assert np.all(m.g(x) == x)


# ---------------------------------------------------------------------------
# frozen cost references
# ---------------------------------------------------------------------------


def test_lq_continuous_reference_value():
    grid = TimeGrid(T=1.0, n_steps=100)
    a_path = np.ones(100)
    u_mean = np.full(100, 0.5)
    u_sq = u_mean**2
    j = lq_cost_continuous(LQ_PARAMS, grid, 1.0, u_mean, u_sq, a_path, MARKS)
    assert j == pytest.approx(2.955585335478892, rel=1e-12)


def test_lq_discrete_reference_value():
    grid = TimeGrid(T=1.0, n_steps=100)
    a_path = np.ones(100)
    u_mean = np.full(100, 0.5)
    u_sq = u_mean**2
    j = md.lq_cost_discrete(LQ_PARAMS, grid, 1.0, u_mean, u_sq, a_path, MARKS)
    assert j == pytest.approx(2.94456146161974, rel=1e-12)


def test_lq_discrete_converges_to_continuous_first_order():
    diffs = []
    for n in (100, 400, 1600):
        grid = TimeGrid(T=1.0, n_steps=n)
        a_path = np.ones(n)
        u_mean = np.full(n, 0.5)
        jc = lq_cost_continuous(LQ_PARAMS, grid, 1.0, u_mean, u_mean**2, a_path, MARKS)
        jd = md.lq_cost_discrete(LQ_PARAMS, grid, 1.0, u_mean, u_mean**2, a_path, MARKS)
        diffs.append(abs(jc - jd))
    assert diffs[0] == pytest.approx(0.011023873859151934, rel=1e-6)
    # each 4x grid refinement shrinks the gap by roughly 4x
    assert 3.0 <= diffs[0] / diffs[1] <= 5.0
    assert 3.0 <= diffs[1] / diffs[2] <= 5.0


def test_lq_relaxed_reference_value():
    params = {
        "b1": 0.3, "b2": 0.8, "s0": 0.4, "s1": 0.0,
        "c1": 0.0, "c2": 0.0, "f1": 0.0, "f2": 0.0,
        "h1": 0.4, "h2": 0.0, "gq": 0.5,
    }
    grid = TimeGrid(T=1.0, n_steps=256)
    a_path = np.ones(256)
    # mixing control +/-1 with equal weights: mean 0, second moment 1
    u_mean = np.zeros(256)
    u_sq = np.ones(256)
    j = lq_cost_continuous(params, grid, 0.0, u_mean, u_sq, a_path, MARKS)
    assert j == pytest.approx(0.14910362678815625, rel=1e-12)


def test_lq_moments_first_moment_matches_scalar_ode():
    grid = TimeGrid(T=1.0, n_steps=200)
    a_path = np.full(200, 2.0)
    u_mean = np.full(200, 0.3)
    m1, m2, _ = md.lq_moments_discrete(LQ_PARAMS, grid, 1.5, u_mean, u_mean**2, a_path, MARKS)
    lam = LQ_PARAMS["b1"] + LQ_PARAMS["c1"] * 2.0
    beta = LQ_PARAMS["b2"] + LQ_PARAMS["c2"] * 2.0
    expect = 1.5
    for _ in range(200):
        expect = expect + (lam * expect + beta * 0.3) * grid.dt
    assert m1[-1] == pytest.approx(expect, rel=1e-12)
    assert m2[-1] >= m1[-1] ** 2 - 1e-12


def test_bilinear_reference_values():
    params = {"th0": -0.2, "th1": 0.6, "s1": 0.0, "gl": 1.0}
    grid = TimeGrid(T=1.0, n_steps=400)
    u = np.full(400, 0.2)
    jc = bilinear_cost_continuous(params, grid, 1.0, u)
    assert jc == pytest.approx(0.9231163463866358, rel=1e-12)
    # continuous reference is just the exponential of the integrated rate
    assert jc == pytest.approx(np.exp(-0.2 + 0.6 * 0.2), rel=1e-12)
    jd = bilinear_cost_discrete(params, grid, 1.0, u)
    assert jd == pytest.approx((1.0 + (-0.2 + 0.12) / 400) ** 400, rel=1e-12)
    assert abs(jc - jd) < 1e-4


def test_param_docs_cover_builders():
    for name in md.MODEL_BUILDERS:
        assert name in md.MODEL_PARAM_DOCS
