import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcontrol import controls as ct
from gcontrol.scenarios import TimeGrid


ACTIONS = ct.ActionGrid(np.array([-1.0, 0.0, 1.0]))


def test_action_grid():
    assert ACTIONS.n_actions == 3
    with pytest.raises(ValueError):
        ct.ActionGrid(np.array([1.0, 1.0]))


def test_strict_control_values():
    u = ct.StrictControl(ACTIONS, np.array([0, 2, 1, 1]))
    assert np.array_equal(u.values, np.array([-1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        ct.StrictControl(ACTIONS, np.array([0, 3]))


def test_relaxed_weight_validation():
    good = np.array([[0.5, 0.25, 0.25], [0.0, 1.0, 0.0]])
    ct.RelaxedControl(ACTIONS, good)
    with pytest.raises(ValueError):
        ct.RelaxedControl(ACTIONS, np.array([[0.5, 0.25, 0.3]]))
    with pytest.raises(ValueError):
        ct.RelaxedControl(ACTIONS, np.array([[1.2, -0.2, 0.0]]))


def test_embed_strict_one_hot():
    u = ct.StrictControl(ACTIONS, np.array([2, 0, 1]))
    mu = ct.embed_strict(u)
    expect = np.zeros((3, 3))
    expect[0, 2] = expect[1, 0] = expect[2, 1] = 1.0
    assert np.array_equal(mu.weights, expect)
    assert np.array_equal(u.weights, expect)
    # the strict control's view is read-only, like a relaxed control's weights
    assert not u.weights.flags.writeable and not mu.weights.flags.writeable


def test_chattering_dirac_occupation_preserved():
    u = ct.StrictControl(ACTIONS, np.array([0, 1, 2, 1, 0, 0, 2, 2]))
    mu = ct.embed_strict(u)
    # one-step blocks reproduce the control exactly
    assert np.array_equal(ct.chattering(mu, 8).indices, u.indices)
    # coarser blocks may reorder within a block but keep every occupation count
    for n in (1, 2, 4):
        v = ct.chattering(mu, n)
        block = 8 // n
        for b in range(n):
            sl = slice(b * block, (b + 1) * block)
            assert np.array_equal(np.bincount(v.indices[sl], minlength=3),
                                  np.bincount(u.indices[sl], minlength=3))


def test_chattering_constant_control_fixed_point():
    u = ct.constant_strict(ACTIONS, 8, 2)
    mu = ct.embed_strict(u)
    for n in (1, 2, 4, 8):
        assert np.array_equal(ct.chattering(mu, n).indices, u.indices)


def test_chattering_half_half_exact_split():
    K = 64
    grid2 = ct.ActionGrid(np.array([0.0, 1.0]))
    mu = ct.RelaxedControl(grid2, np.full((K, 2), 0.5))
    v = ct.chattering(mu, 4)
    assert v.indices.mean() == 0.5
    block = K // 4
    for b in range(4):
        seg = v.indices[b * block : (b + 1) * block]
        # equal quota, one consecutive run per action
        assert seg.sum() == block // 2
        assert np.all(np.diff(seg) >= 0)


def test_chattering_requires_divisor():
    mu = ct.uniform_relaxed(ACTIONS, 10)
    with pytest.raises(ValueError):
        ct.chattering(mu, 3)


def test_spike_construction():
    grid = TimeGrid(T=1.0, n_steps=8)
    base = ct.constant_strict(ACTIONS, 8, 1)
    k0, span = ct.spike_window(0.25, 0.25, grid)
    assert (k0, span) == (2, 2)
    u = ct.spike(base, 2, k0, span)
    assert np.array_equal(u.indices, np.array([1, 1, 2, 2, 1, 1, 1, 1]))
    assert ct.ekeland_distance(u, base, grid) == pytest.approx(0.25)


def test_spike_degenerate_width_is_identity():
    base = ct.constant_strict(ACTIONS, 8, 1)
    u = ct.spike(base, 1, 4, 1)
    assert np.array_equal(u.indices, base.indices)


def test_spike_refuses_a_relaxed_base():
    strict = ct.constant_strict(ACTIONS, 8, 1)
    for base, action_index, k0, span, message in [
        (ct.uniform_relaxed(ACTIONS, 8), 0, 2, 2, "spike variations act on strict controls"),
        (strict, 3, 2, 2, "index 3 outside the 3-action grid"),
        (strict, -1, 2, 2, "index -1 outside the 3-action grid"),
        # beyond int64: refused by the comparison, not by an int64 store
        (strict, 2**70, 2, 2, "index 1180591620717411303424 outside the 3-action grid"),
        # a window that leaves the steps would be cut short by slicing
        (strict, 2, 6, 3, "3 steps from step 6 leave the control's 8 steps"),
        (strict, 2, -1, 2, "2 steps from step -1 leave the control's 8 steps"),
        (strict, 2, 8, 1, "1 steps from step 8 leave the control's 8 steps"),
        (strict, 2, 2, 0, "0 steps from step 2 leave the control's 8 steps"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            ct.spike(base, action_index, k0, span)


def test_spike_rejects_fractional_width():
    grid = TimeGrid(T=1.0, n_steps=8)
    for t0, width, message in [
        (0.25, 0.3, "0.3 is not a multiple of dt = 0.125"),
        (0.875, 0.25, r"window \[t0, t0 \+ 0.25\) ends after T"),
        (-0.125, 0.25, "-0.125 leaves no step before T = 1.0"),
        (1.0, 0.125, "1.0 leaves no step before T = 1.0"),
        (0.25, 1e-12, "1e-12 is shorter than dt = 0.125"),
        (0.25, 1e308, r"1e\+308 is inf steps of dt = 0.125, more than any grid has"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            ct.spike_window(t0, width, grid)


def test_ekeland_examples():
    grid = TimeGrid(T=1.0, n_steps=8)
    u = ct.constant_strict(ACTIONS, 8, 1)
    assert ct.ekeland_distance(u, u, grid) == 0.0
    w = ct.StrictControl(ACTIONS, np.array([1, 1, 1, 2, 1, 1, 1, 1]))
    assert ct.ekeland_distance(u, w, grid) == pytest.approx(grid.dt)


# ---------------------------------------------------------------------------
# property-based checks
# ---------------------------------------------------------------------------

_idx = st.lists(st.integers(min_value=0, max_value=2), min_size=12, max_size=12)


@settings(max_examples=60, deadline=None)
@given(_idx, _idx, _idx)
def test_ekeland_is_a_metric(ia, ib, ic):
    grid = TimeGrid(T=1.0, n_steps=12)
    u = ct.StrictControl(ACTIONS, np.array(ia))
    v = ct.StrictControl(ACTIONS, np.array(ib))
    w = ct.StrictControl(ACTIONS, np.array(ic))
    duv = ct.ekeland_distance(u, v, grid)
    assert duv == ct.ekeland_distance(v, u, grid)
    assert (duv == 0.0) == bool(np.array_equal(u.indices, v.indices))
    assert duv <= ct.ekeland_distance(u, w, grid) + ct.ekeland_distance(w, v, grid) + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([1, 2, 4, 8]),
)
def test_chattering_occupation_error_bounded(seed, n):
    # per block and action, realized occupation differs from the target
    # quota by less than one grid step
    K = 16
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.05, 1.0, size=(K, 3))
    weights = raw / raw.sum(axis=1, keepdims=True)
    mu = ct.RelaxedControl(ACTIONS, weights)
    v = ct.chattering(mu, n)
    block = K // n
    for b in range(n):
        sl = slice(b * block, (b + 1) * block)
        for a in range(3):
            target = weights[sl, a].sum()
            realized = np.sum(v.indices[sl] == a)
            assert abs(realized - target) < 1.0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_relaxed_convex_combinations_stay_valid(seed, lam):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.0, 1.0, size=(2, 6, 3)) + 1e-9
    w = raw / raw.sum(axis=2, keepdims=True)
    mixed = lam * w[0] + (1 - lam) * w[1]
    mu = ct.RelaxedControl(ACTIONS, mixed)
    assert np.allclose(mu.weights.sum(axis=1), 1.0)
