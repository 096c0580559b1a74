import dataclasses
import hashlib

import numpy as np
import pytest
from dense_reference import dense_counts
from hypothesis import given, settings
from hypothesis import strategies as st

from gcontrol import jumps as jp
from gcontrol.controls import ActionGrid, RelaxedControl, StrictControl, embed_strict
from gcontrol.scenarios import TimeGrid, VolatilityBounds, build_scenario_family


MARKS = jp.MarkSpace(marks=np.array([-0.4, 0.6]), intensities=np.array([0.7, 0.3]))


def _drivers(marks, grid, n_paths, seed):
    fam = build_scenario_family(VolatilityBounds(1.0, 1.0), grid, "corners", blocks=1)
    return jp.sample_drivers(fam, grid, marks, n_paths, seed)


def _per_path(d, mask=None):
    """Event count of every path, optionally of the events in ``mask`` only."""
    path = d.path if mask is None else d.path[mask]
    return np.bincount(path, minlength=d.n_paths).astype(float)


def test_mark_space_validation():
    assert MARKS.total_intensity == pytest.approx(1.0)
    with pytest.raises(ValueError):
        jp.MarkSpace(marks=np.array([1.0, 1.0]), intensities=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        jp.MarkSpace(marks=np.array([1.0]), intensities=np.array([-0.1]))
    with pytest.raises(ValueError):
        jp.MarkSpace(marks=np.array([1.0, 2.0]), intensities=np.array([0.5]))


def test_zero_intensity_gives_no_events():
    quiet = jp.MarkSpace(marks=np.array([1.0]), intensities=np.array([0.0]))
    grid = TimeGrid(T=1.0, n_steps=16)
    d = _drivers(quiet, grid, 64, seed=9)
    assert d.n_events == 0 and d.path.size == 0 and d.tag_u.size == 0
    steps = dense_counts(d)
    assert steps.shape == (16, 1, 64) and not steps.any()
    paths, counts = d.event_counts(0)
    assert paths.size == 0 and counts.shape == (0, 1, 1)


def test_poisson_rate():
    grid = TimeGrid(T=1.0, n_steps=16)
    P = 10_000
    d = _drivers(MARKS, grid, P, seed=21)
    counts = _per_path(d)
    se = counts.std(ddof=1) / np.sqrt(P)
    assert abs(counts.mean() - 1.0) <= 3 * se
    # mark frequencies follow the normalized intensities
    frac = (d.mark_idx == 0).mean()
    se_frac = np.sqrt(0.7 * 0.3 / d.n_events)
    assert abs(frac - 0.7) <= 3 * se_frac


def test_poisson_determinism_and_time_range():
    grid = TimeGrid(T=2.0, n_steps=10)
    a = _drivers(MARKS, grid, 200, seed=4)
    b = _drivers(MARKS, grid, 200, seed=4)
    for name in ("path", "times", "mark_idx", "step", "tag_u", "by_step", "offsets"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.times.min() > 0.0 and a.times.max() <= 2.0
    # sorted by (path, time), strictly increasing within a path
    same_path = np.diff(a.path) == 0
    assert np.all(np.diff(a.path) >= 0)
    assert np.all(np.diff(a.times)[same_path] > 0)


def test_poisson_independent_of_grid_resolution():
    # event times live in continuous time; refining the grid must not move them
    coarse = TimeGrid(T=1.0, n_steps=8)
    fine = TimeGrid(T=1.0, n_steps=512)
    a = _drivers(MARKS, coarse, 50, seed=33)
    b = _drivers(MARKS, fine, 50, seed=33)
    assert np.array_equal(a.path, b.path)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.mark_idx, b.mark_idx)


def test_compensated_counts_are_centered():
    # N_T(theta_i) - nu_i T has mean zero for every mark, and so does the total
    grid = TimeGrid(T=1.0, n_steps=8)
    P = 20_000
    d = _drivers(MARKS, grid, P, seed=17)
    per_mark = dense_counts(d).sum(axis=0)
    for i, nu in enumerate(MARKS.intensities):
        centered = per_mark[i] - nu * grid.T
        assert abs(centered.mean()) <= 3 * centered.std(ddof=1) / np.sqrt(P)
    total = per_mark.sum(axis=0) - MARKS.total_intensity * grid.T
    assert abs(total.mean()) <= 3 * total.std(ddof=1) / np.sqrt(P)


def test_flat_sampler_reproduces_frozen_events():
    # digests of the events, tags and counts that the per-path sampler drew
    # for this seed before the flat bundle replaced it; the counts were
    # path-major int32 then, so the dense counts are hashed as such a copy
    grid = TimeGrid(T=1.0, n_steps=8)
    actions = ActionGrid(np.array([0.0, 1.0, 2.0]))
    w = np.tile(np.array([0.2, 0.5, 0.3]), (8, 1))
    w[3] = [1.0, 0.0, 0.0]
    w[5] = [0.0, 0.25, 0.75]
    mu = RelaxedControl(actions, w)
    d = _drivers(MARKS, grid, 40, seed=12)

    def digest(a):
        return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

    assert _per_path(d).astype(int).tolist() == [
        0, 1, 1, 1, 1, 0, 1, 1, 0, 2, 1, 1, 1, 2, 4, 2, 0, 2, 1, 1,
        1, 1, 0, 1, 0, 4, 2, 1, 2, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0, 1,
    ]
    assert d.times[:3].tolist() == [0.8485475188313507, 0.97797191193911, 0.9709532354521084]
    assert digest(d.times) == "9c59f73edd48d03d9bd1aec2538ef912296ad613c9e376b608450b809bb3dd4c"
    assert digest(d.mark_idx) == "fcb249f2159f927554adaf6165782dcddd3adbc868e4eaa6748bf1ae0b55dad1"
    assert digest(d.tags(mu)) == "34a38d619af407ae353b75315a9c09128c93b1b5f21c19a6c97674d552851cbc"
    path_major = np.moveaxis(dense_counts(d), -1, 0).astype(np.int32)
    assert digest(path_major) == "e943de2053b91d6f0607c58bb9de80d16f5d610e4da19791e3a501b6c7429c44"
    tagged = dense_counts(d, d.tags(mu), 3)
    assert digest(np.moveaxis(tagged, -1, 0).astype(np.int32)) == (
        "7e9188803c2025882adf7f2b1075378183fb16cc3b94770bc44882ec5ea47dab"
    )


def test_relaxed_tags_dirac_reduction():
    grid = TimeGrid(T=1.0, n_steps=8)
    actions = ActionGrid(np.array([-1.0, 0.5, 2.0]))
    mu = embed_strict(StrictControl(actions, np.full(8, 2)))
    d = _drivers(MARKS, grid, 100, seed=5)
    assert d.n_events > 0
    assert np.all(d.tags(mu) == 2)


def test_relaxed_tags_track_time_varying_strict_control():
    grid = TimeGrid(T=1.0, n_steps=8)
    actions = ActionGrid(np.array([0.0, 1.0]))
    idx = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    mu = embed_strict(StrictControl(actions, idx))
    d = _drivers(MARKS, grid, 200, seed=6)
    dt = grid.dt
    for t, tag in zip(d.times, d.tags(mu)):
        k = min(int(t / dt), 7)
        assert tag == idx[k]


def test_a_zero_weight_action_is_never_tagged():
    # step 0's weights sum to 1 - 1e-13, so a uniform can lie above their
    # total: it goes to the last action of nonzero weight, not to the
    # zero-weight action after it
    grid = TimeGrid(T=1.0, n_steps=2)
    actions = ActionGrid(np.array([0.0, 1.0, 2.0]))
    mu = RelaxedControl(actions, np.array([[0.5, 0.5 - 1e-13, 0.0], [0.0, 0.0, 1.0]]))
    d = _drivers(MARKS, grid, 50, seed=3)
    assert set(d.step.tolist()) == {0, 1}
    top = dataclasses.replace(d, tag_u=np.full(d.n_events, np.nextafter(1.0, 0.0)))
    assert np.array_equal(top.tags(mu), np.where(d.step == 0, 1, 2))


def test_relaxed_tag_frequencies():
    grid = TimeGrid(T=1.0, n_steps=4)
    actions = ActionGrid(np.array([0.0, 1.0]))
    mu = RelaxedControl(actions, np.full((4, 2), 0.5))
    tags = _drivers(MARKS, grid, 20_000, seed=7).tags(mu)
    assert tags.size > 10_000
    frac = (tags == 1).mean()
    se = np.sqrt(0.25 / tags.size)
    assert abs(frac - 0.5) <= 3 * se


def test_relaxed_base_events_shared_with_strict():
    # tagging decorates the untagged stream without disturbing it
    grid = TimeGrid(T=1.0, n_steps=4)
    actions = ActionGrid(np.array([0.0, 1.0]))
    mu = RelaxedControl(actions, np.full((4, 2), 0.5))
    plain = _drivers(MARKS, grid, 100, seed=8)
    tagged = _drivers(MARKS, grid, 100, seed=8)
    tags = tagged.tags(mu)
    assert tags.shape == tagged.times.shape
    assert np.array_equal(plain.times, tagged.times)
    assert np.array_equal(plain.mark_idx, tagged.mark_idx)
    assert np.array_equal(dense_counts(tagged, tags, 2).sum(axis=2), dense_counts(plain))


def test_relaxed_compensator_identity():
    # counting jumps with mark theta_0 and tag 0 ~ w * nu_0 * T on average
    grid = TimeGrid(T=1.0, n_steps=4)
    actions = ActionGrid(np.array([0.0, 1.0]))
    mu = RelaxedControl(actions, np.tile(np.array([0.3, 0.7]), (4, 1)))
    P = 20_000
    d = _drivers(MARKS, grid, P, seed=9)
    hits = _per_path(d, (d.mark_idx == 0) & (d.tags(mu) == 0))
    se = hits.std(ddof=1) / np.sqrt(P)
    assert abs(hits.mean() - 0.3 * 0.7 * 1.0) <= 3 * se


def test_relaxed_orthogonality_of_disjoint_boxes():
    # centered counts over disjoint tag/mark boxes are uncorrelated
    grid = TimeGrid(T=1.0, n_steps=4)
    actions = ActionGrid(np.array([0.0, 1.0]))
    mu = RelaxedControl(actions, np.full((4, 2), 0.5))
    P = 20_000
    d = _drivers(MARKS, grid, P, seed=10)
    tags = d.tags(mu)
    n_a = _per_path(d, (d.mark_idx == 0) & (tags == 0))
    n_b = _per_path(d, (d.mark_idx == 1) & (tags == 1))
    ca = n_a - 0.5 * 0.7
    cb = n_b - 0.5 * 0.3
    prod = ca * cb
    se = prod.std(ddof=1) / np.sqrt(P)
    assert abs(prod.mean()) <= 3 * se


def test_dense_counts_match_event_lists():
    grid = TimeGrid(T=1.0, n_steps=8)
    d = _drivers(MARKS, grid, 100, seed=12)
    dense = dense_counts(d)
    assert dense.shape == (8, 2, 100)
    assert np.array_equal(dense.sum(axis=(0, 1)), _per_path(d))
    for i in range(2):
        assert np.array_equal(dense[:, i].sum(axis=0), _per_path(d, d.mark_idx == i))
    # occupation step recomputed from raw times
    dt = grid.dt
    for p, t, i in zip(d.path, d.times, d.mark_idx):
        k = min(int(np.floor(t / dt)), 7)
        assert dense[k, i, p] >= 1


def test_dense_tagged_counts_split_by_action():
    grid = TimeGrid(T=1.0, n_steps=4)
    actions = ActionGrid(np.array([0.0, 1.0]))
    mu = RelaxedControl(actions, np.full((4, 2), 0.5))
    d = _drivers(MARKS, grid, 200, seed=13)
    tags = d.tags(mu)
    tagged = dense_counts(d, tags, 2)
    assert tagged.shape == (4, 2, 2, 200)
    assert np.array_equal(tagged.sum(axis=2), dense_counts(d))


def _step_forms_match_reference(intensities, n_steps, n_paths, seed, n_actions):
    """Check every step's event counts, untagged, tagged and stacked, against the dense reference.

    Returns the untagged reference.
    """
    marks = jp.MarkSpace(marks=0.3 * np.arange(len(intensities)) - 0.4, intensities=intensities)
    d = _drivers(marks, TimeGrid(T=1.0, n_steps=n_steps), n_paths, seed)
    w = np.random.default_rng(seed).random((2, n_steps, n_actions))
    actions = ActionGrid(np.arange(n_actions, dtype=float))
    tags = np.stack([d.tags(RelaxedControl(actions, wc / wc.sum(axis=1)[:, None])) for wc in w])
    dense = dense_counts(d)
    tagged = np.stack([dense_counts(d, tc, n_actions) for tc in tags])
    m = len(intensities)
    for k in range(n_steps):
        paths, counts = d.event_counts(k)
        assert np.array_equal(paths, np.flatnonzero(dense[k].any(axis=0)))
        assert counts.shape == (paths.size, m, 1)
        assert np.array_equal(counts[..., 0], dense[k][:, paths].T)
        # untagged on several actions, every event counts under tag 0
        _, plain = d.event_counts(k, n_actions=n_actions)
        assert np.array_equal(plain[..., :1], counts) and not plain[..., 1:].any()
        reference = np.moveaxis(tagged[:, k][..., paths], -1, 1)
        for c in range(2):
            tag_paths, one = d.event_counts(k, tags[c], n_actions)
            assert np.array_equal(tag_paths, paths)
            assert np.array_equal(one, reference[c])
        stack_paths, stack = d.event_counts(k, tags, n_actions)
        assert np.array_equal(stack_paths, paths)
        assert stack.shape == (2, paths.size, m, n_actions)
        assert np.array_equal(stack, reference)
        # plain int64, signed, so the flow's inverse jump factor cannot wrap
        assert counts.dtype == plain.dtype == one.dtype == stack.dtype == np.int64
    return dense


@settings(max_examples=40, deadline=None)
@given(intensities=st.lists(st.sampled_from([0.0, 0.4, 3.0, 25.0]), min_size=1, max_size=3),
       n_steps=st.integers(1, 12), n_paths=st.integers(1, 30), seed=st.integers(0, 2**16),
       n_actions=st.integers(1, 4))
def test_step_counts_equal_the_dense_reference(intensities, n_steps, n_paths, seed, n_actions):
    _step_forms_match_reference(intensities, n_steps, n_paths, seed, n_actions)


def test_step_counts_of_busy_and_silent_drivers():
    # a (step, path) cell with several events, next to a silent mark
    assert _step_forms_match_reference([40.0, 0.0, 5.0], 3, 6, 1, 3).max() >= 2
    # no intensity at all: every step is empty
    assert not _step_forms_match_reference([0.0, 0.0], 5, 7, 2, 2).any()
