"""Property: a document that ``validate`` accepts runs without a config error.

Documents are drawn small (at most 16 steps and 32 paths) over every
experiment kind, with option values, control specs and model parameters
that are sometimes out of range, so both sides of every ``validate``
check get exercised. A run may still stop on genuine numeric divergence,
which is a ``FloatingPointError`` naming the stage; any other exception
from an accepted document is a gap in ``validate``.
"""

import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gcontrol.experiments import KINDS, run_document, validate_document
from gcontrol.models import MODEL_DEFAULTS

_STRICT = ("constant", "indices", "chattering")
_RELAXED = ("uniform", "weights")


def _maybe(strategy):
    """A value, or now and then None (an explicit JSON null)."""
    return _mostly(strategy, st.none(), odds=8)


def _numbers(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _mostly(good, bad, odds=4):
    """``bad`` once in ``odds`` draws, else ``good``, so most documents validate."""
    return st.integers(1, odds).flatmap(lambda i: bad if i == 1 else good)


def _values(pool, size):
    """``size`` entries of ``pool``, mostly distinct."""
    return _mostly(st.permutations(pool).map(lambda p: list(p[:size])),
                   st.lists(st.sampled_from(pool), min_size=size, max_size=size))


def _divisors(n_steps):
    return [d for d in range(1, n_steps + 1) if n_steps % d == 0]


@st.composite
def _weights(draw, n_steps, n_actions):
    rows = []
    for _ in range(n_steps):
        raw = draw(st.lists(st.integers(0, 4), min_size=n_actions, max_size=n_actions))
        if not any(raw):
            raw[0] = 1
        digits = draw(st.sampled_from([None, 3, 10, 11]))
        row = [v / sum(raw) for v in raw]
        rows.append(row if digits is None else [round(v, digits) for v in row])
    return rows


@st.composite
def _control(draw, types, n_steps, n_actions):
    ctype = draw(st.sampled_from(types))
    spec = {"type": ctype}
    if ctype == "constant":
        spec["index"] = draw(st.integers(0, n_actions))
    elif ctype == "indices":
        spec["indices"] = draw(st.lists(st.integers(0, n_actions - 1),
                                        min_size=n_steps, max_size=n_steps))
    elif ctype == "weights":
        spec["weights"] = draw(_weights(n_steps, n_actions))
    elif ctype == "chattering":
        spec["n"] = draw(_mostly(st.sampled_from(_divisors(n_steps)), st.integers(1, n_steps)))
        if draw(st.booleans()):
            spec["weights"] = draw(_weights(n_steps, n_actions))
    return spec


def _step_lists(n_steps):
    """Strictly increasing block counts, mostly divisors of n_steps."""
    pool = _mostly(st.just(st.sampled_from(_divisors(n_steps))),
                   st.just(st.integers(1, n_steps)))
    return pool.flatmap(lambda p: st.lists(p, min_size=1, max_size=3, unique=True).map(sorted))


@st.composite
def _options(draw, kind, n_steps, n_actions):
    opts = {}
    if kind in ("chattering", "bsde-stability") and draw(_mostly(st.just(True), st.just(False),
                                                                odds=8)):
        opts["n_list"] = draw(_maybe(_step_lists(n_steps)))
    if kind in ("mp-strict", "mp-relaxed", "mp-near", "bsde-stability") and draw(st.booleans()):
        opts["basis_degree"] = draw(_maybe(st.integers(1, 4)))
    if kind in ("mp-strict", "mp-relaxed", "mp-near"):
        if draw(st.booleans()):
            opts["n_blocks"] = draw(_mostly(st.sampled_from(_divisors(n_steps)),
                                            _maybe(st.integers(1, n_steps))))
        if draw(st.booleans()):
            opts["slack_mult"] = draw(_maybe(_numbers(0.0, 5.0)))
    if kind == "mp-near":
        if draw(st.booleans()):
            opts["C"] = draw(_maybe(_numbers(0.0, 2.0)))
        if draw(st.booleans()):
            opts["epsilon_n"] = draw(_maybe(_numbers(0.0, 1.0)))
        if draw(st.booleans()):
            opts["add_block_spikes"] = draw(st.booleans())
        if draw(st.booleans()):
            opts["candidates"] = draw(_maybe(st.lists(
                _control(_STRICT, n_steps, n_actions), max_size=2)))
    if kind == "variational":
        opts["action_index"] = draw(st.integers(0, n_actions))
        t0_steps = draw(st.integers(0, n_steps - 1))
        widths = draw(st.lists(st.integers(1, n_steps), min_size=1, max_size=3, unique=True))
        dt = 1.0 / n_steps
        opts["t0"] = t0_steps * dt
        opts["h_list"] = [w * dt for w in sorted(widths, reverse=True)]
    return opts


@st.composite
def documents(draw):
    kind = draw(st.sampled_from(KINDS))
    n_steps = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 16]))
    name = draw(st.sampled_from(sorted(MODEL_DEFAULTS)))
    keys = sorted(MODEL_DEFAULTS[name])
    params = draw(st.dictionaries(
        st.sampled_from(keys),
        st.one_of(_numbers(-1.0, 1.0), st.sampled_from([-1e9, 1e9])),
        max_size=3,
    )) if keys else {}
    actions = draw(_values([-1.0, 0.0, 0.5, 1.0], draw(st.integers(1, 3))))
    n_marks = draw(st.integers(1, 3))
    sigma_low = draw(_numbers(0.1, 2.0))
    doc = {
        "kind": kind,
        "model": {"name": name, "params": params},
        "grid": {"T": 1.0, "n_steps": n_steps},
        "bounds": {"sigma_low": sigma_low,
                   "sigma_high": draw(_mostly(_numbers(sigma_low, 4.0), _numbers(0.1, 4.0)))},
        "marks": {
            "values": draw(_values([-0.5, -0.2, 0.3, 0.6], n_marks)),
            "intensities": draw(st.lists(_numbers(0.0, 3.0), min_size=n_marks,
                                         max_size=draw(_mostly(st.just(n_marks),
                                                               st.just(3))))),
        },
        "actions": actions,
        "n_paths": draw(st.integers(2, 32)),
        "seed": draw(st.integers(0, 2**32)),
        "x0": draw(_numbers(-2.0, 2.0)),
    }
    if draw(st.booleans()):
        doc["scenarios"] = draw(st.one_of(
            st.fixed_dictionaries({"strategy": st.just("corners"), "blocks": st.integers(1, 3)}),
            st.fixed_dictionaries({"strategy": st.just("random"), "count": st.integers(1, 3),
                                   "seed": st.integers(0, 99)}),
        ))
    if kind == "cost" and draw(st.booleans()):
        doc["control"] = {"type": "bruteforce", "candidates": draw(st.lists(
            _control(_STRICT + _RELAXED, n_steps, len(actions)), min_size=1, max_size=3))}
    else:
        relaxed = kind in ("mp-relaxed", "bsde-stability", "chattering")
        types = _RELAXED if relaxed else _STRICT if kind != "cost" else _STRICT + _RELAXED
        doc["control"] = draw(_control(types, n_steps, len(actions)))
    options = draw(_options(kind, n_steps, len(actions)))
    if options:
        doc["options"] = options
    return doc


# the states stay finite, the backward variable is huge, and the
# loading q of the relaxed control overflows at the last step
_OVERFLOWING_STABILITY = {
    "kind": "bsde-stability",
    "model": {"name": "bilinear", "params": {"th0": 1e9, "s1": 1e9, "gl": 1e9}},
    "grid": {"T": 1.0, "n_steps": 12},
    "bounds": {"sigma_low": 1.0, "sigma_high": 4.0},
    "marks": {"values": [0.5], "intensities": [0.0]},
    "actions": [-1.0, 1.0],
    "control": {"type": "uniform"},
    "n_paths": 2,
    "seed": 3,
    "x0": 0.0,
    "options": {"n_list": [2, 4]},
}


# derandomized, so every run of the suite draws the same documents; the
# overflow warnings of diverging draws are not what this test is about
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents())
@example(_OVERFLOWING_STABILITY)
def test_accepted_documents_run(doc):
    if validate_document(doc):
        return
    with tempfile.TemporaryDirectory() as out:
        try:
            run_document(doc, output_dir=out)
        except FloatingPointError:
            pass
