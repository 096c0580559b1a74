"""Config validation, building, and the experiment runner.

Validation tests freeze the violation message layout (json path, colon,
sentence) because the CLI prints these lines verbatim.  Runner tests
check artifact layout and the determinism contract: same document, same
bytes, regardless of thread count or output directory.
"""

import hashlib
import json
import os
import threading
import tracemalloc

import numpy as np
import pytest

from gcontrol import __version__
from gcontrol import scenarios
from gcontrol.experiments import (
    KINDS,
    _OPTION_DEFAULTS,
    _OPTIONS,
    _csv,
    _map_ordered,
    build_experiment,
    config_hash,
    load_config,
    run_document,
    validate_document,
)


def _base_doc(**over):
    doc = {
        "kind": "simulate",
        "model": {"name": "zero"},
        "grid": {"T": 1.0, "n_steps": 16},
        "bounds": {"sigma_low": 1.0, "sigma_high": 4.0},
        "marks": {"values": [-0.4, 0.6], "intensities": [0.7, 0.3]},
        "actions": [-1.0, 1.0],
        "control": {"type": "constant", "index": 0},
        "n_paths": 50,
        "seed": 3,
        "x0": 2.0,
    }
    doc.update(over)
    return doc


def _gamma_params():
    # control enters the running cost quadratically and the jump term
    # linearly, nothing else; brute force picks index 0 on [-1, 1]
    return {"b1": 0.0, "b2": 0.0, "s0": 0.4, "s1": 0.0, "c1": 0.0,
            "c2": 0.5, "f1": 0.0, "f2": 0.025, "h1": 0.0, "h2": 0.0,
            "gq": 0.5}


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_well_formed_document_has_no_violations():
    assert validate_document(_base_doc()) == []


def test_missing_seed_is_reported_once():
    doc = _base_doc()
    del doc["seed"]
    violations = validate_document(doc)
    assert violations == ["$: 'seed' is a required property"]


def test_schema_violation_carries_json_path():
    violations = validate_document(_base_doc(n_paths=-5))
    assert len(violations) == 1
    assert violations[0].startswith("$.n_paths:")
    assert "-5" in violations[0]


def test_semantic_violations_are_all_listed():
    doc = _base_doc(
        kind="mp-strict",
        model={"name": "nope"},
        bounds={"sigma_low": 2.0, "sigma_high": 1.0},
        control={"type": "uniform"},
    )
    violations = validate_document(doc)
    assert len(violations) == 3
    assert any("unknown model 'nope'" in v for v in violations)
    assert any("$.bounds.sigma_high" in v for v in violations)
    assert any("needs a strict control" in v for v in violations)


def test_unknown_option_is_rejected():
    violations = validate_document(_base_doc(options={"speed": 11}))
    assert violations == [
        "$.options: Additional properties are not allowed ('speed' was unexpected)"
    ]
    # an option is known by its rule alone, so every default has one
    required = {"variational": {"action_index", "t0", "h_list"}}
    assert {kind: set(rule["properties"]) for kind, rule in _OPTIONS.items()} == {
        kind: set(defaults) | required.get(kind, set())
        for kind, defaults in _OPTION_DEFAULTS.items()}


def test_option_minimum_is_enforced():
    doc = _base_doc(kind="mp-strict", options={"n_blocks": 0})
    violations = validate_document(doc)
    assert violations == ["$.options.n_blocks: 0 is less than the minimum of 1"]


def test_bruteforce_control_is_cost_only():
    doc = _base_doc(control={
        "type": "bruteforce",
        "candidates": [{"type": "constant", "index": 0}],
    })
    violations = validate_document(doc)
    assert violations == [
        "$.control: 'bruteforce' control is only available for kind 'cost'"
    ]


def test_weight_rows_must_sum_to_one():
    rows = [[0.25, 0.25]] + [[0.5, 0.5]] * 15
    doc = _base_doc(kind="cost", control={"type": "weights", "weights": rows})
    violations = validate_document(doc)
    assert violations == ["$.control.weights: row 0 sums to 0.5, not 1"]


def test_ragged_weight_rows_are_a_violation():
    rows = [[1.0]] + [[0.5, 0.5]] * 15
    doc = _base_doc(kind="cost", control={"type": "weights", "weights": rows})
    assert validate_document(doc) == [
        "$.control.weights: weights must have shape (n_steps, n_actions)"
    ]


def test_indices_length_mismatch_is_reported():
    doc = _base_doc(control={"type": "indices", "indices": [0, 1, 0]})
    violations = validate_document(doc)
    assert violations == ["$.control.indices: expected 16 entries, got 3"]


def test_build_experiment_raises_on_invalid_document():
    doc = _base_doc()
    del doc["seed"]
    with pytest.raises(ValueError, match="invalid configuration"):
        build_experiment(doc)


def test_load_config_requires_a_json_object(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(ValueError, match="JSON object"):
        load_config(path)


_CONTROL_TYPES = "['constant', 'indices', 'uniform', 'weights', 'chattering', 'bruteforce']"

# (document, every line validate prints for it): the shape messages are
# pinned byte for byte, including their order
_SHAPE_PROBES = {
    # a non-integer below the minimum fails both the type and the bound
    "integer-below-minimum": (
        _base_doc(control={"type": "constant", "index": -1.5}),
        ["$.control.index: -1.5 is less than the minimum of 0",
         "$.control.index: -1.5 is not of type 'integer'"]),
    "integral-float": (_base_doc(grid={"T": 1.0, "n_steps": 16.0}, n_paths=50.0), []),
    "int-beyond-float-range": (
        _base_doc(seed=10**400),
        [f"$.seed: {10**400} is greater than the maximum of 18446744073709551615"]),
    # NaN fails no bound, only a type that is not a number
    "nan-integer": (
        _base_doc(grid={"T": 1.0, "n_steps": float("nan")}),
        ["$.grid.n_steps: nan is not of type 'integer'"]),
    # a number is any numbers.Number, so numpy scalars pass and meet the bounds
    "numpy-scalars": (
        _base_doc(x0=np.float32(1.0), grid={"T": np.float32(-1.0), "n_steps": 16}),
        [f"$.grid.T: {np.float32(-1.0)!r} is less than or equal to the minimum of 0"]),
    "missing-key": (
        {k: v for k, v in _base_doc().items() if k != "actions"},
        ["$: 'actions' is a required property"]),
    "unknown-key": (
        _base_doc(colour="red"),
        ["$: Additional properties are not allowed ('colour' was unexpected)"]),
    "unknown-keys": (
        _base_doc(zeta=1, alpha=2, Mid=3),
        ["$: Additional properties are not allowed ('Mid', 'alpha', 'zeta' were unexpected)"]),
    "kind-enum": (
        _base_doc(kind="sim"),
        ["$.kind: 'sim' is not one of ['simulate', 'cost', 'chattering', 'variational',"
         " 'mp-strict', 'mp-near', 'mp-relaxed', 'bsde-stability']"]),
    "control-type-enum": (
        _base_doc(control={"type": "strict"}),
        [f"$.control.type: 'strict' is not one of {_CONTROL_TYPES}"]),
    "bool-x0": (_base_doc(x0=True), ["$.x0: True is not of type 'number'"]),
    "empty-actions": (_base_doc(actions=[]), ["$.actions: [] should be non-empty"]),
    "bad-intensity": (
        _base_doc(marks={"values": [-0.4, 0.6], "intensities": [0.7, -0.3]}),
        ["$.marks.intensities[1]: -0.3 is less than the minimum of 0"]),
    "nested-candidate": (
        _base_doc(kind="cost", control={"type": "bruteforce", "candidates": [
            {"type": "uniform"},
            {"type": "bruteforce", "candidates": [{"type": "nope", "n": 0}]}]}),
        ["$.control.candidates[1].candidates[0].n: 0 is less than the minimum of 1",
         f"$.control.candidates[1].candidates[0].type: 'nope' is not one of {_CONTROL_TYPES}"]),
    "option-candidate": (
        _base_doc(kind="mp-near", options={"C": 1.0, "candidates": [
            {"type": "constant", "index": -1.5, "colour": "red"}]}),
        ["$.options.candidates[0]: Additional properties are not allowed"
         " ('colour' was unexpected)",
         "$.options.candidates[0].index: -1.5 is less than the minimum of 0",
         "$.options.candidates[0].index: -1.5 is not of type 'integer'"]),
    # the options of a valid kind are checked by its rule: an unknown key, a
    # wrong type, a null and a relaxed candidate of mp-near
    "option-table": (
        _base_doc(kind="mp-near", options={"speed": 11, "slack_mult": "3", "C": None,
                                           "candidates": [{"type": "uniform"}]}),
        ["$.options: Additional properties are not allowed ('speed' was unexpected)",
         "$.options.C: null is not a value; leave the option out to use its default",
         "$.options.candidates[0].type: 'uniform' is not one of"
         " ['constant', 'indices', 'chattering']",
         "$.options.slack_mult: '3' is not of type 'number'"]),
    "params-keys": (
        _base_doc(model={"name": "zero", "params": {"a b": "1", "it's": None, "a\\b": True}}),
        ["$.model.params['a b']: '1' is not of type 'number'",
         "$.model.params['a\\\\b']: True is not of type 'number'",
         "$.model.params['it\\'s']: None is not of type 'number'"]),
}


@pytest.mark.parametrize("doc, violations", list(_SHAPE_PROBES.values()),
                         ids=list(_SHAPE_PROBES))
def test_shape_messages_are_frozen(doc, violations):
    assert validate_document(doc) == violations


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def test_simulate_zero_model_writes_constant_state_rows(tmp_path):
    res = run_document(_base_doc(), output_dir=tmp_path)
    assert res.verdict == "none"
    lines = (tmp_path / "states.csv").read_text().strip().splitlines()
    assert lines[0] == "scenario,step,t,mean,std"
    assert all(line.endswith(",2.0,0.0") for line in lines[1:])
    assert res.summary["metrics"]["terminal_upper_mean"] == 2.0
    assert res.summary["metrics"]["n_scenarios"] == 4


@pytest.mark.parametrize("control", [{"type": "constant", "index": 1}, {"type": "uniform"}])
def test_simulate_kind_stores_no_run(control, tmp_path):
    # the per-step moments are taken from the stream as the kernel writes
    # each step: the whole run, drivers and artifacts included, peaks
    # below one (K + 1, S, P) state array
    k, p = 32, 2000
    doc = _base_doc(model={"name": "linear_jump_lq"}, grid={"T": 1.0, "n_steps": k},
                    scenarios={"strategy": "corners", "blocks": 2},
                    actions=[-1.0, 0.0, 1.0], control=control, n_paths=p)
    # numpy imports some submodules on first use; a first run loads them
    run_document(doc, output_dir=tmp_path / "first")
    state_bytes = (k + 1) * 4 * p * 8
    tracemalloc.start()
    try:
        run_document(doc, output_dir=tmp_path / "measured")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.0 * state_bytes, peak / state_bytes


def test_variational_kind_stores_no_run(tmp_path):
    """The base runs as row 0 of its spikes' batch and z lives in two step slots.

    With the benchmark's spike options at K=64, P=1000 the run peaks at
    1.78 state arrays after a warm-up run: the formula's (K+1, S, P)
    summand buffer, the drivers, and the batch's step slot, path costs,
    quotient sups and z. Storing the base run and solving the whole z
    peaked at 2.70.
    """
    k, p = 64, 1000
    doc = _base_doc(kind="variational", model={"name": "linear_jump_lq"},
                    grid={"T": 1.0, "n_steps": k}, scenarios={"strategy": "corners", "blocks": 2},
                    actions=[-1.0, 0.0, 1.0], control={"type": "constant", "index": 1},
                    n_paths=p, x0=1.0,
                    options={"action_index": 2, "t0": 0.25, "h_list": [1 / 16, 1 / 32, 1 / 64]})
    # numpy imports some submodules on first use; a first run loads them
    run_document(doc, output_dir=tmp_path / "first")
    state_bytes = (k + 1) * 4 * p * 8
    tracemalloc.start()
    try:
        run_document(doc, output_dir=tmp_path / "measured")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * state_bytes, peak / state_bytes


def test_csv_cell_rule():
    # integers as their digits, strings as they are, every other cell as
    # the repr of its float; one line per row and a trailing newline
    text = _csv("a,b,c,d", [(3, np.int64(3), 0.1, "pass"), (np.float64(2.5), 1.0, -0, "fail")])
    assert text == "a,b,c,d\n3,3,0.1,pass\n2.5,1.0,0,fail\n"
    assert _csv("a", []) == "a\n"


def test_summary_key_set_is_stable(tmp_path):
    res = run_document(_base_doc(), output_dir=tmp_path)
    assert sorted(res.summary) == [
        "files", "kind", "metrics", "model", "n_paths", "seed", "verdict",
    ]
    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk == json.loads(json.dumps(res.summary))


def test_rerun_yields_identical_digests(tmp_path):
    doc = _base_doc(kind="cost", n_paths=200)
    first = run_document(doc, output_dir=tmp_path / "a")
    second = run_document(doc, output_dir=tmp_path / "b")
    assert first.manifest.files == second.manifest.files
    assert first.manifest.config_hash == second.manifest.config_hash


# one small document per kind
_ONE_DRAW = {
    "simulate": {"control": {"type": "constant", "index": 1}},
    "cost": {"control": {"type": "bruteforce", "candidates": [
        {"type": "constant", "index": 0}, {"type": "uniform"}]}},
    "chattering": {"control": {"type": "uniform"}, "options": {"n_list": [2, 4]}},
    "variational": {"control": {"type": "constant", "index": 1},
                    "options": {"action_index": 2, "t0": 0.25, "h_list": [0.125, 0.0625]}},
    "mp-strict": {"control": {"type": "constant", "index": 1}},
    "mp-near": {"control": {"type": "constant", "index": 1},
                "options": {"candidates": [{"type": "constant", "index": 0}]}},
    "mp-relaxed": {"control": {"type": "uniform"}},
    "bsde-stability": {"control": {"type": "uniform"}, "options": {"n_list": [2, 4]}},
}


@pytest.mark.parametrize("kind", KINDS)
def test_each_run_draws_its_brownian_normals_once(kind, monkeypatch, tmp_path):
    # every control of a run, strict or relaxed, base or candidate, rung or
    # spike, is driven by the one Brownian draw of the run's seed
    calls = []
    original = scenarios.sample_brownian

    def counted(*args):
        calls.append(args[2:])
        return original(*args)

    monkeypatch.setattr(scenarios, "sample_brownian", counted)
    run_document(_lq(kind=kind, n_paths=16, seed=5, **_ONE_DRAW[kind]), output_dir=tmp_path)
    assert calls == [(16, 5)]


def test_config_hash_ignores_output_dir():
    doc = _base_doc()
    assert config_hash(doc) == config_hash({**doc, "output_dir": "elsewhere"})
    assert config_hash(doc) != config_hash({**doc, "seed": 4})


def test_thread_count_does_not_change_artifacts(tmp_path):
    doc = _base_doc(
        kind="cost",
        n_paths=300,
        control={"type": "bruteforce", "candidates": [
            {"type": "constant", "index": 0},
            {"type": "constant", "index": 1},
            {"type": "uniform"},
        ]},
    )
    one = run_document(doc, output_dir=tmp_path / "t1", threads=1)
    three = run_document(doc, output_dir=tmp_path / "t3", threads=3)
    assert one.manifest.files == three.manifest.files
    assert one.summary["metrics"]["best_index"] == three.summary["metrics"]["best_index"]
    lines = (tmp_path / "t1" / "candidates.csv").read_text().strip().splitlines()
    assert lines[0] == "candidate,upper_value,stderr_max"
    assert len(lines) == 4


@pytest.mark.parametrize("n_items,threads", [(2, 2), (3, 3), (3, 2)])
def test_fan_out_runs_item_zero_on_the_caller_within_its_thread_count(n_items, threads):
    # item 0 runs on the calling thread and a pool of threads - 1 workers
    # takes the rest, so no more than `threads` threads are alive while
    # the items run; with one thread per item the barrier holds every item
    # until all have started, so they do run at once
    caller = threading.get_ident()
    before = threading.active_count()
    barrier = threading.Barrier(n_items, timeout=30) if n_items == threads else None
    seen = {}

    def fn(item):
        seen[item] = (threading.get_ident(), threading.active_count())
        if barrier is not None:
            barrier.wait()
        return 10 * item

    assert _map_ordered(fn, range(n_items), threads) == [10 * i for i in range(n_items)]
    assert sorted(seen) == list(range(n_items))
    assert seen[0][0] == caller
    assert len({ident for ident, _ in seen.values()}) == threads
    assert max(alive for _, alive in seen.values()) <= before + threads - 1


@pytest.mark.parametrize("bad", [{0}, {1}, {0, 1}])
def test_fan_out_raises_the_first_failing_item(bad):
    def fn(item):
        if item in bad:
            raise ValueError(f"item {item} failed")
        return item

    with pytest.raises(ValueError, match=f"^item {min(bad)} failed$"):
        _map_ordered(fn, [0, 1], 2)


def test_seed_override_is_reflected_in_summary_and_hash(tmp_path):
    doc = _base_doc()
    base = run_document(doc, output_dir=tmp_path / "base")
    bumped = run_document(doc, output_dir=tmp_path / "bumped", seed_override=99)
    assert base.summary["seed"] == 3
    assert bumped.summary["seed"] == 99
    assert base.manifest.config_hash != bumped.manifest.config_hash


def test_mp_strict_run_reports_pass(tmp_path):
    doc = _base_doc(
        kind="mp-strict",
        model={"name": "linear_jump_lq", "params": _gamma_params()},
        grid={"T": 1.0, "n_steps": 64},
        marks={"values": [-0.5, 0.8], "intensities": [0.6, 0.4]},
        control={"type": "constant", "index": 0},
        n_paths=800,
        seed=21,
        x0=2.5,
        options={"n_blocks": 2},
    )
    res = run_document(doc, output_dir=tmp_path)
    assert res.verdict == "pass"
    lines = (tmp_path / "mp_report.csv").read_text().strip().splitlines()
    assert lines[0] == "block,action,estimate,stderr,slack,verdict"
    assert len(lines) == 5
    assert "hypothesis" in res.summary["metrics"]


def test_stability_summary_reports_the_relaxed_regressions_health(tmp_path):
    common = dict(model={"name": "linear_jump_lq", "params": {}}, actions=[-1.0, 0.0, 1.0],
                  control={"type": "uniform"}, n_paths=64, seed=7, x0=1.0)
    stab = run_document(_base_doc(kind="bsde-stability", options={"n_list": [2, 4]}, **common),
                        output_dir=tmp_path / "stability")
    table = run_document(_base_doc(kind="mp-relaxed", **common), output_dir=tmp_path / "table")
    health = set(table.summary["metrics"]) - {"worst_entry", "worst_block", "worst_action",
                                              "hypothesis"}
    assert "svd_fallbacks" in health
    # the table's regressions are those of the relaxed control the ladder starts from
    assert {k: stab.summary["metrics"][k] for k in health} == {
        k: table.summary["metrics"][k] for k in health}


@pytest.mark.filterwarnings("ignore:overflow")
def test_module_errors_surface_from_run_document(tmp_path):
    # a valid config whose Euler scheme diverges under action -1
    doc = _base_doc(model={"name": "bilinear", "params": {"th1": 1e160}})
    assert validate_document(doc) == []
    with pytest.raises(FloatingPointError, match="after step 1 under scenario 0 of control 0"):
        run_document(doc, output_dir=tmp_path)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_overflowing_table_raises_instead_of_writing_nan(tmp_path):
    # the states stay finite, the backward variable is huge, and the
    # stationarity entries overflow to inf - inf
    doc = _base_doc(
        kind="mp-strict",
        model={"name": "bilinear", "params": {"th0": 1e9, "s1": 1e9, "gl": 1e9}},
        grid={"T": 1.0, "n_steps": 12},
        marks={"values": [0.5], "intensities": [0.0]},
        n_paths=2,
        x0=0.0,
    )
    assert validate_document(doc) == []
    with pytest.raises(FloatingPointError, match=(
            r"non-finite stationarity entry of action -1\.0 in block 0 at step 0 "
            r"under scenario 0")):
        run_document(doc, output_dir=tmp_path)
    assert not (tmp_path / "summary.json").exists()


def test_run_checks_the_model_derivatives_once(tmp_path, monkeypatch):
    # the plan validates the model instance the kernel then runs
    from gcontrol import experiments, models

    calls = []
    check = models.check_derivatives

    def counted(model, *args, **kwargs):
        calls.append(model)
        return check(model, *args, **kwargs)

    monkeypatch.setattr(models, "check_derivatives", counted)
    monkeypatch.setattr(experiments, "check_derivatives", counted, raising=False)
    run_document(_lq(), output_dir=tmp_path)
    assert len(calls) == 1


def test_variational_run_advances_z_once(tmp_path, monkeypatch):
    # z depends only on the spike's opening step, so every width shares
    # it: its forward factors are formed once per step from the opening
    # step k0 = 4 to K = 16, where z per width would take three times as many
    from gcontrol import variational

    calls = []
    factors = variational._FlowSteps.factors

    def counted(self, k, x, *, need_inverse, need_forward):
        calls.append((k, need_forward))
        return factors(self, k, x, need_inverse=need_inverse, need_forward=need_forward)

    monkeypatch.setattr(variational._FlowSteps, "factors", counted)
    options = {**_VARIATIONAL, "h_list": [0.1875, 0.125, 0.0625]}
    run_document(_lq(kind="variational", options=options), output_dir=tmp_path)
    assert calls == [(k, True) for k in range(4, 16)]


def test_non_finite_metric_is_refused(tmp_path, monkeypatch):
    from gcontrol import experiments

    def nan_metric(cfg, drivers, threads):
        return {"states.csv": "x\n"}, {"terminal_upper_mean": float("nan")}, "none"

    monkeypatch.setitem(experiments._DISPATCH, "simulate", nan_metric)
    with pytest.raises(FloatingPointError, match="non-finite simulate metric terminal_upper_mean"):
        run_document(_base_doc(), output_dir=tmp_path)
    assert not (tmp_path / "summary.json").exists()


def test_rerun_removes_files_the_old_manifest_lists(tmp_path):
    # four corner scenarios write plot_state_mean_s0..s3; one block gives two
    run_document(_base_doc(), output_dir=tmp_path)
    (tmp_path / "notes.txt").write_text("not an artifact\n")
    assert (tmp_path / "plot_state_mean_s3.csv").exists()
    run_document(_base_doc(scenarios={"strategy": "corners", "blocks": 1}),
                 output_dir=tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    on_disk = {p.name for p in tmp_path.iterdir()}
    assert on_disk == set(manifest["files"]) | {"manifest.json", "notes.txt"}
    assert "plot_state_mean_s2.csv" not in on_disk


def _snapshot(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


def test_interrupted_write_leaves_every_file_old_or_new(tmp_path, monkeypatch):
    # the second run writes other bytes under every shared name and drops
    # plot_state_mean_s2 and _s3; a failure after its k-th replaced file
    # leaves each file with its old bytes or its new ones, and no temporary
    # file, whatever k is
    old_doc = _base_doc(model={"name": "linear_jump_lq"})
    new_doc = _base_doc(model={"name": "linear_jump_lq"}, seed=4,
                        scenarios={"strategy": "corners", "blocks": 1})
    new = run_document(new_doc, output_dir=tmp_path / "new")
    new_files = {n: b for n, b in _snapshot(tmp_path / "new").items() if n != "manifest.json"}
    replace = os.replace
    for k in range(len(new_files) + 2):
        out = tmp_path / f"after-{k}"
        run_document(old_doc, output_dir=out)
        before = _snapshot(out)
        assert all(before[n] != b for n, b in new_files.items())
        done = []

        def failing_replace(src, dst):
            if len(done) == k:
                raise OSError("injected failure")
            done.append(dst)
            replace(src, dst)

        finished = k > len(new_files)
        with monkeypatch.context() as m:
            m.setattr(os, "replace", failing_replace)
            if finished:
                run_document(new_doc, output_dir=out)
            else:
                with pytest.raises(OSError, match="injected failure"):
                    run_document(new_doc, output_dir=out)
        after = _snapshot(out)
        assert not [n for n in after if n.endswith(".tmp")]
        assert len(done) == min(k, len(new_files) + 1)
        # the old manifest stays until every new file is in place, and the
        # files only it lists go after the new one
        manifest = after.pop("manifest.json")
        if finished:
            assert json.loads(manifest)["files"] == dict(new.manifest.files)
            assert set(after) == set(new_files)
        else:
            assert manifest == before["manifest.json"]
            assert "plot_state_mean_s3.csv" in after
        for name, data in after.items():
            assert data in (before.get(name), new_files.get(name))


def test_manifest_matches_files_on_disk(tmp_path):
    res = run_document(_base_doc(), output_dir=tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["version"] == __version__
    assert manifest["config_hash"] == res.manifest.config_hash
    assert "manifest.json" not in manifest["files"]
    assert "summary.json" in manifest["files"]
    for name, digest in manifest["files"].items():
        data = (tmp_path / name).read_text().encode()
        assert hashlib.sha256(data).hexdigest() == digest


# ---------------------------------------------------------------------------
# validation of run preconditions
# ---------------------------------------------------------------------------


def _lq(**over):
    return _base_doc(model={"name": "linear_jump_lq"}, actions=[-1.0, 0.0, 1.0], **over)


_HUGE = 10**400  # a 401-digit integer literal, beyond the float range

_VARIATIONAL = {"action_index": 2, "t0": 0.25, "h_list": [0.125, 0.0625]}

# (config validate must reject, its violation, an aligned config that must run)
_PRECONDITION_PROBES = [
    (_lq(seed=-1), "$.seed: -1 is less than the minimum of 0", _lq(seed=0)),
    (_lq(seed=2**64),
     "$.seed: 18446744073709551616 is greater than the maximum of 18446744073709551615",
     _lq(seed=2**64 - 1)),
    (_lq(scenarios={"strategy": "random", "count": 2, "seed": -3}),
     "$.scenarios.seed: -3 is less than the minimum of 0",
     _lq(scenarios={"strategy": "random", "count": 2, "seed": 3})),
    (_lq(n_paths=1), "$.n_paths: 1 path gives no standard error; at least 2 are needed",
     _lq(n_paths=2)),
    (_lq(kind="chattering", control={"type": "uniform"}, options={"n_list": [4, 5]}),
     "$.options.n_list[1]: 5 blocks do not divide n_steps 16",
     _lq(kind="chattering", control={"type": "uniform"}, options={"n_list": [4, 8]})),
    (_lq(kind="bsde-stability", control={"type": "uniform"}, options={"n_list": [3]}),
     "$.options.n_list[0]: 3 blocks do not divide n_steps 16",
     _lq(kind="bsde-stability", control={"type": "uniform"}, options={"n_list": [4]})),
    (_lq(kind="mp-strict", options={"n_blocks": 3}),
     "$.options.n_blocks: 3 blocks do not divide n_steps 16",
     _lq(kind="mp-strict", options={"n_blocks": 8})),
    (_lq(kind="mp-relaxed", control={"type": "uniform"}, options={"n_blocks": 5}),
     "$.options.n_blocks: 5 blocks do not divide n_steps 16",
     _lq(kind="mp-relaxed", control={"type": "uniform"}, options={"n_blocks": 2})),
    (_lq(kind="mp-near", options={"n_blocks": 6, "C": 1.0}),
     "$.options.n_blocks: 6 blocks do not divide n_steps 16",
     _lq(kind="mp-near", options={"n_blocks": 4, "C": 1.0})),
    (_lq(kind="cost", control={"type": "chattering", "n": 5}),
     "$.control.n: 5 blocks do not divide n_steps 16",
     _lq(kind="cost", control={"type": "chattering", "n": 4})),
    (_lq(kind="variational", options={**_VARIATIONAL, "t0": 0.3}),
     "$.options.t0: 0.3 is not a multiple of dt = 0.0625",
     _lq(kind="variational", options={**_VARIATIONAL, "t0": 0.3125})),
    (_lq(kind="variational", options={**_VARIATIONAL, "h_list": [0.125, 0.07]}),
     "$.options.h_list[1]: 0.07 is not a multiple of dt = 0.0625",
     _lq(kind="variational", options=_VARIATIONAL)),
    (_lq(kind="variational", options={**_VARIATIONAL, "t0": 0.875, "h_list": [0.25]}),
     "$.options.h_list[0]: window [t0, t0 + 0.25) ends after T",
     _lq(kind="variational", options={**_VARIATIONAL, "t0": 0.75, "h_list": [0.25]})),
    (_lq(kind="variational", options={**_VARIATIONAL, "t0": 1.0}),
     "$.options.t0: 1.0 leaves no step before T = 1.0",
     _lq(kind="variational", options={**_VARIATIONAL, "t0": 0.9375, "h_list": [0.0625]})),
    (_lq(scenarios={"strategy": "random", "count": 2}),
     "$.scenarios: 'seed' is a required property when strategy is 'random'",
     _lq(scenarios={"strategy": "random", "count": 2, "seed": 3})),
    (_lq(marks={"values": [-0.4, 0.6], "intensities": [1e300, 0.3]}),
     "$.marks.intensities: total intensity times T is 1e+300,"
     " above the largest Poisson mean 9.223372006484771e+18",
     _lq(marks={"values": [-0.4, 0.6], "intensities": [3.0, 0.3]})),
    (_base_doc(model={"name": "linear_jump_lq", "params": {"b_1": 0.2}}),
     "$.model.params.b_1: not a parameter of model 'linear_jump_lq' (known: ['b1', 'b2',"
     " 'c1', 'c2', 'f1', 'f2', 'gq', 'h1', 'h2', 's0', 's1'])",
     _base_doc(model={"name": "linear_jump_lq", "params": {"b1": 0.2}})),
]


def _steps(n_steps, **over):
    return _lq(grid={"T": 1.0, "n_steps": n_steps}, **over)


# options a document leaves out take their kind's defaults (n_list [4, 16, 64],
# n_blocks 4), which validate checks too
_DEFAULT_OPTION_PROBES = {
    "chattering-defaults": (
        _steps(32, kind="chattering", control={"type": "uniform"}),
        "$.options.n_list[2]: the default 64 blocks do not divide n_steps 32",
        _steps(32, kind="chattering", control={"type": "uniform"},
               options={"n_list": [4, 16, 32]})),
    "mp-strict-defaults": (
        _steps(10, kind="mp-strict"),
        "$.options.n_blocks: the default 4 blocks do not divide n_steps 10",
        _steps(10, kind="mp-strict", options={"n_blocks": 5})),
    "bsde-stability-defaults": (
        _steps(32, kind="bsde-stability", control={"type": "uniform"}),
        "$.options.n_list[2]: the default 64 blocks do not divide n_steps 32",
        _steps(32, kind="bsde-stability", control={"type": "uniform"},
               options={"n_list": [4, 16, 32]})),
}


# gaps found by tests/test_validate_runs.py: each config passed validate and
# then failed its run
_VALIDATE_GAP_PROBES = {
    "marks-distinct": (
        _lq(marks={"values": [0.6, 0.6], "intensities": [0.7, 0.3]}),
        "$.marks.values: values must be distinct",
        _lq(marks={"values": [-0.4, 0.6], "intensities": [0.7, 0.3]})),
    "weights-tolerance": (
        _lq(kind="mp-relaxed", control={"type": "weights", "weights": [[0.3333333333] * 3] * 16}),
        "$.control.weights: row 0 sums to 0.9999999999, not 1",
        _lq(kind="mp-relaxed", control={"type": "weights", "weights": [[0.25, 0.5, 0.25]] * 16})),
    "null-option": (
        _lq(kind="mp-strict", options={"slack_mult": None}),
        "$.options.slack_mult: null is not a value; leave the option out to use its default",
        _lq(kind="mp-strict", options={"slack_mult": 2.0})),
    # the derivative check allows for a central difference's rounding, so the
    # exact model with c2 = -1e9 validates and runs; at the model's
    # parameters only a value that is not finite is refused
    "derivative-check": (
        _base_doc(model={"name": "linear_jump_lq", "params": {"c2": float("-inf")}},
                  actions=[-1.0, 0.0, 1.0]),
        "$.model.params.c2: -inf is not a finite number",
        _base_doc(model={"name": "linear_jump_lq", "params": {"c2": -1e9}},
                  actions=[-1.0, 0.0, 1.0])),
    # NaN fails no bound (every comparison with it is false), but the number
    # type refuses it; these documents are built here, as JSON has no NaN
    "sigma-low-nan": (
        _lq(bounds={"sigma_low": float("nan"), "sigma_high": 4.0}),
        "$.bounds.sigma_low: nan is not a finite number",
        _lq(bounds={"sigma_low": 0.5, "sigma_high": 4.0})),
    "T-nan": (
        _lq(grid={"T": float("nan"), "n_steps": 16}),
        "$.grid.T: nan is not a finite number",
        _lq(grid={"T": 2.0, "n_steps": 16})),
    # mp-near's candidates get a strict-only copy of the control rule
    "candidate-schema": (
        _lq(kind="mp-near", options={"C": 1.0, "candidates": [{"type": "constant", "index": "0"}]}),
        "$.options.candidates[0].index: '0' is not of type 'integer'",
        _lq(kind="mp-near", options={"C": 1.0, "candidates": [{"type": "constant", "index": 0}]})),
    # a width that rounds to zero steps is on no grid
    "h-below-dt": (
        _lq(kind="variational", options={**_VARIATIONAL, "h_list": [0.125, 1e-12]}),
        "$.options.h_list[1]: 1e-12 is shorter than dt = 0.0625",
        _lq(kind="variational", options=_VARIATIONAL)),
    # VolatilityBounds orders the bounds up to 1e-10
    "sigma-order-tolerance": (
        _lq(bounds={"sigma_low": 1.0, "sigma_high": 1.0 - 2e-10}),
        "$.bounds.sigma_high: sigma_high 0.9999999998 is below sigma_low 1.0",
        _lq(bounds={"sigma_low": 1.0, "sigma_high": 1.0 - 5e-11})),
    # non-finite numbers, refused at their own item paths: the run would fail
    # in the kernel or write a non-finite metric
    "x0-nan": (
        _lq(x0=float("nan")),
        "$.x0: nan is not a finite number",
        _lq(x0=-1.5)),
    "actions-nan": (
        _base_doc(model={"name": "linear_jump_lq"}, actions=[-1.0, float("nan"), 1.0]),
        "$.actions[1]: nan is not a finite number",
        _base_doc(model={"name": "linear_jump_lq"}, actions=[-1.0, 0.5, 1.0])),
    "mark-values-inf": (
        _lq(marks={"values": [-0.4, float("inf")], "intensities": [0.7, 0.3]}),
        "$.marks.values[1]: inf is not a finite number",
        _lq(marks={"values": [-0.4, 0.8], "intensities": [0.7, 0.3]})),
    "model-param-nan": (
        _base_doc(model={"name": "linear_jump_lq", "params": {"b1": float("nan")}}),
        "$.model.params.b1: nan is not a finite number",
        _base_doc(model={"name": "linear_jump_lq", "params": {"b1": 0.1}})),
    "slack-mult-nan": (
        _lq(kind="mp-strict", options={"slack_mult": float("nan")}),
        "$.options.slack_mult: nan is not a finite number",
        _lq(kind="mp-strict", options={"slack_mult": 2.0})),
    "C-inf": (
        _lq(kind="mp-near", options={"C": float("inf")}),
        "$.options.C: inf is not a finite number",
        _lq(kind="mp-near", options={"C": 2.0})),
    "epsilon-n-nan": (
        _lq(kind="mp-near", options={"C": 1.0, "epsilon_n": float("nan")}),
        "$.options.epsilon_n: nan is not a finite number",
        _lq(kind="mp-near", options={"C": 1.0, "epsilon_n": 0.01})),
    # a coefficient that overflows on the derivative check's probes: the run
    # would stop in the kernel
    "coefficient-overflow": (
        _base_doc(model={"name": "linear_jump_lq", "params": {"c2": 1e308}},
                  actions=[-1.0, 0.0, 1.0]),
        "$.model.params: 4 derivative checks fail, first: gamma is not finite at"
        " (t=0.298, x=-2.64, a=-1.82)",
        _base_doc(model={"name": "linear_jump_lq", "params": {"c2": 1e9}},
                  actions=[-1.0, 0.0, 1.0])),
    # integer literals no float holds, and a control index no int64 holds
    "x0-int-overflow": (
        _lq(x0=_HUGE),
        f"$.x0: {_HUGE} is not a finite number",
        _lq(x0=10**3)),
    "actions-int-overflow": (
        _base_doc(model={"name": "linear_jump_lq"}, actions=[-1.0, _HUGE]),
        f"$.actions[1]: {_HUGE} is not a finite number",
        _base_doc(model={"name": "linear_jump_lq"}, actions=[-1, 1])),
    "mark-values-int-overflow": (
        _lq(marks={"values": [-0.4, _HUGE], "intensities": [0.7, 0.3]}),
        f"$.marks.values[1]: {_HUGE} is not a finite number",
        _lq(marks={"values": [-0.4, 1], "intensities": [0.7, 0.3]})),
    "mark-intensities-int-overflow": (
        _lq(marks={"values": [-0.4, 0.6], "intensities": [0.7, _HUGE]}),
        f"$.marks.intensities[1]: {_HUGE} is not a finite number",
        _lq(marks={"values": [-0.4, 0.6], "intensities": [0.7, 1]})),
    "control-index-int64-overflow": (
        _lq(control={"type": "constant", "index": 2**64}),
        "$.control.index: 18446744073709551616 is greater than the maximum of 9223372036854775807",
        _lq(control={"type": "constant", "index": 2})),
    # sizes no int64 holds, listed at their own paths
    "n-steps-int64-overflow": (
        _lq(grid={"T": 1.0, "n_steps": 2**64}),
        "$.grid.n_steps: 18446744073709551616 is greater than the maximum of 9223372036854775807",
        _lq(grid={"T": 1.0, "n_steps": 16})),
    "n-paths-int64-overflow": (
        _lq(n_paths=2**64),
        "$.n_paths: 18446744073709551616 is greater than the maximum of 9223372036854775807",
        _lq(n_paths=50)),
    # the corner family has 2**min(blocks, n_steps) paths: refused before
    # validate enumerates them, and a grid of 8 steps caps 40 blocks at 8
    "blocks-too-many": (
        _lq(scenarios={"strategy": "corners", "blocks": 40}),
        "$.scenarios.blocks: blocks 40 on 16 steps would enumerate 2**16 corner paths;"
        " at most 12 blocks are enumerated",
        _steps(8, scenarios={"strategy": "corners", "blocks": 40})),
    # a random family as large as the largest corner family is the cap;
    # 10**13 paths would fail numpy's allocation inside validate
    "count-too-many": (
        _lq(kind="cost", scenarios={"strategy": "random", "count": 4097, "seed": 1}),
        "$.scenarios.count: count 4097 is above 4096, the most paths a corner family has",
        _lq(kind="cost", scenarios={"strategy": "random", "count": 4096, "seed": 1})),
    # the state regression's power sums up to z**32 cannot overflow
    "basis-degree-too-high": (
        _lq(kind="mp-strict", options={"basis_degree": 17}),
        "$.options.basis_degree: degree 17 is above 16, beyond which the power sums of"
        " the standardized state can overflow",
        _lq(kind="mp-strict", options={"basis_degree": 16})),
    # a spike time whose step count overflows a float is on no grid
    "t0-huge": (
        _lq(kind="variational", options={**_VARIATIONAL, "t0": 1e308}),
        "$.options.t0: 1e+308 is inf steps of dt = 0.0625, more than any grid has",
        _lq(kind="variational", options=_VARIATIONAL)),
    "h-list-huge": (
        _lq(kind="variational", options={**_VARIATIONAL, "h_list": [1e308, 0.0625]}),
        "$.options.h_list[0]: 1e+308 is inf steps of dt = 0.0625, more than any grid has",
        _lq(kind="variational", options=_VARIATIONAL)),
}


# a spelling the schema admits, and the plain document it must run exactly as
_SAME_RUN_PROBES = {
    # only 'weights' and 'chattering' controls read a 'weights' field
    "uniform-stray-weights": (
        _lq(kind="cost", control={"type": "uniform", "weights": [[1.0]]}),
        _lq(kind="cost", control={"type": "uniform"})),
    # the schema takes 16.0 as an integer
    "n-steps-float": (
        _lq(kind="cost", grid={"T": 1.0, "n_steps": 16.0}, control={"type": "uniform"}),
        _lq(kind="cost", grid={"T": 1.0, "n_steps": 16}, control={"type": "uniform"})),
    "count-float": (
        _lq(kind="cost", scenarios={"strategy": "random", "count": 3.0, "seed": 1}),
        _lq(kind="cost", scenarios={"strategy": "random", "count": 3, "seed": 1})),
    # so are the integer options and the entries of a ladder
    "n-blocks-float": (
        _lq(kind="mp-strict", options={"n_blocks": 4.0}),
        _lq(kind="mp-strict", options={"n_blocks": 4})),
    "n-list-float": (
        _lq(kind="bsde-stability", control={"type": "uniform"}, options={"n_list": [4.0, 16]}),
        _lq(kind="bsde-stability", control={"type": "uniform"}, options={"n_list": [4, 16]})),
}


@pytest.mark.parametrize("variant, plain", list(_SAME_RUN_PROBES.values()),
                         ids=list(_SAME_RUN_PROBES))
def test_admitted_spelling_runs_as_plain_document(variant, plain, tmp_path):
    assert validate_document(variant) == []
    ran = run_document(variant, output_dir=tmp_path / "variant")
    expected = run_document(plain, output_dir=tmp_path / "plain")
    assert dict(ran.manifest.files) == dict(expected.manifest.files)


@pytest.mark.parametrize(
    "bad, violation, good",
    _PRECONDITION_PROBES + list(_DEFAULT_OPTION_PROBES.values())
    + list(_VALIDATE_GAP_PROBES.values()),
    ids=[p[1].split(":")[0] for p in _PRECONDITION_PROBES] + list(_DEFAULT_OPTION_PROBES)
    + list(_VALIDATE_GAP_PROBES),
)
def test_run_preconditions_are_violations(bad, violation, good, tmp_path):
    assert validate_document(bad) == [violation]
    with pytest.raises(ValueError, match="invalid configuration"):
        run_document(bad, output_dir=tmp_path / "bad")
    assert validate_document(good) == []
    run_document(good, output_dir=tmp_path / "good")


# ---------------------------------------------------------------------------
# artifacts frozen across changes
# ---------------------------------------------------------------------------

_FROZEN_BASE = {
    "model": {"name": "linear_jump_lq", "params": {"f2": 0.1}},
    "grid": {"T": 1.0, "n_steps": 16},
    "bounds": {"sigma_low": 1.0, "sigma_high": 4.0},
    "scenarios": {"strategy": "corners", "blocks": 2},
    "marks": {"values": [-0.4, 0.6], "intensities": [0.7, 0.3]},
    "actions": [-1.0, 0.0, 1.0],
    "n_paths": 64,
    "seed": 7,
    "x0": 1.0,
}

_FROZEN = {
    "simulate": (
        {"kind": "simulate", "control": {"type": "indices", "indices": [0, 2, 1, 1] * 4}},
        {
            "plot_state_mean_s0.csv":
                "7406318b634420ef63be1a5a86d505b60f860d25be7c0b3c958620fc29f9dc52",
            "plot_state_mean_s1.csv":
                "cb4e5dd80726a09e98202e0f1e1f1e51cf2ac3334ee57c0b769f4d88cec287d5",
            "plot_state_mean_s2.csv":
                "9c0ce62fc02eddb28eea8f7a47f4dbd4cd710cecdf56848064108cbf641e8c64",
            "plot_state_mean_s3.csv":
                "e43aac15c3e3fb3ad1a5a2d71fbeaf391215ac85abd2ad3e4b17e0001e224f95",
            "states.csv":
                "81f3a7849d11da8690b4965655e8a83ecc9c8f95d599fdc478c97c67f7cddea2",
            "summary.json":
                "c1fed622e3e5c8d4b3f405b8f057fe7ae6e4a10b8e0841dab4201c4b34a40e54",
        },
    ),
    "cost": (
        {"kind": "cost", "control": {"type": "bruteforce", "candidates": [
            {"type": "constant", "index": 0}, {"type": "constant", "index": 2},
            {"type": "uniform"}]}},
        {
            "candidates.csv":
                "fbea4e586f3a0f64b7122a5edc3039495390775caf7d5dd804e1a7c95dd3c163",
            "cost.csv":
                "27f418f53f74b299f2352df14d5808e2e9214586461c3593f88c4fe110a9c86d",
            "plot_candidate_values.csv":
                "522b8fd77c946c2ab41a25fecabf317fc5677e4a898d67a9f06e4d785ae9a00a",
            "summary.json":
                "414df770055fc4d2ae9988bd56f7202af8fed03a5aad2960f03168683896b74c",
        },
    ),
    "chattering": (
        {"kind": "chattering", "control": {"type": "uniform"},
         "options": {"n_list": [2, 4, 8]}},
        {
            "chattering.csv":
                "42da4f7e1cac3ed87604708675904db866aa02678c2e6f2177569ab23b98247d",
            "plot_cost_gap.csv":
                "003ed4c33e8a09c45043f893c0ad5b49828da37aa7860fe1ec0d9605534e7232",
            "plot_msq_gap.csv":
                "19ddfe11f7b3cfabdf51672da78b7b84baa563489883d1b2838037111f85f121",
            "summary.json":
                "32395bf1afeac34b5c9f1937c72a0e14f291b36430ce2f051cb12aa19424858c",
        },
    ),
    "variational": (
        {"kind": "variational", "control": {"type": "constant", "index": 1},
         "options": {"action_index": 2, "t0": 0.25, "h_list": [0.25, 0.125, 0.0625]}},
        {
            "derivative.csv":
                "df011ebf8393356d20ab06318ab4d81a6329dae5027d1515c922b188869b83da",
            "plot_fd_slope.csv":
                "cd195e1092d1a1f6ab50b1d2ff952655be64313812fe16e356ef5d0609303587",
            "plot_quotient_gap.csv":
                "7578958b95593afad645598a0423f57923a4e6f8e415fcd5ee65d3a4f49be0d8",
            "quotient_gaps.csv":
                "c1604c21e18f8708769f7bbaddf292822a30f1be1f3e717296622fa0a6f3a552",
            "summary.json":
                "534d43fa568e7df3d1f975b3a79a06981a947ba2e81bb4be4c1a2fdcfdeb6839",
        },
    ),
}


@pytest.mark.parametrize("kind", sorted(_FROZEN))
@pytest.mark.parametrize("threads", [1, 3])
def test_artifact_digests_are_frozen(kind, threads, tmp_path):
    # sha256 of every artifact, recorded before the drivers were shared
    # across controls; the least-squares kinds are left out so the pins
    # do not depend on the BLAS build
    extra, digests = _FROZEN[kind]
    res = run_document({**_FROZEN_BASE, **extra}, output_dir=tmp_path, threads=threads)
    assert dict(res.manifest.files) == digests


# mp-near's measured epsilon_n (float.hex), jepsilon_ok and n_candidates with
# epsilon_n measured and given; they read path costs only, so unlike the
# table they do not depend on the BLAS build
_FROZEN_NEAR = {
    None: ("0x1.0c10a4a87a688p+3", True, 9),
    0.25: ("0x1.0000000000000p-2", False, 9),
}


@pytest.mark.parametrize("epsilon_n", [None, 0.25])
def test_near_optimal_allowance_is_frozen(epsilon_n, tmp_path):
    options = {"n_blocks": 4, "C": 1.0, "candidates": [{"type": "constant", "index": 0}]}
    if epsilon_n is not None:
        options["epsilon_n"] = epsilon_n
    res = run_document({**_FROZEN_BASE, "kind": "mp-near",
                        "control": {"type": "constant", "index": 1}, "options": options},
                       output_dir=tmp_path)
    m = res.summary["metrics"]
    assert (m["epsilon_n"].hex(), m["jepsilon_ok"], m["n_candidates"]) == _FROZEN_NEAR[epsilon_n]
