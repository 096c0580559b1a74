"""Exit codes and printed output of the gcontrol command line.

The contract: run returns 0 on pass or none, 2 when an experiment's own
verdict is fail, 1 on any error (unreadable config, validation
violations, module exceptions).  validate returns 0 or 1 and prints one
violation per line.
"""

import json
import subprocess
import sys

import pytest

from gcontrol.cli import main
from gcontrol.models import MODEL_BUILDERS


def _doc(**over):
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


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _mp_doc(index):
    return _doc(
        kind="mp-strict",
        model={"name": "linear_jump_lq", "params": {
            "b1": 0.0, "b2": 0.0, "s0": 0.4, "s1": 0.0, "c1": 0.0,
            "c2": 0.5, "f1": 0.0, "f2": 0.025, "h1": 0.0, "h2": 0.0,
            "gq": 0.5}},
        grid={"T": 1.0, "n_steps": 64},
        marks={"values": [-0.5, 0.8], "intensities": [0.6, 0.4]},
        control={"type": "constant", "index": index},
        n_paths=400,
        seed=21,
        x0=2.5,
        options={"n_blocks": 2},
    )


def test_list_models_prints_registry(capsys):
    assert main(["list-models"]) == 0
    out = capsys.readouterr().out
    for name in MODEL_BUILDERS:
        assert name in out
    assert out.splitlines() == sorted(out.splitlines())


def test_run_wellformed_config_returns_zero(tmp_path, capsys):
    path = _write(tmp_path, _doc(output_dir=str(tmp_path / "out")))
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "verdict: none" in out
    assert "wrote" in out
    assert (tmp_path / "out" / "summary.json").exists()


def test_run_failing_verdict_returns_two(tmp_path, capsys):
    path = _write(tmp_path, _mp_doc(index=1))
    rc = main(["run", path, "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "verdict: fail" in capsys.readouterr().out


def test_run_passing_verdict_returns_zero(tmp_path, capsys):
    path = _write(tmp_path, _mp_doc(index=0))
    rc = main(["run", path, "--output-dir", str(tmp_path / "out"),
               "--threads", "2"])
    assert rc == 0
    assert "verdict: pass" in capsys.readouterr().out


def test_validate_clean_config(tmp_path, capsys):
    path = _write(tmp_path, _doc())
    assert main(["validate", path]) == 0
    assert "configuration is valid" in capsys.readouterr().out


def test_validate_lists_every_schema_violation(tmp_path, capsys):
    # the semantic pass waits until the document is schema-clean, so the
    # unknown model name does not show up alongside these two
    doc = _doc(model={"name": "nope"}, n_paths=-5)
    del doc["seed"]
    path = _write(tmp_path, doc)
    assert main(["validate", path]) == 1
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines == [
        "$: 'seed' is a required property",
        "$.n_paths: -5 is less than the minimum of 1",
    ]
    assert "2 violation(s)" in captured.err


def test_run_invalid_config_returns_one(tmp_path, capsys):
    doc = _doc()
    del doc["seed"]
    path = _write(tmp_path, doc)
    assert main(["run", path]) == 1
    assert "'seed' is a required property" in capsys.readouterr().err


def test_missing_config_file_returns_one(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_non_object_config_returns_one(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[]")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("literal, message", [
    ("NaN", "NaN is not a JSON number"),
    # a literal that overflows a float would load as inf
    ("1e400", "1e400 is not a finite number"),
])
def test_non_standard_json_constant_is_refused(tmp_path, capsys, command, literal, message):
    path = tmp_path / "nan.json"
    text = json.dumps(_doc(x0=123.25))
    assert text.count("123.25") == 1
    path.write_text(text.replace("123.25", literal))
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


@pytest.mark.filterwarnings("ignore:overflow")
def test_module_error_surfaces_as_error_line(tmp_path, capsys):
    # a valid config whose scheme diverges: the kernel's FloatingPointError
    doc = _doc(model={"name": "bilinear", "params": {"th1": 1e160}})
    path = _write(tmp_path, doc)
    assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "non-finite state after step 1 under scenario 0 of control 0" in err


def test_misaligned_spike_is_a_violation_not_a_module_error(tmp_path, capsys):
    doc = _doc(
        kind="variational",
        model={"name": "linear_jump_lq"},
        options={"action_index": 1, "t0": 0.25, "h_list": [0.125, 0.07]},
    )
    path = _write(tmp_path, doc)
    assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "$.options.h_list[1]: 0.07 is not a multiple of dt = 0.0625\n"


def test_huge_spike_index_and_late_window_are_violations(tmp_path, capsys):
    # an index beyond int64 and a window past T are listed, not raised
    for options, line in [
        ({"action_index": 2**70, "t0": 0.25, "h_list": [0.125]},
         "$.options.action_index: index 1180591620717411303424 outside the 2-action grid"),
        ({"action_index": 1, "t0": 0.9375, "h_list": [0.125, 0.0625]},
         "$.options.h_list[0]: window [t0, t0 + 0.125) ends after T"),
    ]:
        path = _write(tmp_path, _doc(kind="variational", options=options))
        assert main(["validate", path]) == 1
        assert capsys.readouterr().out == f"{line}\n"


def test_seed_override_reaches_the_summary(tmp_path, capsys):
    path = _write(tmp_path, _doc())
    out_dir = tmp_path / "out"
    rc = main(["run", path, "--output-dir", str(out_dir),
               "--seed-override", "77"])
    assert rc == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["seed"] == 77


def test_out_of_range_seed_override_is_a_violation(tmp_path, capsys):
    path = _write(tmp_path, _doc())
    rc = main(["run", path, "--output-dir", str(tmp_path / "out"),
               "--seed-override", str(2**64)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "$.seed: 18446744073709551616 is greater than the maximum of 18446744073709551615\n")
    assert not (tmp_path / "out").exists()


def test_run_plans_the_document_once(tmp_path, monkeypatch):
    # one plan builds the model and checks its derivatives once
    from gcontrol import models

    calls = []
    check = models.check_derivatives

    def counted(model, *args, **kwargs):
        calls.append(model)
        return check(model, *args, **kwargs)

    monkeypatch.setattr(models, "check_derivatives", counted)
    path = _write(tmp_path, _doc(model={"name": "linear_jump_lq"}, actions=[-1.0, 0.0, 1.0]))
    assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_module_entry_point_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "gcontrol.cli", "list-models"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "linear_jump_lq" in proc.stdout


_REFUSE_IMPORTS = '''
import importlib.abc
import sys


class Refuse(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("jsonschema", "scipy"):
            raise ImportError(f"{name} is not a runtime dependency")
        return None


sys.meta_path.insert(0, Refuse())
'''


def test_validate_and_run_need_only_numpy(tmp_path):
    bad = _write(tmp_path, _doc(model={"name": "zero", "params": {"a b": "1"}}, n_paths=-5,
                                colour="red"), "bad.json")
    near = _doc(kind="mp-near", model={"name": "linear_jump_lq"}, actions=[-1.0, 0.0, 1.0],
                n_paths=64, options={"C": 1.0, "candidates": [{"type": "constant", "index": 2}]})
    code = _REFUSE_IMPORTS + f'''
from gcontrol.cli import main
from gcontrol.experiments import run_document

print("exit", main(["validate", {bad!r}]))
print("verdict", run_document({near!r}, output_dir={str(tmp_path / "near")!r}).verdict)
'''
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    *lines, verdict = proc.stdout.splitlines()
    assert lines == [
        "$: Additional properties are not allowed ('colour' was unexpected)",
        "$.model.params['a b']: '1' is not of type 'number'",
        "$.n_paths: -5 is less than the minimum of 1",
        "exit 1",
    ]
    assert verdict in ("verdict pass", "verdict fail")
