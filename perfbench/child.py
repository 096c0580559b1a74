"""One measured pass, run in a fresh interpreter the way `gcontrol run` is.

Usage: ``python3 perfbench/child.py JOB.json`` with ``PYTHONPATH`` set to
the checkout's ``src``. The job names the config documents, the
``threads`` value, an output directory and a mode:

- ``setup``: import gcontrol, build the first config, report, exit;
- ``plain``: also run every config through ``run_document``, untraced;
- ``trace``: the same with the span recorder installed;
- ``memory``: the same plus a tracemalloc peak inside every adjoint span
  (its timings are not used).

The last stdout line is one JSON object. ``ready`` is the
``time.perf_counter`` value (CLOCK_MONOTONIC, shared with the parent)
when set-up finished; ``run_s`` covers the configs only. Correctness
checks run after the timed pass and do not count toward it.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SUMMARY_KEYS = {"kind", "model", "seed", "n_paths", "verdict", "metrics", "files"}

# Metrics every summary must carry; later changes may add more.
METRIC_KEYS = {
    "simulate": {"n_scenarios", "terminal_upper_mean"},
    "cost": {"best_index", "best_value"},
    "chattering": {"msq_nonincreasing", "cost_nonincreasing", "fitted_C",
                   "j_relaxed", "min_chattering_j"},
    "variational": {"formula", "formula_stderr", "fd_at_min_h", "gap_at_min_h"},
    "mp-strict": {"worst_entry", "worst_block", "worst_action", "hypothesis"},
    "mp-relaxed": {"worst_entry", "worst_block", "worst_action", "hypothesis"},
    "mp-near": {"worst_entry", "worst_block", "worst_action", "hypothesis",
                "epsilon_n", "C", "C_min", "jepsilon_ok", "n_candidates"},
    "bsde-stability": {"p_nonincreasing", "q_nonincreasing", "r_nonincreasing"},
}

# A constant-control candidate's worst-scenario mean must lie within this
# many standard errors (the largest per-scenario one) of the exact
# Euler-chain oracle.
ORACLE_Z = 4.0


def _oracle_problems(doc: dict, out: Path) -> list[str]:
    """Constant brute-force candidates against ``lq_cost_discrete``."""
    import numpy as np
    from gcontrol.experiments import build_experiment
    from gcontrol.models import lq_cost_discrete

    cfg = build_experiment(doc)
    rows = (out / "candidates.csv").read_text().splitlines()[1:]
    a_paths = cfg.family.scalar_values()
    problems = []
    for spec, row in zip(doc["control"]["candidates"], rows):
        if spec["type"] != "constant":
            continue
        _, upper, stderr = (float(v) for v in row.split(","))
        u = np.full(cfg.grid.n_steps, float(cfg.actions.actions[spec["index"]]))
        oracle = max(
            lq_cost_discrete(cfg.model.params, cfg.grid, cfg.x0, u, u * u, a, cfg.marks)
            for a in a_paths
        )
        if abs(upper - oracle) > ORACLE_Z * stderr:
            problems.append(
                f"candidate {spec}: upper_value {upper!r} is more than {ORACLE_Z} stderr"
                f" ({stderr!r}) from the exact chain value {oracle!r}"
            )
    return problems


def check_outputs(doc: dict, out: Path) -> tuple[list[str], dict, int]:
    """Problems found, the manifest digests, and the bytes written."""
    manifest = json.loads((out / "manifest.json").read_text())
    digests = manifest["files"]
    problems = []
    written = 0
    for name, digest in digests.items():
        data = (out / name).read_bytes()
        written += len(data)
        if hashlib.sha256(data).hexdigest() != digest:
            problems.append(f"{name}: content does not match its manifest digest")
    summary = json.loads((out / "summary.json").read_text())
    if set(summary) != SUMMARY_KEYS:
        problems.append(f"summary.json keys {sorted(summary)} != {sorted(SUMMARY_KEYS)}")
    else:
        missing = METRIC_KEYS[doc["kind"]] - set(summary["metrics"])
        if missing:
            problems.append(f"summary.json metrics lack {sorted(missing)}")
        if summary["verdict"] not in ("pass", "fail", "none"):
            problems.append(f"summary.json verdict {summary['verdict']!r}")
        if set(summary["files"]) | {"summary.json"} != set(digests):
            problems.append("summary.json files disagree with the manifest")
    if doc["kind"] == "cost" and doc["control"]["type"] == "bruteforce":
        problems.extend(_oracle_problems(doc, out))
    return problems, digests, written


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    docs, mode = job["docs"], job["mode"]

    import gcontrol
    import gcontrol.experiments as experiments

    if not Path(gcontrol.__file__).resolve().is_relative_to(Path(job["src"]).resolve()):
        print(f"gcontrol imported from {gcontrol.__file__}, not from {job['src']}",
              file=sys.stderr)
        return 3
    experiments.build_experiment(docs[0])
    ready = time.perf_counter()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if mode in ("trace", "memory"):
        from tracer import Tracer

        tracer = Tracer(adjoint_memory=(mode == "memory"))
        tracer.install()
        tracer.reset()

    out_root = Path(job["out_dir"])
    errors: list[str | None] = []
    start = time.perf_counter()
    for i, doc in enumerate(docs):
        try:
            experiments.run_document(doc, output_dir=out_root / str(i), threads=job["threads"])
            errors.append(None)
        except Exception:  # a failed config is counted, the pass goes on
            errors.append(traceback.format_exc())
    run_s = time.perf_counter() - start
    maxrss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    trace = None if tracer is None else tracer.report()

    configs = []
    for i, (doc, err) in enumerate(zip(docs, errors)):
        entry = {"kind": doc["kind"], "problems": [], "digests": None, "bytes": 0}
        if err is not None:
            entry["problems"].append(f"raised:\n{err}")
        else:
            try:
                entry["problems"], entry["digests"], entry["bytes"] = check_outputs(
                    doc, out_root / str(i)
                )
            except (OSError, ValueError, KeyError) as exc:
                entry["problems"].append(f"unreadable output: {exc!r}")
        configs.append(entry)

    result = {"ready": ready, "run_s": run_s, "maxrss_mib": maxrss_mib,
              "configs": configs}
    if tracer is not None:
        result["trace"] = trace
        result["unwrapped"] = tracer.unwrapped_references()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
