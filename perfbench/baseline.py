"""Run the benchmark over many seeds and record the result in baseline.json.

Usage (from the root of a checkout)::

    python3 perfbench/baseline.py --label "src/ at commit abc1234"

For every workload it makes one untraced run per seed (1..10) and one
traced run, each ``run_seconds`` (BENCHMARK.json) long, then writes the
end-to-end medians with their quartiles and spread (interquartile range
over median, as the acceptance rule reads it), the traced per-layer
table with layer shares, the digest fingerprints per seed, and the
environment. This file is the committed before/after record that
ROADMAP item 1 calls ``BENCH_*.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from run import BLAS_ENV, GROUPS  # noqa: E402  (script directory is on sys.path)
from workloads import LARGE, SMALL, SMALL_SEEDS, WORKLOADS, nproc, workload  # noqa: E402

SEEDS = range(1, 11)

# The largest layer-group share each workload was chosen for.
PREDICTED_LARGEST = {
    "forward-sweep": "sampling+kernel",
    "adjoint-tables": "adjoint+flow+regress",
}

NOTE = ("Before/after record for the benchmark that BENCHMARK.json defines "
        "(ROADMAP item 1's BENCH_*.json). Spread is (q3 - q1) / median over the "
        "untraced runs, one per seed; per_layer and trace_table come from one "
        "traced run on seed 1.")

# Hand-measured figures from ROADMAP.md (K=256, P=10000), kept beside the
# baseline for reference only; they are not bounds.
ROADMAP_REFERENCE = {
    "size": {"n_steps": 256, "n_paths": 10000},
    "simulate_strict_s": 0.85, "simulate_relaxed_s": 2.2, "solve_fundamental_s": 2.3,
    "adjoint_core_s": 9.8, "mp_check_strict_s": 13.3, "mp_check_strict_peak_rss_gib": 1.84,
    "state_array_mib": 78,
}


def _one(workload_name: str, seed: int, seconds: int, trace: int, detail: Path) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload_name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--detail", str(detail)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(proc.stdout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    out = json.loads(detail.read_text())
    out["last_line"] = json.loads(proc.stdout.splitlines()[-1])
    return out


def _stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "blas_threads_env": BLAS_ENV,
    }


def _sizes(name: str) -> dict:
    docs, threads = workload(name, 0)
    size = SMALL if name == "many-small" else LARGE
    out = {"threads": threads, "kinds": [d["kind"] for d in docs], **size}
    if name == "many-small":
        out["seeds_per_pass"] = SMALL_SEEDS
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    ap.add_argument("--label", default="", help="what was measured, e.g. a commit")
    args = ap.parse_args(argv)

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    work = ROOT / ".perfbench_work" / f"baseline-{os.getpid()}"
    work.mkdir(parents=True)
    detail = work / "detail.json"
    result = {"note": NOTE, "label": args.label,
              "environment": _environment(), "seconds": seconds,
              "roadmap_reference": ROADMAP_REFERENCE, "workloads": {}, "digests": {}}
    try:
        for name in WORKLOADS:
            runs = [_one(name, seed, seconds, 0, detail) for seed in SEEDS]
            traced = _one(name, 1, seconds, 1, detail)
            e2e = {m: _stats([r["end_to_end"][m] for r in runs])
                   for m in runs[0]["end_to_end"]}
            table = traced["trace_table"]
            shares = table["shares"]
            largest = max(GROUPS, key=lambda g: shares[g])
            entry = {
                **_sizes(name),
                "end_to_end": e2e,
                "failed": sum(r["failed"] for r in runs + [traced]),
                "attempted": sum(r["attempted"] for r in runs + [traced]),
                "per_layer": traced["per_layer"],
                "trace_table": table,
                "trace_problems": traced["trace_problems"],
                "largest_share": largest,
            }
            if name in PREDICTED_LARGEST:
                entry["predicted_largest_share"] = PREDICTED_LARGEST[name]
                entry["prediction_holds"] = largest == PREDICTED_LARGEST[name]
            result["workloads"][name] = entry
            result["digests"][name] = {str(r["seed"]): r["digests"] for r in runs}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    for name, entry in result["workloads"].items():
        print(name, {m: f"median {s['median']:.4f} spread {s['spread']:.4f}"
                     for m, s in entry["end_to_end"].items()},
              f"largest share {entry['largest_share']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
