"""gcontrol benchmark: one workload, measured from outside the package.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload forward-sweep --seed 1 --seconds 50 --trace 0

Every pass runs the workload's config documents through
``gcontrol.experiments.run_document`` in a fresh child interpreter that
imports gcontrol from ``src/``. Set-up (interpreter start, import, first
``build_experiment``) is also timed in set-up-only children between passes.
With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics of traced passes,
measured beside untraced ones so the tracing overhead shows.

Every config run is checked (no exception, manifest digests, the
summary key set, exact oracles for constant cost candidates) and its
digests must repeat in every pass; ``failed`` counts the runs that did
not pass. BLAS is pinned to one thread per child.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from workloads import WORKLOADS, workload  # noqa: E402  (script directory is on sys.path)
from tracer import STAGES, WRAP_POINTS  # noqa: E402

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES_PER_PASS = 4  # set-up-only children before each pass
CHILD_TIMEOUT_S = 150

# Passes every run makes, whatever --seconds says; more follow until
# --seconds is used up.
MIN_PASSES = {0: ("plain", "plain"), 1: ("trace", "plain", "memory")}
NEXT_PASS = {0: ("plain",), 1: ("trace", "plain")}

# Stages that must record at least one call on each workload.
_NOT_ON_ADJOINT = {"cost", "variational.z"}
EXPECTED_STAGES = {
    "forward-sweep": set(STAGES),
    "adjoint-tables": set(STAGES) - _NOT_ON_ADJOINT,
    "many-small": set(STAGES),
}

# Layer groups whose shares of the traced pass the workloads were chosen for.
GROUPS = {
    "sampling+kernel": ("sample.brownian", "sample.jumps", "sample.tags", "counts",
                        "simulate"),
    "adjoint+flow+regress": ("adjoint", "flow", "regress.state", "regress.increment"),
    "tables": ("tables", "tables.f_term"),
    "cost": ("cost",),
    "variational.z": ("variational.z",),
    "experiments": ("validate", "build", "emit", "kind"),
}

E2E_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

# (name, unit) of every per-layer metric. Stage self times that are zero
# by construction on some workload (cost, variational.z, single kinds)
# are printed in the trace table instead.
LAYER_METRICS = (
    [(f"{s}.s", "s") for s in ("sample.brownian", "sample.jumps", "sample.tags", "counts",
                               "simulate", "flow", "adjoint", "regress.state",
                               "regress.increment", "tables", "tables.f_term",
                               "validate", "build", "emit", "kind")]
    + [(f"{s}.calls", "count") for s in ("sample.brownian", "sample.jumps",
                                          "sample.tags", "counts", "simulate", "cost",
                                          "flow", "variational.z", "adjoint",
                                          "regress.state", "regress.increment",
                                          "tables", "tables.f_term")]
    + [("jumps.events", "count"), ("simulate.distinct", "count"),
       ("simulate.path_steps", "count"), ("emit.bytes", "bytes"),
       ("simulate.calls_per_distinct", "ratio"),
       ("sample.brownian.calls_per_seed", "ratio"),
       ("adjoint.peak_mib", "MiB"), ("adjoint.peak_over_state", "ratio"),
       ("untraced_remainder.s", "s"), ("trace.overhead_s", "s")]
)

# Work counts that must repeat exactly across the traced passes of a run.
REPEATING = ("jumps.events", "simulate.distinct", "simulate.path_steps",
             "sample.brownian.seeds")


class HarnessError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(job: dict, work: Path, tag: str) -> dict:
    """Run one child to completion; its result plus the measured ``setup_s``."""
    job_path = work / f"{tag}.json"
    job_path.write_text(json.dumps(job))
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(job_path)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{tag}: child exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise HarnessError(f"{tag}: child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    res = json.loads(proc.stdout.splitlines()[-1])
    res["setup_s"] = res["ready"] - start
    return res


def _median(values):
    return statistics.median(values) if values else float("nan")


def _load_baseline_digests(name: str, seed: int):
    path = HERE / "baseline.json"
    if not path.is_file():
        return None
    runs = json.loads(path.read_text()).get("digests", {}).get(name, {})
    return runs.get(str(seed))


def measure(name: str, seed: int, seconds: float, trace: int, work: Path) -> dict:
    docs, threads = workload(name, seed)
    job = {"docs": docs, "threads": threads, "src": str(ROOT / "src"), "mode": "setup",
           "out_dir": ""}
    run_child(job, work, "warmup")  # bytecode and page caches, not timed

    begin = time.perf_counter()
    setups: list[float] = []
    passes: list[tuple[str, dict]] = []
    walls: list[float] = []
    while True:
        i = len(passes)
        minimum = MIN_PASSES[trace]
        if i < len(minimum):
            mode = minimum[i]
        else:
            cycle = NEXT_PASS[trace]
            mode = cycle[(i - len(minimum)) % len(cycle)]
            # stop when the next pass would end more than half a pass late
            if time.perf_counter() - begin + _median(walls) / 2 > seconds:
                break
        started = time.perf_counter()
        setups.extend(run_child(job, work, f"setup{i}.{j}")["setup_s"]
                      for j in range(SETUP_PROBES_PER_PASS))
        out_dir = work / f"pass{i}"
        res = run_child(dict(job, mode=mode, out_dir=str(out_dir)), work, f"pass{i}")
        walls.append(time.perf_counter() - started)
        shutil.rmtree(out_dir, ignore_errors=True)
        passes.append((mode, res))
        setups.append(res["setup_s"])

    return summarize(name, seed, trace, docs, threads, setups, passes)


def _check_runs(docs, passes) -> tuple[int, int, list[str], list]:
    """attempted, failed, problem lines, and one digest fingerprint per config.

    A fingerprint is the sha256 of the config's manifest ``files`` map.
    """
    reference = [None] * len(docs)
    attempted = failed = 0
    problems: list[str] = []
    for p, (mode, res) in enumerate(passes):
        for c, entry in enumerate(res["configs"]):
            attempted += 1
            issues = list(entry["problems"])
            digests = entry["digests"]
            if digests is not None:
                if reference[c] is None:
                    reference[c] = digests
                elif digests != reference[c]:
                    issues.append("digests differ from an earlier pass of this config")
            if issues:
                failed += 1
                problems.extend(f"pass {p} ({mode}) config {c} ({docs[c]['kind']}): {m}"
                                for m in issues)
    fingerprints = [None if d is None else
                    hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()
                    for d in reference]
    return attempted, failed, problems, fingerprints


def _trace_metrics(name: str, passes) -> tuple[dict, dict, list[str]]:
    traced = [res for mode, res in passes if mode == "trace"]
    memory = [res for mode, res in passes if mode == "memory"]
    problems: list[str] = []

    def stage_self(res, stage):
        return sum(v for k, v in res["trace"]["self_s"].items()
                   if k == stage or (stage == "kind" and k.startswith("kind.")))

    stages = set(STAGES) | {"kind"} | {k for r in traced for k in r["trace"]["self_s"]}
    self_s = {s: _median([stage_self(r, s) for r in traced]) for s in sorted(stages)}
    first = traced[0]["trace"]
    calls = {s: first["calls"].get(s, 0) for s in stages}
    counters = dict(first["counters"])
    for res in traced[1:] + memory:
        tr = res["trace"]
        if tr["calls"] != first["calls"]:
            problems.append("stage call counts differ between traced passes")
        for key in REPEATING:
            if tr["counters"].get(key) != counters.get(key):
                problems.append(f"{key} differs between traced passes")
    for res in traced + memory:
        if res["unwrapped"]:
            problems.append(f"wrap points not rebound: {res['unwrapped']}")
    missing = first["missing"]
    gone = {stage for mod, fn, stage, _ in WRAP_POINTS if f"{mod}.{fn}" in missing}
    for stage in sorted(EXPECTED_STAGES[name] - gone):
        if calls.get(stage, 0) < 1:
            problems.append(f"stage {stage} recorded no call on {name}")

    traced_run = _median([r["run_s"] for r in traced])
    remainder = _median([r["run_s"] - sum(r["trace"]["self_s"].values()) for r in traced])
    m = {f"{s}.s": self_s[s] for s in self_s}
    m.update({f"{s}.calls": calls[s] for s in calls})
    m.update({k: counters.get(k, 0) for k in ("jumps.events", "simulate.distinct",
                                              "simulate.path_steps")})
    m["emit.bytes"] = sum(c["bytes"] for c in traced[0]["configs"])
    m["simulate.calls_per_distinct"] = calls["simulate"] / max(1, counters["simulate.distinct"])
    m["sample.brownian.calls_per_seed"] = (
        calls["sample.brownian"] / max(1, counters["sample.brownian.seeds"]))
    mem = memory[0]["trace"]["counters"]
    m["adjoint.peak_mib"] = mem.get("adjoint.peak_mib", 0.0)
    m["adjoint.peak_over_state"] = mem.get("adjoint.peak_over_state", 0.0)
    m["untraced_remainder.s"] = remainder
    # each traced pass against the untraced pass right after it, so that
    # drift in CPU speed between distant passes cancels
    m["trace.overhead_s"] = _median([
        res["run_s"] - passes[i + 1][1]["run_s"]
        for i, (mode, res) in enumerate(passes[:-1])
        if mode == "trace" and passes[i + 1][0] == "plain"])

    shares = {g: sum(self_s.get(s, 0.0) for s in members) / traced_run
              for g, members in GROUPS.items()}
    shares["untraced_remainder"] = remainder / traced_run
    per_kind = first["per_kind"]
    for row in per_kind.values():
        row["simulate.calls_per_distinct"] = (
            row.get("simulate.calls", 0) / max(1, row.get("simulate.distinct", 0)))
        row["sample.brownian.calls_per_seed"] = (
            row.get("sample.brownian.calls", 0) / max(1, row.get("sample.brownian.seeds", 0)))
    table = {"traced_run_s": traced_run, "self_s": self_s, "calls": calls,
             "shares": shares, "per_kind": per_kind, "missing": missing}
    return m, table, problems


def summarize(name, seed, trace, docs, threads, setups, passes) -> dict:
    attempted, failed, problems, reference = _check_runs(docs, passes)
    plain = [res for mode, res in passes if mode == "plain"]
    e2e = {
        "run_s": _median([r["run_s"] for r in plain]),
        "setup_s": _median(setups),
        "peak_rss_mib": _median([r["maxrss_mib"] for r in plain]),
    }
    out = {
        "workload": name, "seed": seed, "threads": threads,
        "passes": [mode for mode, _ in passes], "setup_samples": len(setups),
        "attempted": attempted, "failed": failed, "problems": problems,
        "end_to_end": e2e, "digests": reference,
    }
    baseline = _load_baseline_digests(name, seed)
    out["digest_drift"] = (None if baseline is None
                           else sum(a != b for a, b in zip(reference, baseline)))
    if trace:
        layer, table, trace_problems = _trace_metrics(name, passes)
        out["per_layer"] = layer
        out["trace_table"] = table
        out["trace_problems"] = trace_problems
    return out


def _print_report(res: dict, trace: int) -> None:
    name = res["workload"]
    print(f"workload {name} (seed {res['seed']}, threads {res['threads']}): "
          f"{len(res['passes'])} passes {res['passes']}, "
          f"{res['attempted']} config runs, {res['failed']} failed, "
          f"error_rate {res['failed'] / max(1, res['attempted']):.4f}")
    for key, value in res["end_to_end"].items():
        print(f"  {key:<14} {value:12.4f} {E2E_UNITS[key]}")
    drift = res["digest_drift"]
    print("  digest drift vs baseline: "
          + ("no baseline for this seed" if drift is None
             else f"{drift} of {len(res['digests'])} configs"))
    for line in res["problems"][:20]:
        print(f"  FAILED {line}")
    if trace:
        table = res["trace_table"]
        print(f"  traced pass {table['traced_run_s']:.4f} s; stage self time and calls:")
        for stage, sec in sorted(table["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {stage:<22} {sec:10.4f} s {sec / table['traced_run_s']:7.1%}"
                  f" {table['calls'].get(stage, 0):8d}")
        for kind, row in sorted(table["per_kind"].items()):
            print(f"    {kind:<15} simulate calls/distinct "
                  f"{row['simulate.calls_per_distinct']:.2f}, brownian calls/seed "
                  f"{row['sample.brownian.calls_per_seed']:.2f}")
        print("  layer shares: " + ", ".join(
            f"{g} {v:.1%}" for g, v in table["shares"].items()))
        for point in table["missing"]:
            print(f"  wrap point {point} no longer exists; its stage is not fully measured")
        for line in res["trace_problems"]:
            print(f"  TRACER {line}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--detail", help="also write the full result as JSON to this file")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gcontrol" / "__init__.py").is_file():
        print(f"no gcontrol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        res = measure(args.workload, args.seed, args.seconds, args.trace, work)
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if args.detail:
        Path(args.detail).write_text(json.dumps(res, indent=1, sort_keys=True))

    _print_report(res, args.trace)
    if args.trace:
        metrics = {n: {"value": res["per_layer"][n], "unit": u} for n, u in LAYER_METRICS}
        correct = res["failed"] == 0 and not res["trace_problems"]
    else:
        metrics = {n: {"value": v, "unit": E2E_UNITS[n]} for n, v in res["end_to_end"].items()}
        correct = res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
