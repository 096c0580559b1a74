"""Batch experiment runner: one JSON config document in, CSV/JSON artifacts out.

A config names a model, a time grid, a scenario family, a mark space, an
action grid, a control, and an experiment kind. ``validate_document`` lists
every violation (schema first, then semantic checks); ``run_document``
dispatches to the corresponding module operation and writes CSV tables, a
JSON summary with a stable key set, plot-ready two-column series, and a
manifest with content digests. Everything numeric is determined by the
config alone, so rerunning a config reproduces the digests bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np
from jsonschema import Draft202012Validator

from . import __version__
from .adjoint import (
    bsde_stability_report,
    mp_check_near,
    mp_check_relaxed,
    mp_check_strict,
    mp_report_csv,
    stability_csv,
)
from .controls import (
    _WEIGHT_TOL,
    ActionGrid,
    RelaxedControl,
    StrictControl,
    chattering,
    constant_strict,
    uniform_relaxed,
)
from .costs import (
    chattering_csv,
    chattering_report,
    cost_report_csv,
    evaluate_cost,
    evaluate_costs,
)
from .jumps import POISSON_MEAN_MAX, MarkSpace, sample_drivers
from .models import MODEL_BUILDERS, MODEL_DEFAULTS, build_model, check_derivatives
from .scenarios import TimeGrid, VolatilityBounds, build_scenario_family
from .sde import ensemble_from_batch, simulate, simulate_batch
from .variational import (
    derivative_report_csv,
    difference_quotient_gap,
    gateaux_derivative,
    spike_controls,
)

SCHEMA: dict = json.loads(
    resources.files("gcontrol").joinpath("config_schema.json").read_text()
)
_VALIDATOR = Draft202012Validator(SCHEMA)

KINDS: tuple[str, ...] = tuple(SCHEMA["properties"]["kind"]["enum"])

_STRICT_TYPES = ("constant", "indices", "chattering")
_RELAXED_TYPES = ("uniform", "weights")

_OPTION_DEFAULTS: dict[str, dict[str, Any]] = {
    "simulate": {},
    "cost": {},
    "chattering": {"n_list": [4, 16, 64]},
    "variational": {},
    "mp-strict": {"n_blocks": 4, "slack_mult": 3.0, "basis_degree": 2},
    "mp-relaxed": {"n_blocks": 4, "slack_mult": 3.0, "basis_degree": 2},
    "mp-near": {
        "n_blocks": 4,
        "slack_mult": 3.0,
        "basis_degree": 2,
        "C": 0.0,
        "epsilon_n": None,
        "add_block_spikes": True,
        "candidates": [],
    },
    "bsde-stability": {"n_list": [4, 16, 64], "basis_degree": 2},
}

_ALLOWED_OPTIONS: dict[str, frozenset] = {
    kind: frozenset(defaults) for kind, defaults in _OPTION_DEFAULTS.items()
}
_ALLOWED_OPTIONS["variational"] = frozenset({"action_index", "t0", "h_list"})


# ---------------------------------------------------------------------------
# loading and validation
# ---------------------------------------------------------------------------


def load_config(path: str | Path) -> dict:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError("config document must be a JSON object")
    return doc


def validate_document(doc: Mapping) -> list[str]:
    """Every violation as ``path: message``, never just the first.

    Schema errors are reported alone when present; the semantic pass
    assumes a schema-shaped document.
    """
    errors = sorted(_VALIDATOR.iter_errors(doc), key=lambda e: (e.json_path, e.message))
    out = [f"{e.json_path}: {e.message}" for e in errors]
    if out:
        return out
    return _semantic_violations(doc)


def _check_control(spec, path, n_steps, n_actions, out, *, allow_bruteforce):
    ctype = spec["type"]
    if ctype == "constant":
        if "index" not in spec:
            out.append(f"{path}: control type 'constant' requires 'index'")
        elif spec["index"] >= n_actions:
            out.append(
                f"{path}.index: index {spec['index']} outside the {n_actions}-action grid"
            )
    elif ctype == "indices":
        if "indices" not in spec:
            out.append(f"{path}: control type 'indices' requires 'indices'")
        else:
            idx = spec["indices"]
            if len(idx) != n_steps:
                out.append(f"{path}.indices: expected {n_steps} entries, got {len(idx)}")
            bad = [i for i in idx if i >= n_actions]
            if bad:
                out.append(
                    f"{path}.indices: index {bad[0]} outside the {n_actions}-action grid"
                )
    elif ctype == "weights" or (ctype == "chattering" and "weights" in spec):
        if "weights" not in spec:
            out.append(f"{path}: control type 'weights' requires 'weights'")
        else:
            w = spec["weights"]
            if len(w) != n_steps:
                out.append(f"{path}.weights: expected {n_steps} rows, got {len(w)}")
            elif any(len(row) != n_actions for row in w):
                rows = sorted({len(row) for row in w})
                out.append(
                    f"{path}.weights: rows have {rows} entries for {n_actions} actions"
                )
            else:
                for i, row in enumerate(w):
                    if abs(sum(row) - 1.0) > _WEIGHT_TOL:
                        out.append(f"{path}.weights: row {i} sums to {sum(row)}, not 1")
                        break
    if ctype == "chattering":
        if "n" not in spec:
            out.append(f"{path}: control type 'chattering' requires 'n'")
        elif n_steps % spec["n"] != 0:
            out.append(f"{path}.n: {spec['n']} blocks do not divide n_steps {n_steps}")
    if ctype == "bruteforce":
        if not allow_bruteforce:
            out.append(f"{path}: 'bruteforce' control is only available for kind 'cost'")
        elif "candidates" not in spec:
            out.append(f"{path}: control type 'bruteforce' requires 'candidates'")
        else:
            for j, sub in enumerate(spec["candidates"]):
                sub_path = f"{path}.candidates[{j}]"
                if sub["type"] == "bruteforce":
                    out.append(f"{sub_path}: nested 'bruteforce' is not allowed")
                else:
                    _check_control(sub, sub_path, n_steps, n_actions, out,
                                   allow_bruteforce=False)


def _option_violations(doc: Mapping) -> list[str]:
    """Check the options a run would use: the kind's defaults overlaid by the document's."""
    out: list[str] = []
    kind = doc["kind"]
    given = doc.get("options", {})
    opts = {**_OPTION_DEFAULTS[kind], **given}
    allowed = _ALLOWED_OPTIONS[kind]
    for key in sorted(given):
        if key not in allowed:
            out.append(
                f"$.options.{key}: not an option of kind {kind!r}"
                f" (allowed: {sorted(allowed)})"
            )
        elif given[key] is None and _OPTION_DEFAULTS[kind].get(key, 0) is not None:
            out.append(f"$.options.{key}: null is not a value; leave the option out"
                       " to use its default")

    def _int(key, minimum=1):
        v = opts.get(key)
        if v is None:
            return
        if not isinstance(v, int) or isinstance(v, bool):
            out.append(f"$.options.{key}: expected an integer, got {v!r}")
        elif v < minimum:
            out.append(f"$.options.{key}: {v} is below the minimum {minimum}")

    def _num(key, minimum=None):
        v = opts.get(key)
        if v is None:
            return
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            out.append(f"$.options.{key}: expected a number, got {v!r}")
        elif minimum is not None and v < minimum:
            out.append(f"$.options.{key}: {v} is below the minimum {minimum}")

    def _int_list(key):
        v = opts.get(key)
        if v is None:
            return
        ok = (isinstance(v, list) and v
              and all(isinstance(n, int) and not isinstance(n, bool) and n >= 1
                      for n in v))
        if not ok:
            out.append(f"$.options.{key}: expected a list of positive integers, got {v!r}")
        elif any(b <= a for a, b in zip(v, v[1:])):
            out.append(f"$.options.{key}: entries must be strictly increasing, got {v}")

    n_steps = doc["grid"]["n_steps"]

    def _divides(n, key, where):
        if isinstance(n, int) and not isinstance(n, bool) and n >= 1 and n_steps % n:
            default = "" if key in given else "the default "
            out.append(f"$.options.{where}: {default}{n} blocks do not divide n_steps {n_steps}")

    if kind in ("chattering", "bsde-stability"):
        _int_list("n_list")
        v = opts.get("n_list")
        if isinstance(v, list):
            for j, n in enumerate(v):
                _divides(n, "n_list", f"n_list[{j}]")
    if kind in ("mp-strict", "mp-relaxed", "mp-near", "bsde-stability"):
        _int("basis_degree")
    if kind in ("mp-strict", "mp-relaxed", "mp-near"):
        _int("n_blocks")
        _divides(opts.get("n_blocks"), "n_blocks", "n_blocks")
        _num("slack_mult", minimum=0.0)
    if kind == "mp-near":
        _num("C", minimum=0.0)
        _num("epsilon_n", minimum=0.0)
        if "add_block_spikes" in opts and not isinstance(opts["add_block_spikes"], bool):
            out.append(
                f"$.options.add_block_spikes: expected a boolean,"
                f" got {opts['add_block_spikes']!r}"
            )
        for j, sub in enumerate(opts.get("candidates") or []):
            sub_path = f"$.options.candidates[{j}]"
            if not isinstance(sub, dict) or sub.get("type") not in _STRICT_TYPES:
                out.append(f"{sub_path}: expected a strict control spec"
                           f" (one of {_STRICT_TYPES})")
            else:
                _check_control(sub, sub_path, doc["grid"]["n_steps"],
                               len(doc["actions"]), out, allow_bruteforce=False)
    if kind == "variational":
        for key in ("action_index", "t0", "h_list"):
            if key not in opts:
                out.append(f"$.options.{key}: required for kind 'variational'")
        _int("action_index", minimum=0)
        if isinstance(opts.get("action_index"), int) and not isinstance(
            opts.get("action_index"), bool
        ):
            if opts["action_index"] >= len(doc["actions"]):
                out.append(
                    f"$.options.action_index: index {opts['action_index']} outside"
                    f" the {len(doc['actions'])}-action grid"
                )
        _num("t0", minimum=0.0)
        h_list = opts.get("h_list")
        if h_list is not None:
            ok = (isinstance(h_list, list) and h_list
                  and all(isinstance(h, (int, float)) and not isinstance(h, bool)
                          and h > 0 for h in h_list))
            if not ok:
                out.append(
                    f"$.options.h_list: expected a list of positive spike widths,"
                    f" got {h_list!r}"
                )
            elif any(b >= a for a, b in zip(h_list, h_list[1:])):
                out.append(
                    f"$.options.h_list: widths must be strictly descending, got {h_list}"
                )
        out.extend(_spike_grid_violations(doc["grid"], opts))
    return out


def _on_grid(value: float, dt: float) -> int | None:
    """``value / dt`` when it is an integer (the tolerance of spike_steps), else None."""
    steps = value / dt
    return round(steps) if abs(steps - round(steps)) <= 1e-9 else None


def _spike_grid_violations(grid: Mapping, opts: Mapping) -> list[str]:
    """Spike windows [t0, t0 + h) must start and end on grid times inside [0, T]."""
    t0, h_list = opts.get("t0"), opts.get("h_list")
    number = (int, float)
    if not isinstance(t0, number) or isinstance(t0, bool) or t0 < 0:
        return []
    n_steps = grid["n_steps"]
    dt = grid["T"] / n_steps
    k0 = _on_grid(t0, dt)
    if k0 is None:
        return [f"$.options.t0: {t0} is not a multiple of dt = {dt!r}"]
    if k0 >= n_steps:
        return [f"$.options.t0: {t0} leaves no step before T = {grid['T']}"]
    out = []
    for j, h in enumerate(h_list if isinstance(h_list, list) else []):
        if not isinstance(h, number) or isinstance(h, bool) or h <= 0:
            continue
        span = _on_grid(h, dt)
        if span is None:
            out.append(f"$.options.h_list[{j}]: {h} is not a multiple of dt = {dt!r}")
        elif k0 + span > n_steps:
            out.append(f"$.options.h_list[{j}]: window [t0, t0 + {h}) ends after T")
    return out


def _semantic_violations(doc: Mapping) -> list[str]:
    out: list[str] = []
    name = doc["model"]["name"]
    if name not in MODEL_BUILDERS:
        out.append(f"$.model.name: unknown model {name!r}; known: {sorted(MODEL_BUILDERS)}")
    else:
        known = sorted(MODEL_DEFAULTS[name])
        for key in sorted(doc["model"].get("params", {})):
            if key not in MODEL_DEFAULTS[name]:
                out.append(f"$.model.params.{key}: not a parameter of model {name!r}"
                           f" (known: {known})")
        bad = check_derivatives(build_model(name, doc["model"].get("params", {})))
        if bad:
            out.append(f"$.model.params: {len(bad)} derivative checks fail, first: {bad[0]}")
    lo = doc["bounds"]["sigma_low"]
    hi = doc["bounds"]["sigma_high"]
    if hi < lo:
        out.append(f"$.bounds.sigma_high: {hi} is below sigma_low {lo}")
    if len(set(doc["marks"]["values"])) != len(doc["marks"]["values"]):
        out.append("$.marks.values: values must be distinct")
    n_values = len(doc["marks"]["values"])
    n_intens = len(doc["marks"]["intensities"])
    if n_values != n_intens:
        out.append(f"$.marks.intensities: {n_intens} entries for {n_values} mark values")
    mean_events = float(sum(doc["marks"]["intensities"])) * doc["grid"]["T"]
    if not mean_events <= POISSON_MEAN_MAX:
        out.append(f"$.marks.intensities: total intensity times T is {mean_events!r},"
                   f" above the largest Poisson mean {POISSON_MEAN_MAX!r}")
    actions = doc["actions"]
    if len(set(actions)) != len(actions):
        out.append("$.actions: values must be distinct")
    scen = doc.get("scenarios", {})
    if scen.get("strategy") == "random" and "count" not in scen:
        out.append("$.scenarios.count: required when strategy is 'random'")
    if scen.get("strategy") == "random" and "seed" not in scen:
        out.append("$.scenarios: 'seed' is a required property when strategy is 'random'")
    if doc["n_paths"] < 2:
        out.append(
            f"$.n_paths: {doc['n_paths']} path gives no standard error; at least 2 are needed"
        )

    kind = doc["kind"]
    ctl = doc["control"]
    _check_control(ctl, "$.control", doc["grid"]["n_steps"], len(actions), out,
                   allow_bruteforce=(kind == "cost"))
    ctype = ctl["type"]
    if kind in ("mp-strict", "mp-near", "variational") and ctype not in _STRICT_TYPES:
        out.append(
            f"$.control.type: kind {kind!r} needs a strict control"
            f" (one of {_STRICT_TYPES})"
        )
    if kind in ("mp-relaxed", "bsde-stability", "chattering") and ctype not in _RELAXED_TYPES:
        out.append(
            f"$.control.type: kind {kind!r} needs a relaxed control"
            f" (one of {_RELAXED_TYPES})"
        )
    out.extend(_option_violations(doc))
    return out


# ---------------------------------------------------------------------------
# building
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated config document with all referenced objects built."""

    kind: str
    model_name: str
    model: Any
    grid: TimeGrid
    family: Any
    marks: MarkSpace
    actions: ActionGrid
    control: Any
    candidates: tuple | None
    options: Mapping[str, Any]
    n_paths: int
    seed: int
    x0: float
    output_dir: str
    doc: Mapping = field(repr=False)


def _build_control(spec: Mapping, ag: ActionGrid, n_steps: int):
    ctype = spec["type"]
    if ctype == "constant":
        return constant_strict(ag, n_steps, int(spec["index"]))
    if ctype == "indices":
        return StrictControl(grid=ag, indices=np.asarray(spec["indices"], dtype=np.int64))
    if ctype == "uniform":
        return uniform_relaxed(ag, n_steps)
    if ctype == "weights":
        return RelaxedControl(grid=ag, weights=np.asarray(spec["weights"], dtype=float))
    if ctype == "chattering":
        if "weights" in spec:
            base = RelaxedControl(grid=ag, weights=np.asarray(spec["weights"], dtype=float))
        else:
            base = uniform_relaxed(ag, n_steps)
        return chattering(base, int(spec["n"]))
    raise ValueError(f"cannot build a control of type {ctype!r}")


def build_experiment(doc: Mapping) -> ExperimentConfig:
    violations = validate_document(doc)
    if violations:
        raise ValueError("invalid configuration:\n" + "\n".join(violations))

    grid = TimeGrid(T=float(doc["grid"]["T"]), n_steps=int(doc["grid"]["n_steps"]))
    model = build_model(doc["model"]["name"], doc["model"].get("params", {}))
    scen = {"strategy": "corners", "blocks": 2, "count": None, "seed": None}
    scen.update(doc.get("scenarios", {}))
    family = build_scenario_family(
        VolatilityBounds(float(doc["bounds"]["sigma_low"]),
                         float(doc["bounds"]["sigma_high"])),
        grid,
        scen["strategy"],
        blocks=int(scen["blocks"]),
        count=scen["count"],
        seed=scen["seed"],
    )
    marks = MarkSpace(
        marks=np.asarray(doc["marks"]["values"], dtype=float),
        intensities=np.asarray(doc["marks"]["intensities"], dtype=float),
    )
    ag = ActionGrid(np.asarray(doc["actions"], dtype=float))

    ctl_spec = doc["control"]
    if ctl_spec["type"] == "bruteforce":
        control = None
        candidates = tuple(
            _build_control(sub, ag, grid.n_steps) for sub in ctl_spec["candidates"]
        )
    else:
        control = _build_control(ctl_spec, ag, grid.n_steps)
        candidates = None

    options = dict(_OPTION_DEFAULTS[doc["kind"]])
    options.update(doc.get("options", {}))

    return ExperimentConfig(
        kind=doc["kind"],
        model_name=doc["model"]["name"],
        model=model,
        grid=grid,
        family=family,
        marks=marks,
        actions=ag,
        control=control,
        candidates=candidates,
        options=options,
        n_paths=int(doc["n_paths"]),
        seed=int(doc["seed"]),
        x0=float(doc["x0"]),
        output_dir=str(doc.get("output_dir", "gcontrol-out")),
        doc=dict(doc),
    )


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunManifest:
    config_hash: str
    version: str
    wall_time_s: float
    files: Mapping[str, str]  # relative path -> sha256 of the content


@dataclass(frozen=True)
class RunResult:
    manifest: RunManifest
    verdict: str  # "pass" | "fail" | "none"
    output_dir: Path
    summary: Mapping[str, Any]


def config_hash(doc: Mapping) -> str:
    """Digest of the effective document; the output location is not content."""
    slim = {k: v for k, v in doc.items() if k != "output_dir"}
    text = json.dumps(slim, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _series(x_label: str, y_label: str, xs, ys) -> str:
    lines = [f"{x_label},{y_label}"]
    for x, y in zip(xs, ys):
        lines.append(f"{_fmt(x)},{_fmt(y)}")
    return "\n".join(lines) + "\n"


def _map_ordered(fn, items: Sequence, threads: int) -> list:
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))


def _run_simulate(cfg: ExperimentConfig, threads: int):
    ens = simulate(cfg.model, cfg.control, cfg.family, cfg.grid, cfg.marks,
                   cfg.n_paths, cfg.seed, cfg.x0)
    # states.csv's path moments add path by path, as numpy does over a
    # non-contiguous axis; over the contiguous path axis of ens.states it
    # would add pairwise and change their last bits
    states = np.ascontiguousarray(np.moveaxis(ens.states, 0, -1))
    mean = states.mean(axis=1)
    std = states.std(axis=1)
    n_scen = mean.shape[0]
    lines = ["scenario,step,t,mean,std"]
    for s in range(n_scen):
        for k in range(cfg.grid.n_steps + 1):
            lines.append(
                f"{s},{k},{_fmt(cfg.grid.times[k])},{_fmt(mean[s, k])},{_fmt(std[s, k])}"
            )
    files = {"states.csv": "\n".join(lines) + "\n"}
    for s in range(n_scen):
        files[f"plot_state_mean_s{s}.csv"] = _series(
            "t", f"mean_state_scenario_{s}", cfg.grid.times, mean[s]
        )
    metrics = {
        "n_scenarios": int(n_scen),
        "terminal_upper_mean": float(mean[:, -1].max()),
    }
    return files, metrics, "none"


def _run_cost(cfg: ExperimentConfig, threads: int):
    if cfg.candidates is not None:
        drivers = sample_drivers(cfg.family, cfg.grid, cfg.marks, cfg.n_paths, cfg.seed)
        reports = evaluate_costs(
            cfg.model, list(cfg.candidates), cfg.family, cfg.grid, cfg.marks, drivers,
            cfg.x0, map_ordered=lambda fn, batches: _map_ordered(fn, batches, threads),
        )
        values = np.array([r.upper_value for r in reports])
        best = int(np.argmin(values))
        lines = ["candidate,upper_value,stderr_max"]
        for i, rep in enumerate(reports):
            lines.append(
                f"{i},{_fmt(rep.upper_value)},{_fmt(rep.scenario_stderrs.max())}"
            )
        files = {
            "candidates.csv": "\n".join(lines) + "\n",
            "cost.csv": cost_report_csv(reports[best]),
            "plot_candidate_values.csv": _series(
                "candidate", "upper_value", range(len(reports)), values
            ),
        }
        metrics = {"best_index": best, "best_value": float(values[best])}
        return files, metrics, "none"

    rep = evaluate_cost(cfg.model, cfg.control, cfg.family, cfg.grid, cfg.marks,
                        cfg.n_paths, cfg.seed, cfg.x0)
    files = {
        "cost.csv": cost_report_csv(rep),
        "plot_scenario_means.csv": _series(
            "scenario", "mean_cost", range(rep.scenario_means.size), rep.scenario_means
        ),
    }
    metrics = {
        "upper_value": float(rep.upper_value),
        "argmax_scenario": int(rep.argmax_scenario),
    }
    return files, metrics, "none"


def _run_chattering(cfg: ExperimentConfig, threads: int):
    rep = chattering_report(cfg.model, cfg.control, cfg.family, cfg.grid, cfg.marks,
                            list(cfg.options["n_list"]), cfg.n_paths, cfg.seed, cfg.x0)
    ns = [row[0] for row in rep.rows]
    files = {
        "chattering.csv": chattering_csv(rep),
        "plot_msq_gap.csv": _series("n", "msq_gap", ns, [row[1] for row in rep.rows]),
        "plot_cost_gap.csv": _series("n", "cost_gap", ns, [row[2] for row in rep.rows]),
    }
    metrics = {
        "msq_nonincreasing": bool(rep.msq_nonincreasing),
        "cost_nonincreasing": bool(rep.cost_nonincreasing),
        "fitted_C": float(rep.fitted_C),
        "j_relaxed": float(rep.j_relaxed),
        "min_chattering_j": float(rep.min_chattering_j),
    }
    verdict = "pass" if rep.msq_nonincreasing and rep.cost_nonincreasing else "fail"
    return files, metrics, verdict


def _run_variational(cfg: ExperimentConfig, threads: int):
    ai = int(cfg.options["action_index"])
    t0 = float(cfg.options["t0"])
    h_list = [float(h) for h in cfg.options["h_list"]]
    # the base control and every spiked control in one batch
    drivers = sample_drivers(cfg.family, cfg.grid, cfg.marks, cfg.n_paths, cfg.seed)
    controls = [cfg.control] + spike_controls(cfg.control, cfg.grid, ai, t0, h_list)
    states = simulate_batch(cfg.model, controls, cfg.family, cfg.grid, cfg.marks,
                            drivers, cfg.x0)
    ens = ensemble_from_batch(cfg.model, cfg.control, cfg.family, cfg.grid, cfg.marks,
                              drivers, cfg.x0, states[:, 0])
    spiked = states[:, 1:]
    der = gateaux_derivative(ens, ai, t0, h_list, spiked=spiked)
    rows = difference_quotient_gap(ens, ai, t0, h_list, spiked=spiked)
    qlines = ["h,gap,stderr,scenario_id"]
    for row in rows:
        qlines.append(f"{_fmt(row[0])},{_fmt(row[1])},{_fmt(row[2])},{int(row[3])}")
    files = {
        "derivative.csv": derivative_report_csv(der),
        "quotient_gaps.csv": "\n".join(qlines) + "\n",
        "plot_quotient_gap.csv": _series("h", "gap", [r[0] for r in rows],
                                         [r[1] for r in rows]),
        "plot_fd_slope.csv": _series("h", "fd", [r[0] for r in der.rows],
                                     [r[1] for r in der.rows]),
    }
    metrics = {
        "formula": float(der.formula),
        "formula_stderr": float(der.formula_stderr),
        "fd_at_min_h": float(der.rows[-1][1]),
        "gap_at_min_h": float(rows[-1][1]),
    }
    return files, metrics, "none"


def _mp_files(rep) -> dict[str, str]:
    return {
        "mp_report.csv": mp_report_csv(rep),
        "plot_entries.csv": _series(
            "entry", "estimate", range(len(rep.entries)),
            [e.estimate for e in rep.entries]
        ),
    }


def _mp_metrics(rep) -> dict[str, Any]:
    """Worst entry, hypothesis, and the estimator health of the table's regressions.

    A singular regression has an infinite condition number, written as null.
    """
    out = rep.summary()
    metrics = {
        "worst_entry": float(out["worst_entry"]),
        "worst_block": int(out["worst_block"]),
        "worst_action": float(out["worst_action"]),
        "hypothesis": rep.hypothesis,
    }
    for key, value in rep.health.items():
        metrics[key] = None if isinstance(value, float) and not math.isfinite(value) else value
    return metrics


def _run_mp_strict(cfg: ExperimentConfig, threads: int):
    o = cfg.options
    rep = mp_check_strict(cfg.model, cfg.control, cfg.family, cfg.grid, cfg.marks,
                          cfg.n_paths, cfg.seed, cfg.x0,
                          n_blocks=int(o["n_blocks"]),
                          slack_mult=float(o["slack_mult"]),
                          basis_degree=int(o["basis_degree"]))
    return _mp_files(rep), _mp_metrics(rep), "pass" if rep.verdict else "fail"


def _run_mp_relaxed(cfg: ExperimentConfig, threads: int):
    o = cfg.options
    rep = mp_check_relaxed(cfg.model, cfg.control, cfg.family, cfg.grid, cfg.marks,
                           cfg.n_paths, cfg.seed, cfg.x0,
                           n_blocks=int(o["n_blocks"]),
                           slack_mult=float(o["slack_mult"]),
                           basis_degree=int(o["basis_degree"]))
    return _mp_files(rep), _mp_metrics(rep), "pass" if rep.verdict else "fail"


def _run_mp_near(cfg: ExperimentConfig, threads: int):
    o = cfg.options
    cands = [_build_control(sub, cfg.actions, cfg.grid.n_steps)
             for sub in o["candidates"]]
    eps = o["epsilon_n"]
    rep = mp_check_near(cfg.model, cfg.control, cands, float(o["C"]), cfg.family,
                        cfg.grid, cfg.marks, cfg.n_paths, cfg.seed, cfg.x0,
                        epsilon_n=None if eps is None else float(eps),
                        n_blocks=int(o["n_blocks"]),
                        slack_mult=float(o["slack_mult"]),
                        basis_degree=int(o["basis_degree"]),
                        add_block_spikes=bool(o["add_block_spikes"]))
    files = _mp_files(rep.mp)
    metrics = _mp_metrics(rep.mp)
    metrics.update({
        "epsilon_n": float(rep.epsilon_n),
        "C": float(rep.C),
        "C_min": float(rep.C_min) if math.isfinite(rep.C_min) else None,
        "jepsilon_ok": bool(rep.jepsilon_ok),
        "n_candidates": int(rep.n_candidates),
    })
    return files, metrics, "pass" if rep.mp.verdict else "fail"


def _run_stability(cfg: ExperimentConfig, threads: int):
    o = cfg.options
    rep = bsde_stability_report(cfg.model, cfg.control, cfg.family, cfg.grid,
                                cfg.marks, list(o["n_list"]), cfg.n_paths, cfg.seed,
                                cfg.x0, basis_degree=int(o["basis_degree"]))
    ns = [row.n for row in rep.rows]
    files = {
        "stability.csv": stability_csv(rep),
        "plot_p_gap.csv": _series("n", "p_gap", ns, [row.p_gap for row in rep.rows]),
        "plot_q_gap.csv": _series("n", "q_gap", ns, [row.q_gap for row in rep.rows]),
        "plot_r_gap.csv": _series("n", "r_gap", ns, [row.r_gap for row in rep.rows]),
    }
    ok = rep.p_nonincreasing and rep.q_nonincreasing and rep.r_nonincreasing
    metrics = {
        "p_nonincreasing": bool(rep.p_nonincreasing),
        "q_nonincreasing": bool(rep.q_nonincreasing),
        "r_nonincreasing": bool(rep.r_nonincreasing),
    }
    return files, metrics, "pass" if ok else "fail"


_DISPATCH = {
    "simulate": _run_simulate,
    "cost": _run_cost,
    "chattering": _run_chattering,
    "variational": _run_variational,
    "mp-strict": _run_mp_strict,
    "mp-relaxed": _run_mp_relaxed,
    "mp-near": _run_mp_near,
    "bsde-stability": _run_stability,
}


def _remove_stale(out: Path, files: Mapping[str, str]) -> None:
    """Delete the artifacts an earlier run's manifest lists and this run does not write.

    Only plain file names a manifest lists are touched; anything else in
    the directory stays.
    """
    try:
        listed = json.loads((out / "manifest.json").read_text())["files"]
    except (OSError, ValueError, KeyError, TypeError):
        return
    for name in listed:
        path = out / str(name)
        if name not in files and path.name == name and path.is_file():
            path.unlink()


def run_document(doc: Mapping, *, output_dir: str | Path | None = None,
                 threads: int = 1, seed_override: int | None = None) -> RunResult:
    """Validate, execute, and persist one experiment.

    Emission is single-threaded and ordered; ``threads`` only fans out
    the strict and the relaxed batch of brute-force candidate costs,
    whose results are collected in submission order, so the artifacts do
    not depend on it. ``summary.json`` and ``manifest.json`` are strict
    JSON: a non-finite metric raises ``FloatingPointError`` instead of
    being written as a bare ``NaN`` or ``Infinity``.
    """
    eff = dict(doc)
    if seed_override is not None:
        eff["seed"] = int(seed_override)
    if output_dir is not None:
        eff["output_dir"] = str(output_dir)
    cfg = build_experiment(eff)

    start = time.perf_counter()
    files, metrics, verdict = _DISPATCH[cfg.kind](cfg, max(1, int(threads)))
    for key, value in metrics.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise FloatingPointError(f"non-finite {cfg.kind} metric {key} = {value!r}")
    summary = {
        "kind": cfg.kind,
        "model": cfg.model_name,
        "seed": cfg.seed,
        "n_paths": cfg.n_paths,
        "verdict": verdict,
        "metrics": metrics,
        "files": sorted(files),
    }
    files["summary.json"] = json.dumps(summary, sort_keys=True, indent=2, allow_nan=False) + "\n"

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _remove_stale(out, files)
    digests: dict[str, str] = {}
    for name in sorted(files):
        (out / name).write_text(files[name])
        digests[name] = hashlib.sha256(files[name].encode()).hexdigest()
    manifest = RunManifest(
        config_hash=config_hash(eff),
        version=__version__,
        wall_time_s=time.perf_counter() - start,
        files=digests,
    )
    (out / "manifest.json").write_text(
        json.dumps(asdict(manifest), sort_keys=True, indent=2, allow_nan=False) + "\n"
    )
    return RunResult(manifest=manifest, verdict=verdict, output_dir=out,
                     summary=summary)
