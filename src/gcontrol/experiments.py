"""Batch experiment runner: one JSON config document in, CSV/JSON artifacts out.

A config names a model, a time grid, a scenario family, a mark space, an
action grid, a control, and an experiment kind with its options.
``validate_document`` lists every violation: the shape errors against one
rule table, options included (a missing or unknown key, a wrong type, a
number that is not finite, a value out of range) when there are any, else
every check that the run's own plan fails, since validating builds what
the run will use with the constructors the run calls. ``run_document`` samples the run's drivers
once, dispatches them to the corresponding module operation and writes
CSV tables, a JSON summary with a stable key set, plot-ready two-column
series, and a manifest with content digests. Everything numeric is determined by the
config alone, so rerunning a config reproduces the digests bit for bit.

The compute modules return numbers; this module alone turns them into
artifact bytes. Every CSV goes through one writer, :func:`_csv`, with one
rule per cell.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from . import __version__
from .adjoint import bsde_stability_report, check_basis_degree, mp_check_near, mp_check_relaxed
from .controls import (
    ActionGrid,
    RelaxedControl,
    StrictControl,
    block_length,
    chattering,
    check_ladder,
    constant_strict,
    spike,
    spike_start,
    spike_window,
    uniform_relaxed,
)
from .costs import chattering_report, evaluate_cost, evaluate_costs
from .jumps import Drivers, MarkSpace, poisson_mean, sample_drivers
from .models import MODEL_DEFAULTS, build_model, ensure_validated
from .scenarios import TimeGrid, VolatilityBounds, build_scenario_family
from .sde import simulate, stream_batch
from .variational import check_widths, spike_report

KINDS: tuple[str, ...] = ("simulate", "cost", "chattering", "variational", "mp-strict",
                          "mp-near", "mp-relaxed", "bsde-stability")

# The shape of a config document, in JSON Schema's vocabulary; "extra" is its
# additionalProperties: False refuses unknown keys, a rule checks each of them;
# "nonempty" is its minItems: 1; "null" says how a rule reads a JSON null:
# True admits it, a message refuses it.
# Enums are lists because their messages print them as such.
def _fields(required, **properties) -> dict[str, Any]:
    """The rule of an object with these ``required`` keys and no key but ``properties``."""
    return {"type": "object", "required": required, "extra": False, "properties": properties}


_SEED = {"type": "integer", "minimum": 0, "maximum": 2**64 - 1}
_NUMBERS = {"type": "array", "items": {"type": "number"}, "nonempty": True}
_INDEX = {"type": "integer", "minimum": 0, "maximum": 2**63 - 1}  # an action index is an int64
_CONTROL = _fields(
    ["type"],
    type={"enum": ["constant", "indices", "uniform", "weights", "chattering", "bruteforce"]},
    index=_INDEX,
    indices={"type": "array", "items": _INDEX, "nonempty": True},
    weights={"type": "array", "nonempty": True, "items": {
        "type": "array", "items": {"type": "number", "minimum": 0}, "nonempty": True}},
    n={"type": "integer", "minimum": 1},
)
_CONTROL["properties"]["candidates"] = {"type": "array", "items": _CONTROL, "nonempty": True}

_DOCUMENT = _fields(
    ["kind", "model", "grid", "bounds", "marks", "actions", "control", "n_paths", "seed",
     "x0"],
    kind={"enum": list(KINDS)},
    model=_fields(["name"], name={"type": "string"},
                  params={"type": "object", "extra": {"type": "number"}}),
    grid=_fields(["T", "n_steps"], T={"type": "number", "exclusiveMinimum": 0},
                 n_steps={"type": "integer", "minimum": 1, "maximum": 2**63 - 1}),
    bounds=_fields(["sigma_low", "sigma_high"],
                   sigma_low={"type": "number", "exclusiveMinimum": 0},
                   sigma_high={"type": "number", "exclusiveMinimum": 0}),
    scenarios=_fields([], strategy={"enum": ["corners", "random"]},
                      blocks={"type": "integer", "minimum": 1},
                      count={"type": "integer", "minimum": 1}, seed=_SEED),
    marks=_fields(["values", "intensities"], values=_NUMBERS, intensities={
        "type": "array", "items": {"type": "number", "minimum": 0}, "nonempty": True}),
    actions=_NUMBERS,
    control=_CONTROL,
    n_paths={"type": "integer", "minimum": 1, "maximum": 2**63 - 1},
    seed=_SEED,
    x0={"type": "number"},
    output_dir={"type": "string"},
    options={"type": "object"},  # checked by its kind's rule in _OPTIONS
)

_STRICT_TYPES = ("constant", "indices", "chattering")
_RELAXED_TYPES = ("uniform", "weights")
_STRICT_KINDS = ("mp-strict", "mp-near", "variational")
_RELAXED_KINDS = ("mp-relaxed", "bsde-stability", "chattering")


def _option(**rule) -> dict[str, Any]:
    """The rule of an option, which a document leaves out rather than sets to null."""
    return {"null": "null is not a value; leave the option out to use its default", **rule}


# an integer option's range ends where the plan's own check begins:
# block_length, check_basis_degree, check_ladder, chattering and spike
_POSITIVE_INT = _option(type="integer", minimum=1)
_LADDER = _option(type="array", items={"type": "integer", "minimum": 1}, nonempty=True)
_NONNEGATIVE = _option(type="number", minimum=0)
_TABLE = {"n_blocks": _POSITIVE_INT, "slack_mult": _NONNEGATIVE, "basis_degree": _POSITIVE_INT}
_STRICT_CONTROL = {**_CONTROL, "properties": {**_CONTROL["properties"],
                                              "type": {"enum": list(_STRICT_TYPES)}}}

# the options of each kind; a kind's options are checked only when its kind is valid
_OPTIONS: dict[str, dict[str, Any]] = {
    "simulate": _fields([]),
    "cost": _fields([]),
    "chattering": _fields([], n_list=_LADDER),
    "variational": _fields(
        ["action_index", "t0", "h_list"],
        action_index=_option(type="integer", minimum=0),
        t0=_NONNEGATIVE,
        h_list=_option(type="array", items={"type": "number", "exclusiveMinimum": 0},
                       nonempty=True)),
    "mp-strict": _fields([], **_TABLE),
    "mp-relaxed": _fields([], **_TABLE),
    "mp-near": _fields(
        [], **_TABLE, C=_NONNEGATIVE,
        epsilon_n={**_NONNEGATIVE, "null": True},  # null: measure it
        add_block_spikes=_option(type="boolean"),
        candidates=_option(type="array", items=_STRICT_CONTROL)),
    "bsde-stability": _fields([], n_list=_LADDER, basis_degree=_POSITIVE_INT),
}

_TABLE_DEFAULTS = {"n_blocks": 4, "slack_mult": 3.0, "basis_degree": 2}
_OPTION_DEFAULTS: dict[str, dict[str, Any]] = {
    "simulate": {},
    "cost": {},
    "chattering": {"n_list": [4, 16, 64]},
    "variational": {},
    "mp-strict": _TABLE_DEFAULTS,
    "mp-relaxed": _TABLE_DEFAULTS,
    "mp-near": {**_TABLE_DEFAULTS, "C": 0.0, "epsilon_n": None, "add_block_spikes": True,
                "candidates": []},
    "bsde-stability": {"n_list": [4, 16, 64], "basis_degree": 2},
}

_IDENTIFIER = re.compile("^[a-zA-Z][a-zA-Z0-9_]*$")


def _number(value, types=numbers.Number) -> bool:
    """Whether ``value`` is one of ``types``; a bool is never a number."""
    return isinstance(value, types) and not isinstance(value, bool)


def _finite(value) -> bool:
    """Whether a number is finite as a float; an integer beyond the float range is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


_IS = {"object": lambda v: isinstance(v, dict), "array": lambda v: isinstance(v, list),
       "string": lambda v: isinstance(v, str), "number": _number,
       "integer": lambda v: _number(v, int) or isinstance(v, float) and v.is_integer(),
       "boolean": lambda v: isinstance(v, bool)}


def _json_key(key) -> str:
    """The JSON path step to ``key``: ``[1]``, ``.name`` or ``['a b']``."""
    if isinstance(key, int):
        return f"[{key}]"
    if _IDENTIFIER.match(key):
        return f".{key}"
    return "['" + key.replace("\\", "\\\\").replace("'", "\\'") + "']"


def shape_errors(value, rule: Mapping[str, Any], path: str = "$") -> Iterator[tuple[str, str]]:
    """Yield ``(path, message)`` for every way ``value`` breaks ``rule``.

    The messages are JSON Schema's (jsonschema's wording), and a bound is
    failed only by a comparison that holds, so NaN fails none; the
    ``number`` type refuses every value that is not finite as a float
    (NaN, an infinity, an integer beyond the float range).
    """
    if value is None and "null" in rule:
        if rule["null"] is not True:
            yield path, rule["null"]
        return
    if "type" in rule and not _IS[rule["type"]](value):
        yield path, f"{value!r} is not of type {rule['type']!r}"
    if "enum" in rule and value not in rule["enum"]:
        yield path, f"{value!r} is not one of {rule['enum']!r}"
    if _number(value):
        if rule.get("type") == "number" and not _finite(value):
            yield path, f"{value!r} is not a finite number"
        if "minimum" in rule and value < rule["minimum"]:
            yield path, f"{value!r} is less than the minimum of {rule['minimum']!r}"
        if "exclusiveMinimum" in rule and value <= rule["exclusiveMinimum"]:
            yield path, (f"{value!r} is less than or equal to the minimum of"
                         f" {rule['exclusiveMinimum']!r}")
        if "maximum" in rule and value > rule["maximum"]:
            yield path, f"{value!r} is greater than the maximum of {rule['maximum']!r}"
    if isinstance(value, list):
        if not value and rule.get("nonempty"):
            yield path, f"{value!r} should be non-empty"
        for j, item in enumerate(value if "items" in rule else ()):
            yield from shape_errors(item, rule["items"], f"{path}[{j}]")
    if isinstance(value, dict):
        for key in rule.get("required", ()):
            if key not in value:
                yield path, f"{key!r} is a required property"
        properties = rule.get("properties", {})
        extra = sorted((key for key in value if key not in properties), key=str)
        if extra and rule.get("extra") is False:
            verb = "was" if len(extra) == 1 else "were"
            yield path, (f"Additional properties are not allowed"
                         f" ({', '.join(map(repr, extra))} {verb} unexpected)")
        for key, sub in properties.items():
            if key in value:
                yield from shape_errors(value[key], sub, path + _json_key(key))
        for key in extra if isinstance(rule.get("extra"), dict) else ():
            yield from shape_errors(value[key], rule["extra"], path + _json_key(key))



# ---------------------------------------------------------------------------
# loading, validation and building
# ---------------------------------------------------------------------------


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"{literal} is not a finite number")
    return value


def load_config(path: str | Path) -> dict:
    """Read a config file as strict JSON: ``NaN``, ``Infinity`` and overflows are refused."""
    doc = json.loads(Path(path).read_text(), parse_constant=_refuse_constant,
                     parse_float=_finite_float)
    if not isinstance(doc, dict):
        raise ValueError("config document must be a JSON object")
    return doc


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
    candidates: tuple | None  # the brute-force or the mp-near candidate controls
    options: Mapping[str, Any]
    n_paths: int
    seed: int
    x0: float
    output_dir: str


class _Plan(list):
    """The ``path: message`` lines of a document's plan, and the config it built.

    ``config`` stays None unless every step succeeded.
    """

    config: ExperimentConfig | None = None

    def attempt(self, path, build, *args, fields=(), lead="", catch=ValueError, **kwargs):
        """``build(*args, **kwargs)``, or None once its ``catch`` error is filed under ``path``.

        A message that opens with a key of ``fields`` (the document's
        object at ``path``) is filed under that key; ``lead`` goes before
        the message.
        """
        try:
            return build(*args, **kwargs)
        except catch as exc:
            message = str(exc.args[0])
            head = message.split(" ", 1)[0]
            self.append(f"{path}.{head}: {lead}{message}" if head in fields
                        else f"{path}: {lead}{message}")
            return None


def validate_document(doc: Mapping) -> _Plan:
    """Every violation as ``path: message``, never just the first.

    Shape errors against the rule table (``_DOCUMENT``, and the kind's
    ``_OPTIONS`` rule for the options) are reported alone, sorted by path,
    when present; otherwise these are the checks the run's own plan fails:
    what a run of ``doc`` uses is built with the constructors and checks
    the run calls, and a step whose inputs failed is skipped. When the list
    is empty, its ``config`` is the experiment a run executes.
    """
    plan = _Plan()
    kind, given = doc.get("kind"), doc.get("options", {})
    shapes = list(shape_errors(doc, _DOCUMENT))
    if kind in KINDS and isinstance(given, dict):  # else the document's rule flags them
        shapes += shape_errors(given, _OPTIONS[kind], "$.options")
    plan.extend(f"{path}: {message}" for path, message in sorted(shapes))
    if plan:
        return plan
    n_steps = int(doc["grid"]["n_steps"])  # the shape check admits 16.0 as an integer
    grid = plan.attempt("$.grid", TimeGrid, doc["grid"]["T"], n_steps, fields=doc["grid"])

    name, params = doc["model"]["name"], doc["model"].get("params", {})
    model = plan.attempt("$.model.name", build_model, name, params, catch=KeyError)
    if model is not None:
        for key in sorted(params):
            if key not in MODEL_DEFAULTS[name]:
                plan.append(f"$.model.params.{key}: not a parameter of model {name!r}"
                            f" (known: {sorted(MODEL_DEFAULTS[name])})")
        plan.attempt("$.model.params", ensure_validated, model)

    bounds = plan.attempt("$.bounds", VolatilityBounds, doc["bounds"]["sigma_low"],
                          doc["bounds"]["sigma_high"], fields=doc["bounds"])
    marks = plan.attempt("$.marks", MarkSpace, doc["marks"]["values"],
                         doc["marks"]["intensities"], fields=doc["marks"])
    if marks is not None and grid is not None:
        plan.attempt("$.marks.intensities", poisson_mean, marks, grid.T)
    ag = plan.attempt("$.actions", ActionGrid, doc["actions"])
    family = None
    if bounds is not None and grid is not None:
        scen = {"strategy": "corners", "blocks": 2, "count": None, "seed": None,
                **doc.get("scenarios", {})}
        count = scen["count"] if scen["count"] is None else int(scen["count"])
        family = plan.attempt("$.scenarios", build_scenario_family, bounds, grid,
                              scen["strategy"], blocks=int(scen["blocks"]),
                              count=count, seed=scen["seed"],
                              fields=doc.get("scenarios", {}))
    if doc["n_paths"] < 2:
        plan.append(f"$.n_paths: {doc['n_paths']} path gives no standard error;"
                    " at least 2 are needed")

    spec = doc["control"]
    control = candidates = None
    if spec["type"] == "bruteforce":
        if kind != "cost":
            plan.append("$.control: 'bruteforce' control is only available for kind 'cost'")
        elif "candidates" not in spec:
            plan.append("$.control: control type 'bruteforce' requires 'candidates'")
        elif ag is not None:
            candidates = tuple(
                _build_control(sub, ag, n_steps, plan, f"$.control.candidates[{j}]")
                for j, sub in enumerate(spec["candidates"]))
    elif ag is not None:
        control = _build_control(spec, ag, n_steps, plan, "$.control")
    for kinds, types, which in ((_STRICT_KINDS, _STRICT_TYPES, "strict"),
                                (_RELAXED_KINDS, _RELAXED_TYPES, "relaxed")):
        if kind in kinds and spec["type"] not in types:
            plan.append(f"$.control.type: kind {kind!r} needs a {which} control"
                        f" (one of {types})")

    opts = {**_OPTION_DEFAULTS[kind], **given}
    # the rule table admits 4.0 as an integer; the plan and the run read ints
    for key in ("n_blocks", "basis_degree", "action_index"):
        if key in opts:
            opts[key] = int(opts[key])
    if "n_list" in opts:
        opts["n_list"] = [int(n) for n in opts["n_list"]]

    def lead(key):
        return "" if key in given else "the default "

    if "n_blocks" in opts:
        plan.attempt("$.options.n_blocks", block_length, n_steps, opts["n_blocks"],
                     lead=lead("n_blocks"))
    if "basis_degree" in opts:
        plan.attempt("$.options.basis_degree", check_basis_degree, opts["basis_degree"])
    if "n_list" in opts:
        plan.attempt("$.options.n_list", check_ladder, opts["n_list"])
        if isinstance(control, RelaxedControl):
            for j, n in enumerate(opts["n_list"]):
                plan.attempt(f"$.options.n_list[{j}]", chattering, control, n,
                             lead=lead("n_list"))
    if kind == "mp-near" and ag is not None:
        # the built controls are the only copy a run reads
        candidates = tuple(
            _build_control(sub, ag, n_steps, plan, f"$.options.candidates[{j}]")
            for j, sub in enumerate(opts.pop("candidates")))
    if kind == "variational" and isinstance(control, StrictControl) and grid is not None:
        ai, t0, h_list = opts["action_index"], opts["t0"], opts["h_list"]
        plan.attempt("$.options.h_list", check_widths, h_list)
        k0 = plan.attempt("$.options.t0", spike_start, t0, grid)
        # a one-step spike checks the action index once, not once per width
        one_step = plan.attempt("$.options.action_index", spike, control, ai, 0, 1)
        if k0 is not None and one_step is not None:
            for j, h in enumerate(h_list):
                plan.attempt(f"$.options.h_list[{j}]", spike_window, t0, float(h), grid)

    if plan:
        return plan
    plan.config = ExperimentConfig(
        kind=kind,
        model_name=name,
        model=model,
        grid=grid,
        family=family,
        marks=marks,
        actions=ag,
        control=control,
        candidates=candidates,
        options=opts,
        n_paths=int(doc["n_paths"]),
        seed=int(doc["seed"]),
        x0=float(doc["x0"]),
        output_dir=str(doc.get("output_dir", "gcontrol-out")),
    )
    return plan


class InvalidConfig(ValueError):
    """A document's plan failed; ``violations`` holds its ``path: message`` lines."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("invalid configuration:\n" + "\n".join(violations))
        self.violations = list(violations)


def build_experiment(doc: Mapping) -> ExperimentConfig:
    """The config of the plan ``validate_document`` builds; a violation raises ``InvalidConfig``.

    Validating and running a document therefore check it once, with the
    same code.
    """
    plan = validate_document(doc)
    if plan:
        raise InvalidConfig(plan)
    return plan.config


# the field each control type cannot do without
_REQUIRED_FIELD = {"constant": "index", "indices": "indices", "weights": "weights",
                   "chattering": "n"}


def _per_step(rows: Sequence, n_steps: int, unit: str) -> Sequence:
    if len(rows) != n_steps:
        raise ValueError(f"expected {n_steps} {unit}, got {len(rows)}")
    return rows


def _build_control(spec: Mapping, ag: ActionGrid, n_steps: int, plan: _Plan, path: str):
    """The control of ``spec``, or None once each failed check is filed under ``path``."""
    ctype = spec["type"]
    need = _REQUIRED_FIELD.get(ctype)
    if need is not None and need not in spec:
        plan.append(f"{path}: control type {ctype!r} requires {need!r}")
        return None
    if ctype == "bruteforce":
        plan.append(f"{path}: nested 'bruteforce' is not allowed")
        return None
    if ctype == "constant":
        return plan.attempt(f"{path}.index", constant_strict, ag, n_steps, int(spec["index"]))
    if ctype == "indices":
        idx = plan.attempt(f"{path}.indices", _per_step, spec["indices"], n_steps, "entries")
        if idx is None:
            return None
        return plan.attempt(f"{path}.indices", StrictControl, grid=ag, indices=idx)
    if ctype == "uniform":  # a stray 'weights' field is not read
        return uniform_relaxed(ag, n_steps)
    if "weights" in spec:
        w = plan.attempt(f"{path}.weights", _per_step, spec["weights"], n_steps, "rows")
        base = (None if w is None
                else plan.attempt(f"{path}.weights", RelaxedControl, grid=ag, weights=w))
    else:
        base = uniform_relaxed(ag, n_steps)
    if ctype != "chattering" or base is None:
        return base
    return plan.attempt(f"{path}.n", chattering, base, int(spec["n"]))


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


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _csv(header: str, rows) -> str:
    """The CSV text of ``rows`` under ``header``, one line each, newline-terminated.

    A string cell is written as it is, an integer as its digits, and any
    other cell as the ``repr`` of its float, which round-trips.
    """
    lines = [header]
    lines.extend(",".join(map(_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _series(x_label: str, y_label: str, xs, ys) -> str:
    return _csv(f"{x_label},{y_label}", zip(xs, ys))


def _map_ordered(fn, items: Sequence, threads: int) -> list:
    """``[fn(item) for item in items]`` on at most ``threads`` threads, the caller's included.

    The calling thread runs ``items[0]`` while a pool of
    ``min(threads, len(items)) - 1`` workers takes the rest, so the caller
    works instead of waiting and no thread beyond ``threads`` is started.
    Results come back in item order, and so do exceptions: the first
    item that raised, in that order, raises here, after every submitted
    item has finished.
    """
    items = list(items)
    workers = min(threads, len(items)) - 1
    if workers <= 0:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        rest = [pool.submit(fn, item) for item in items[1:]]
        first = fn(items[0])
        return [first] + [future.result() for future in rest]


def _run_simulate(cfg: ExperimentConfig, drivers: Drivers, threads: int):
    K, n_scen = cfg.grid.n_steps, drivers.family.n_scenarios
    mean, std = np.empty((n_scen, K + 1)), np.empty((n_scen, K + 1))

    def moments(k: int, x: np.ndarray) -> None:
        # states.csv's path moments add path by path, down the rows of a
        # path-major copy; over the contiguous path axis numpy would add
        # pairwise and change their last bits
        paths = np.ascontiguousarray(x[0].T)
        mean[:, k], std[:, k] = paths.mean(axis=0), paths.std(axis=0)

    stream_batch(cfg.model, [cfg.control], drivers, cfg.x0, moments)
    files = {"states.csv": _csv("scenario,step,t,mean,std", (
        (s, k, cfg.grid.times[k], mean[s, k], std[s, k])
        for s in range(n_scen) for k in range(K + 1)))}
    for s in range(n_scen):
        files[f"plot_state_mean_s{s}.csv"] = _series(
            "t", f"mean_state_scenario_{s}", cfg.grid.times, mean[s]
        )
    metrics = {
        "n_scenarios": int(n_scen),
        "terminal_upper_mean": float(mean[:, -1].max()),
    }
    return files, metrics, "none"


def _cost_table(rep) -> str:
    """``cost.csv``: each scenario's mean cost and its standard error."""
    return _csv("scenario_id,mean,stderr,n_paths,seed", (
        (s, mean, se, rep.n_paths, rep.seed)
        for s, (mean, se) in enumerate(zip(rep.scenario_means, rep.scenario_stderrs))))


def _run_cost(cfg: ExperimentConfig, drivers: Drivers, threads: int):
    if cfg.candidates is not None:
        reports = evaluate_costs(
            cfg.model, list(cfg.candidates), drivers, cfg.x0,
            map_ordered=lambda fn, batches: _map_ordered(fn, batches, threads),
        )
        values = np.array([r.upper_value for r in reports])
        best = int(np.argmin(values))
        files = {
            "candidates.csv": _csv("candidate,upper_value,stderr_max", (
                (i, rep.upper_value, rep.scenario_stderrs.max())
                for i, rep in enumerate(reports))),
            "cost.csv": _cost_table(reports[best]),
            "plot_candidate_values.csv": _series(
                "candidate", "upper_value", range(len(reports)), values
            ),
        }
        metrics = {"best_index": best, "best_value": float(values[best])}
        return files, metrics, "none"

    rep = evaluate_cost(cfg.model, cfg.control, drivers, cfg.x0)
    files = {
        "cost.csv": _cost_table(rep),
        "plot_scenario_means.csv": _series(
            "scenario", "mean_cost", range(rep.scenario_means.size), rep.scenario_means
        ),
    }
    metrics = {
        "upper_value": float(rep.upper_value),
        "argmax_scenario": int(rep.argmax_scenario),
    }
    return files, metrics, "none"


def _run_chattering(cfg: ExperimentConfig, drivers: Drivers, threads: int):
    rep = chattering_report(cfg.model, cfg.control, list(cfg.options["n_list"]), drivers, cfg.x0)
    ns = [row[0] for row in rep.rows]
    files = {
        "chattering.csv": _csv("n,msq_gap,cost_gap,cost_gap_stderr", rep.rows),
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


def _run_variational(cfg: ExperimentConfig, drivers: Drivers, threads: int):
    ai = cfg.options["action_index"]
    t0 = float(cfg.options["t0"])
    h_list = [float(h) for h in cfg.options["h_list"]]
    # spike_report runs the base and its spikes as one streamed batch,
    # the base as row 0, and advances z from the base's row as it runs
    der, rows = spike_report(cfg.model, cfg.control, ai, t0, h_list, drivers, cfg.x0)
    files = {
        "derivative.csv": _csv("h,FD,FD_stderr,FORMULA,FORMULA_stderr", (
            (h, fd, fd_se, der.formula, der.formula_stderr) for h, fd, fd_se in der.rows)),
        "quotient_gaps.csv": _csv("h,gap,stderr,scenario_id", rows),
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
        "mp_report.csv": _csv("block,action,estimate,stderr,slack,verdict", (
            (e.block, e.action, e.estimate, e.stderr, e.slack, "pass" if e.passed else "fail")
            for e in rep.entries)),
        "plot_entries.csv": _series(
            "entry", "estimate", range(len(rep.entries)),
            [e.estimate for e in rep.entries]
        ),
    }


def _health_metrics(health: Mapping[str, Any]) -> dict[str, Any]:
    """Estimator health numbers as metrics.

    A singular regression has an infinite condition number, written as null.
    """
    return {key: None if isinstance(value, float) and not math.isfinite(value) else value
            for key, value in health.items()}


def _mp_metrics(rep) -> dict[str, Any]:
    """Worst entry, hypothesis, and the estimator health of the table's regressions."""
    out = rep.summary()
    metrics = {
        "worst_entry": float(out["worst_entry"]),
        "worst_block": int(out["worst_block"]),
        "worst_action": float(out["worst_action"]),
        "hypothesis": rep.hypothesis,
    }
    metrics.update(_health_metrics(rep.health))
    return metrics


def _run_mp(cfg: ExperimentConfig, drivers: Drivers, threads: int):
    """The stationarity table of ``cfg.control``, strict or relaxed."""
    o = cfg.options
    rep = mp_check_relaxed(simulate(cfg.model, cfg.control, drivers, cfg.x0),
                           n_blocks=o["n_blocks"], slack_mult=float(o["slack_mult"]),
                           basis_degree=o["basis_degree"])
    return _mp_files(rep), _mp_metrics(rep), "pass" if rep.verdict else "fail"


def _run_mp_near(cfg: ExperimentConfig, drivers: Drivers, threads: int):
    o = cfg.options
    eps = o["epsilon_n"]
    rep = mp_check_near(cfg.model, cfg.control, list(cfg.candidates), float(o["C"]), drivers,
                        cfg.x0, epsilon_n=None if eps is None else float(eps),
                        n_blocks=o["n_blocks"], slack_mult=float(o["slack_mult"]),
                        basis_degree=o["basis_degree"],
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


def _run_stability(cfg: ExperimentConfig, drivers: Drivers, threads: int):
    o = cfg.options
    rep = bsde_stability_report(cfg.model, cfg.control, list(o["n_list"]), drivers, cfg.x0,
                                basis_degree=o["basis_degree"])
    ns = [row.n for row in rep.rows]
    files = {
        "stability.csv": _csv("n,p_gap,p_stderr,q_gap,q_stderr,r_gap,r_stderr,k_gap",
                              rep.rows),
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
    metrics.update(_health_metrics(rep.health))
    return files, metrics, "pass" if ok else "fail"


_DISPATCH = {
    "simulate": _run_simulate,
    "cost": _run_cost,
    "chattering": _run_chattering,
    "variational": _run_variational,
    "mp-strict": _run_mp,
    "mp-relaxed": _run_mp,
    "mp-near": _run_mp_near,
    "bsde-stability": _run_stability,
}


def _listed(out: Path) -> list:
    """The names an earlier run's manifest in ``out`` lists, or none."""
    try:
        return list(json.loads((out / "manifest.json").read_text())["files"])
    except (OSError, ValueError, KeyError, TypeError):
        return []


def _remove_stale(out: Path, listed: Sequence, files: Mapping[str, str]) -> None:
    """Delete the plain file names in ``listed`` that are neither in ``files`` nor the manifest."""
    for name in listed:
        path = out / str(name)
        if name not in files and name != "manifest.json" and path.name == name and path.is_file():
            path.unlink()


def _write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to a temporary name beside ``path``, then rename it into place."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def run_document(doc: Mapping, *, output_dir: str | Path | None = None,
                 threads: int = 1, seed_override: int | None = None) -> RunResult:
    """Validate, execute, and persist one experiment.

    The run's drivers are sampled here, once, and every operation of the
    kind runs on them. Emission is single-threaded and ordered;
    ``threads`` only fans out the strict and the relaxed batch of
    brute-force candidate costs, on at most ``threads`` threads in all
    (:func:`_map_ordered`), whose results are collected in submission
    order, so the artifacts do not depend on it. ``summary.json`` and
    ``manifest.json`` are strict JSON: a non-finite metric raises
    ``FloatingPointError`` instead of being written as a bare ``NaN`` or
    ``Infinity``.
    """
    eff = dict(doc)
    if seed_override is not None:
        eff["seed"] = int(seed_override)
    if output_dir is not None:
        eff["output_dir"] = str(output_dir)
    cfg = build_experiment(eff)

    start = time.perf_counter()
    drivers = sample_drivers(cfg.family, cfg.grid, cfg.marks, cfg.n_paths, cfg.seed)
    files, metrics, verdict = _DISPATCH[cfg.kind](cfg, drivers, max(1, int(threads)))
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

    # each file is replaced whole and the manifest last, so an interrupted
    # write leaves every file old or new; stale files go after the manifest
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    listed = _listed(out)
    digests: dict[str, str] = {}
    for name in sorted(files):
        data = files[name].encode()
        _write_atomic(out / name, data)
        digests[name] = hashlib.sha256(data).hexdigest()
    manifest = RunManifest(
        config_hash=config_hash(eff),
        version=__version__,
        wall_time_s=time.perf_counter() - start,
        files=digests,
    )
    _write_atomic(out / "manifest.json", (
        json.dumps(asdict(manifest), sort_keys=True, indent=2, allow_nan=False) + "\n"
    ).encode())
    _remove_stale(out, listed, files)
    return RunResult(manifest=manifest, verdict=verdict, output_dir=out,
                     summary=summary)
