"""Span recorder that wraps gcontrol's module-level functions from outside.

Each wrap point maps one function to a stage name (ROADMAP item 1's
stage names). A stage's self time is the wall time during which one of
its spans is the innermost open span, so the self times of all stages
plus the time outside every span add up to the pass time exactly.

Brute-force cost candidates run on a thread pool. While several threads
have an open span, each innermost span gets an equal share of the wall
time (processor sharing), and a thread parked in the fan-out helper
gets none while a worker is busy. That keeps the partition exact when
spans overlap.

Functions are rebound in every gcontrol module that holds them (``from
.sde import simulate`` copies the reference), and in the experiment
dispatch table; :func:`unwrapped_references` finds any copy that was
missed. A wrap point whose function no longer exists is skipped and
listed in ``missing``, so a refactor shows up as an unmeasured stage
rather than a crash.
"""

from __future__ import annotations

import hashlib
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from types import ModuleType
from typing import Callable

# (module, function, stage, counted): a counted wrap point adds one to
# the stage's ``calls``; the others only contribute self time.
WRAP_POINTS: tuple[tuple[str, str, str, bool], ...] = (
    ("scenarios", "sample_brownian", "sample.brownian", True),
    ("jumps", "sample_poisson", "sample.jumps", True),
    ("jumps", "sample_relaxed_poisson", "sample.tags", True),
    ("jumps", "dense_counts", "counts", True),
    ("jumps", "dense_tagged_counts", "counts", True),
    ("sde", "simulate", "simulate", False),
    ("sde", "simulate_strict", "simulate", True),
    ("sde", "simulate_relaxed", "simulate", True),
    ("costs", "evaluate_cost", "cost", False),
    ("costs", "chattering_report", "cost", False),
    ("costs", "cost_from_ensemble", "cost", True),
    ("variational", "solve_fundamental", "flow", True),
    ("variational", "solve_variational", "variational.z", True),
    ("variational", "gateaux_derivative", "variational.z", False),
    ("variational", "difference_quotient_gap", "variational.z", False),
    ("adjoint", "_adjoint_core", "adjoint", True),
    ("adjoint", "_regress_state", "regress.state", True),
    ("adjoint", "_regress_increment", "regress.increment", True),
    ("adjoint", "solve_adjoint", "tables", False),
    ("adjoint", "mp_check_relaxed", "tables", True),
    ("adjoint", "mp_check_strict", "tables", False),
    ("adjoint", "measure_ekeland_epsilon", "tables", False),
    ("adjoint", "mp_check_near", "tables", False),
    ("adjoint", "bsde_stability_report", "tables", True),
    ("adjoint", "f_term", "tables.f_term", True),
    ("experiments", "validate_document", "validate", True),
    ("experiments", "build_experiment", "build", True),
    ("experiments", "run_document", "emit", True),
)

# Fan-out helper: its span takes the caller's stage and yields to workers.
FANOUT = ("experiments", "_map_ordered")

STAGES: tuple[str, ...] = tuple(dict.fromkeys(s for _, _, s, _ in WRAP_POINTS))

_MIB = 1024.0 * 1024.0


class _Frame:
    __slots__ = ("stage", "waits")

    def __init__(self, stage: str, waits: bool):
        self.stage = stage
        self.waits = waits


class Tracer:
    """Per-stage self time, call counts and work counters for one process."""

    def __init__(self, *, adjoint_memory: bool = False):
        self.adjoint_memory = adjoint_memory
        self._lock = threading.Lock()
        self._stacks: dict[int, list[_Frame]] = defaultdict(list)
        self._last = time.perf_counter()
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self._config = 0
        self._kinds: dict[int, str] = {}
        self._distinct: set = set()
        self._seeds: set = set()
        self._kernel_calls: list[int] = []
        self._brownian_calls: list[int] = []
        self._originals: list[Callable] = []
        self.missing: list[str] = []

    # -- accounting ---------------------------------------------------------

    def _advance(self, now: float) -> None:
        elapsed = now - self._last
        self._last = now
        tops = [st[-1] for st in self._stacks.values() if st]
        busy = [f for f in tops if not f.waits] or tops
        if busy:
            share = elapsed / len(busy)
            for f in busy:
                self.self_s[f.stage] += share

    def _enter(self, stage: str | None, waits: bool = False) -> None:
        with self._lock:
            self._advance(time.perf_counter())
            stack = self._stacks[threading.get_ident()]
            stack.append(_Frame(stack[-1].stage if stage is None else stage, waits))

    def _exit(self, stage: str | None, counted: bool) -> None:
        with self._lock:
            self._advance(time.perf_counter())
            self._stacks[threading.get_ident()].pop()
            if counted:
                self.calls[stage] += 1

    def _count(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[key] += value

    # -- work counters ------------------------------------------------------

    def _note_kernel(self, args) -> None:
        _model, control, _family, _grid, _marks, noise = args[:6]
        table = getattr(control, "indices", None)
        if table is None:
            table = control.weights
        digest = hashlib.sha1(table.tobytes()).hexdigest()
        key = (self._config, type(control).__name__, digest, noise.seed, noise.n_paths)
        with self._lock:
            self._distinct.add(key)
            self._kernel_calls.append(self._config)

    def _note_brownian(self, args) -> None:
        with self._lock:
            self._seeds.add((self._config, int(args[3])))
            self._brownian_calls.append(self._config)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn: Callable, stage: str, counted: bool, name: str) -> Callable:
        enter, exit_ = self._enter, self._exit
        if name == "run_document":
            def pre(args):
                with self._lock:
                    self._config += 1
                    self._kinds[self._config] = args[0]["kind"]
        elif name in ("simulate_strict", "simulate_relaxed"):
            pre = self._note_kernel
        elif name == "sample_brownian":
            pre = self._note_brownian
        else:
            pre = None

        if name in ("simulate_strict", "simulate_relaxed"):
            def post(out):
                s, p, k1 = out.states.shape
                self._count("simulate.path_steps", s * p * (k1 - 1))
        elif name == "sample_poisson":
            def post(out):
                self._count("jumps.events", sum(path.n_events for path in out))
        else:
            post = None

        memory = self.adjoint_memory and name == "_adjoint_core"

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            if memory:
                tracemalloc.start()
            enter(stage)
            try:
                out = fn(*args, **kwargs)
            finally:
                exit_(stage, counted)
                if memory:
                    _, peak = tracemalloc.get_traced_memory()
                    tracemalloc.stop()
                    self._note_adjoint_peak(peak, args[0].states.nbytes)
            if post is not None:
                post(out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _wrap_fanout(self, fn: Callable) -> Callable:
        enter, exit_ = self._enter, self._exit

        def wrapper(*args, **kwargs):
            enter(None, waits=True)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(None, False)

        wrapper.__wrapped__ = fn
        return wrapper

    def _note_adjoint_peak(self, peak: int, state_bytes: int) -> None:
        with self._lock:
            c = self.counters
            c["adjoint.peak_mib"] = max(c["adjoint.peak_mib"], peak / _MIB)
            c["adjoint.peak_over_state"] = max(c["adjoint.peak_over_state"],
                                               peak / state_bytes)

    def install(self) -> None:
        """Wrap every wrap point and rebind it wherever gcontrol holds it."""
        import gcontrol.experiments as experiments

        replace: dict[int, Callable] = {}
        for mod_name, fn_name, stage, counted in WRAP_POINTS:
            fn = getattr(sys.modules[f"gcontrol.{mod_name}"], fn_name, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            replace[id(fn)] = self._wrap(fn, stage, counted, fn_name)
            self._originals.append(fn)
        fan = getattr(sys.modules[f"gcontrol.{FANOUT[0]}"], FANOUT[1])
        replace[id(fan)] = self._wrap_fanout(fan)
        self._originals.append(fan)
        for kind, fn in list(experiments._DISPATCH.items()):
            wrapped = self._wrap(fn, f"kind.{kind}", True, fn.__name__)
            replace[id(fn)] = wrapped
            self._originals.append(fn)

        for module in _gcontrol_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in replace:
                    setattr(module, attr, replace[id(value)])
        for kind, fn in list(experiments._DISPATCH.items()):
            experiments._DISPATCH[kind] = replace[id(fn)]

    def unwrapped_references(self) -> list[str]:
        """``module.attr`` names that still point at an unwrapped original."""
        missed = []
        for module in _gcontrol_modules():
            for attr, value in vars(module).items():
                if any(value is o for o in self._originals):
                    missed.append(f"{module.__name__}.{attr}")
        import gcontrol.experiments as experiments
        for kind, fn in experiments._DISPATCH.items():
            if any(fn is o for o in self._originals):
                missed.append(f"gcontrol.experiments._DISPATCH[{kind!r}]")
        return missed

    # -- results ------------------------------------------------------------

    def reset(self) -> None:
        """Start the accounting clock; call right before the timed pass."""
        with self._lock:
            self._last = time.perf_counter()

    def report(self) -> dict:
        with self._lock:
            out = {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counters": dict(self.counters),
            }
            out["counters"]["simulate.distinct"] = len(self._distinct)
            out["counters"]["sample.brownian.seeds"] = len(self._seeds)
            per_kind: dict[str, dict[str, int]] = {}
            for name, items in (("simulate.calls", self._kernel_calls),
                                ("simulate.distinct", [k[0] for k in self._distinct]),
                                ("sample.brownian.calls", self._brownian_calls),
                                ("sample.brownian.seeds", [k[0] for k in self._seeds])):
                for config in items:
                    row = per_kind.setdefault(self._kinds[config], {})
                    row[name] = row.get(name, 0) + 1
            out["per_kind"] = per_kind
            out["missing"] = list(self.missing)
        return out


def _gcontrol_modules() -> list[ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gcontrol" or name.startswith("gcontrol."))]
