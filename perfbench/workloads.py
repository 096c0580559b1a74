"""Config documents for each benchmark workload, generated from a seed.

The program under test only ever sees these documents: the workload seed
picks the Monte Carlo seed of every config, nothing else. The model,
grid, scenario family, marks and actions are fixed so that the amount
of work per pass does not depend on the seed.
"""

from __future__ import annotations

import os
import random

# Default model `linear_jump_lq`, 4 corner scenarios, 3 actions, 2 marks.
_BASE = {
    "model": {"name": "linear_jump_lq", "params": {}},
    "bounds": {"sigma_low": 1.0, "sigma_high": 4.0},
    "scenarios": {"strategy": "corners", "blocks": 2},
    "marks": {"values": [-0.4, 0.6], "intensities": [0.7, 0.3]},
    "actions": [-1.0, 0.0, 1.0],
    "x0": 1.0,
}

LARGE = {"n_steps": 128, "n_paths": 4000}
SMALL = {"n_steps": 64, "n_paths": 200}
SMALL_SEEDS = 5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _doc(kind: str, n_steps: int, n_paths: int, seed: int, control: dict,
         options: dict | None = None) -> dict:
    doc = dict(_BASE)
    doc.update({
        "kind": kind,
        "grid": {"T": 1.0, "n_steps": n_steps},
        "n_paths": n_paths,
        "seed": seed,
        "control": control,
    })
    if options:
        doc["options"] = options
    return doc


def _constant(index: int) -> dict:
    return {"type": "constant", "index": index}


_UNIFORM = {"type": "uniform"}


def _cost(k: int, p: int, seed: int) -> dict:
    # three constant candidates (each has an exact oracle) and one relaxed
    candidates = [_constant(0), _constant(1), _constant(2), _UNIFORM]
    return _doc("cost", k, p, seed, {"type": "bruteforce", "candidates": candidates})


def _variational(k: int, p: int, seed: int) -> dict:
    # t0 and every width sit on the grid for any n_steps divisible by 64
    return _doc("variational", k, p, seed, _constant(1),
                {"action_index": 2, "t0": 0.25, "h_list": [1 / 16, 1 / 32, 1 / 64]})


def _mp_near(k: int, p: int, seed: int) -> dict:
    return _doc("mp-near", k, p, seed, _constant(1),
                {"n_blocks": 4, "C": 1.0, "candidates": [_constant(0)]})


def _mp_strict(k: int, p: int, seed: int) -> dict:
    return _doc("mp-strict", k, p, seed, _constant(1), {"n_blocks": 4})


def _mp_relaxed(k: int, p: int, seed: int) -> dict:
    return _doc("mp-relaxed", k, p, seed, _UNIFORM, {"n_blocks": 4})


def _stability(k: int, p: int, seed: int) -> dict:
    return _doc("bsde-stability", k, p, seed, _UNIFORM, {"n_list": [4, 16]})


def _simulate(k: int, p: int, seed: int) -> dict:
    return _doc("simulate", k, p, seed, _constant(2))


def _chattering(k: int, p: int, seed: int) -> dict:
    return _doc("chattering", k, p, seed, _UNIFORM, {"n_list": [4, 16]})


_ALL_KINDS = (_simulate, _cost, _chattering, _variational,
              _mp_strict, _mp_relaxed, _mp_near, _stability)

WORKLOADS = ("forward-sweep", "adjoint-tables", "many-small")


def workload(name: str, seed: int) -> tuple[list[dict], int]:
    """The config documents of one pass and the ``threads`` value to run them with."""
    rnd = random.Random(f"{name}:{seed}")

    def draw() -> int:
        return rnd.randrange(2**31)

    k, p = LARGE["n_steps"], LARGE["n_paths"]
    if name == "forward-sweep":
        s = draw()
        # brute-force fan-out is the only parallelism, so it gets every core
        return [_cost(k, p, s), _variational(k, p, s), _mp_near(k, p, s)], nproc()
    if name == "adjoint-tables":
        s = draw()
        return [_mp_strict(k, p, s), _mp_relaxed(k, p, s), _stability(k, p, s)], 1
    if name == "many-small":
        k, p = SMALL["n_steps"], SMALL["n_paths"]
        docs = []
        for _ in range(SMALL_SEEDS):
            s = draw()
            docs.extend(make(k, p, s) for make in _ALL_KINDS)
        return docs, 1
    raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
