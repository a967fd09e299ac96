"""Span tracing around robinlab's public functions, from outside the package.

`Tracer.install` replaces each traced function with a wrapper in its own
module's namespace. robinlab's modules call each other through module
attributes (`fem.minimize_energy`) or module globals (`minimize_energy`
inside fem), so nested calls pass through the wrappers too. Names bound by
`from ... import` before installation (the package `__init__`) keep the
original function; the benchmark calls through module attributes only.

Each span records (name, start, end, parent span, operation id) in memory;
`write` dumps them as JSON lines once the run ends. A span's self time is
its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

# (module, function) pairs whose calls and self time the traced run reports
TRACED = (
    ("geometry", "fraenkel_asymmetry"),
    ("radial", "solve_ball"),
    ("radial", "eigenvalue_q2_ball"),
    ("radial", "annulus_exclusion"),
    ("radial", "penalized_ball_argmin"),
    ("radial", "hamiltonian_monotonicity"),
    ("fem", "mesh_star"),
    ("fem", "assemble"),
    ("fem", "minimize_energy"),
    ("fem", "lambda_q"),
    ("fem", "lambda_2"),
    ("inequalities", "check_intermediate"),
    ("inequalities", "check_quantitative"),
    ("inequalities", "check_ec_ball_minimality"),
    ("inequalities", "check_trace_poincare"),
    ("inequalities", "check_scaling"),
    ("inequalities", "sweep"),
    ("cli", "run_experiment"),
    ("config", "load_config"),
)

# functions whose share of repeated inputs is reported as distinct / calls
DISTINCT = ("radial.solve_ball", "fem.minimize_energy")


def _freeze(value):
    """Hashable fingerprint of one argument; meshes and arrays by content."""
    if isinstance(value, np.ndarray):
        return hashlib.sha1(np.ascontiguousarray(value).tobytes()).hexdigest()
    if hasattr(value, "vertices") and hasattr(value, "triangles"):
        return ("mesh", _freeze(value.vertices), _freeze(value.triangles))
    if isinstance(value, float):
        return float(value)
    return value


class Tracer:
    def __init__(self):
        self.enabled = False
        self.reset()

    def reset(self) -> None:
        """Forget recorded spans and counts; the wrappers stay installed."""
        self.op_id = -1
        self.spans = []  # [name, start, end, parent, op_id]
        self._stack = []
        self._inputs = defaultdict(set)
        self.outer_iterations = 0
        self.vertices_solved = 0

    def install(self, modules: dict) -> None:
        for mod_name, fn_name in TRACED:
            module = modules[mod_name]
            setattr(module, fn_name, self._wrap(f"{mod_name}.{fn_name}", getattr(module, fn_name)))

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            self._count(name, signature, args, kwargs, result)
            return result

        return traced

    def _count(self, name, signature, args, kwargs, result):
        if name in DISTINCT:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self._inputs[name].add(tuple(_freeze(v) for v in bound.arguments.values()))
        if name == "fem.minimize_energy":
            self.outer_iterations += int(result[1].iterations)
            self.vertices_solved += int(args[0].n_vertices)
        elif name == "fem.lambda_2":
            self.vertices_solved += int(args[0].n_vertices)

    def metrics(self) -> dict:
        """calls and self_s per traced function, distinct-input ratios and the
        fem work counters."""
        calls = defaultdict(int)
        total = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            calls[name] += 1
            total[name] += dur
            if parent >= 0:
                child[self.spans[parent][0]] += dur
        out = {}
        for mod_name, fn_name in TRACED:
            name = f"{mod_name}.{fn_name}"
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (total[name] - child[name], "s")
        for name in DISTINCT:
            ratio = len(self._inputs[name]) / calls[name] if calls[name] else 0.0
            out[f"{name}.distinct_ratio"] = (ratio, "ratio")
        out["fem.outer_iterations"] = (self.outer_iterations, "count")
        out["fem.vertices_solved"] = (self.vertices_solved, "count")
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )
