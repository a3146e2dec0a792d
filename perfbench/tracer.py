"""Run one boltlab CLI command with the calls into every layer traced.

Usage: python3 tracer.py OUT_PREFIX OP_ID -- <boltlab CLI arguments>

The report goes to stdout exactly as ``python3 -m boltlab.cli`` writes it.
OUT_PREFIX.json receives the counters and per-layer self times, and
OUT_PREFIX.spans.jsonl the spans, one JSON object per line.  boltlab must be
importable (the benchmark puts src/ on PYTHONPATH).

A layer is a boltlab module.  A wrapper is installed at every place a public
function is bound: its defining module, every module that imported it by
name, and the BUILTIN_STORMS / BUILTIN_ADVERSARIES tables.  A call opens a
span when it crosses from one module into another; calls inside a module are
only counted, which keeps tight loops such as gf2.rank -> gf2.rref cheap.
The lru-cached functions stay in place behind their wrappers, so caching
behaves as it does untraced and cache_info() gives the hit counts.
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("attacks", "bounds", "cli", "extraction", "gf2", "jsonio",
          "lightning", "money", "mqhash", "qsim")

# wall time spent inside these functions, whoever calls them
TIMERS = {
    "qsim.hadamard_all": "qsim.hadamard_all_s",
    "qsim.state_dump": "qsim.state_dump_s",
    "qsim.state_load": "qsim.state_load_s",
    "jsonio.dumps": "jsonio.dumps_s",
    "jsonio.loads": "jsonio.loads_s",
    "extraction.circuit_span_analysis": "extraction.analysis_s",
    "extraction.ExtractionPlan.__init__": "extraction.plan_build_s",
    "bounds.gram_matrix": "bounds.gram_s",
    "mqhash.digest_table": "mqhash.digest_table_s",
}

# counters that are plain call counts of one function
CALL_COUNTS = {
    "lightning.verify_registers": ["lightning.mini_verify"],
    "lightning.verify_attempts": ["lightning.full_verify"],
    "lightning.span_projections": ["lightning.span_projection"],
    "qsim.statevector_builds": ["qsim.StateVector.__post_init__"],
    "qsim.measure_calls": ["qsim.measure_function", "qsim.measure_register",
                           "qsim.measure_distribution"],
    "extraction.analyses": ["extraction.circuit_span_analysis"],
    "extraction.extract_calls": ["extraction.ExtractionPlan.extract"],
    "extraction.unextract_calls": ["extraction.ExtractionPlan.unextract"],
    "gf2.rref_calls": ["gf2.rref"],
    "gf2.solve_affine_calls": ["gf2.solve_affine"],
    "gf2.random_subspace_calls": ["gf2.random_subspace"],
    "money.notes": ["money.note_for_subspace"],
    "money.verify_calls": ["money.money_verify", "money.money_verify_analysis",
                           "money.projective_verify"],
    "mqhash.eval_digest_calls": ["mqhash.eval_digest"],
}

# (module, function) -> counters read from its lru_cache
CACHES = {
    ("mqhash", "digest_table"): ("mqhash.digest_table_hits", "mqhash.digest_table_builds"),
    ("lightning", "span_states"): ("lightning.span_states_hits", "lightning.span_states_builds"),
    ("extraction", "get_plan"): ("extraction.plan_hits", "extraction.plan_builds"),
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self, op_id: int):
        self.op_id = op_id
        self.names: list = []
        self.name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list = []  # [span index, time covered by children]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self.registers: set = set()
        self.hooks = {
            "lightning.full_verify": self._on_full_verify,
            "lightning.mini_verify": self._on_mini_verify,
            "qsim.measure_function": self._on_measure,
            "qsim.measure_distribution": self._on_measure,
            "qsim.measure_register": self._on_measure_one,
            "qsim.StateVector.__post_init__": self._on_statevector,
            "jsonio.dumps": self._on_dumps,
            "jsonio.loads": self._on_loads,
            "gf2.all_subspaces": self._on_all_subspaces,
            "bounds.power_iteration": self._on_power_iteration,
            "attacks.find_collision": self._on_tries_tuple,
            "attacks.find_affine_collision_space": self._on_tries_tuple,
            "attacks.find_nonaffine_multicollision": self._on_tries_attr,
        }

    # -- counters that look at arguments or results ------------------------

    def _on_full_verify(self, args, kwargs, result):
        self.counters["lightning.verify_accepts"] += bool(result.accepted)

    def _on_mini_verify(self, args, kwargs, result):
        register = _arg(args, kwargs, 2, "register")
        self.registers.add(hashlib.sha1(register.amps.tobytes()).digest())

    def _on_measure(self, args, kwargs, result):
        self.counters["qsim.measure_posts"] += len(result)

    def _on_measure_one(self, args, kwargs, result):
        self.counters["qsim.measure_posts"] += 1

    def _on_statevector(self, args, kwargs, result):
        nbytes = args[0].amps.nbytes
        self.counters["qsim.amp_bytes"] += nbytes
        self.counters["qsim.max_amp_bytes"] = max(self.counters["qsim.max_amp_bytes"], nbytes)

    def _on_dumps(self, args, kwargs, result):
        self.counters["jsonio.bytes_out"] += len(result)

    def _on_loads(self, args, kwargs, result):
        self.counters["jsonio.bytes_in"] += len(_arg(args, kwargs, 0, "text"))

    def _on_all_subspaces(self, args, kwargs, result):
        n, d = _arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "d")
        self.counters["gf2.all_subspaces_candidates"] += (1 << (n * d)) if d else 1
        self.counters["gf2.all_subspaces_found"] += len(result)

    def _on_power_iteration(self, args, kwargs, result):
        self.counters["bounds.power_iterations"] += result[2]
        size = _arg(args, kwargs, 0, "c").shape[0]
        self.counters["bounds.matrix_size"] = max(self.counters["bounds.matrix_size"], size)

    def _on_tries_tuple(self, args, kwargs, result):
        self.counters["attacks.tries"] += result[2]

    def _on_tries_attr(self, args, kwargs, result):
        self.counters["attacks.tries"] += result.tries

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, fn, name: str, always_span: bool = False):
        """Wrapper that counts every call and opens a span on module crossings."""
        layer = name.split(".", 1)[0]
        home = "boltlab." + layer
        name_id = self._name_id(name)
        timer = TIMERS.get(name)
        hook = self.hooks.get(name)
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            span = always_span or sys._getframe(1).f_globals.get("__name__") != home
            if span:
                index = len(tracer.span_start)
                tracer.span_name.append(name_id)
                tracer.span_parent.append(tracer.stack[-1][0] if tracer.stack else -1)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
                frame = [index, 0.0]
                tracer.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if span:
                    tracer.stack.pop()
                    duration = t1 - t0
                    tracer.span_start[index] = t0
                    tracer.span_end[index] = t1
                    tracer.self_s[layer] += duration - frame[1]
                    if tracer.stack:
                        tracer.stack[-1][1] += duration
                if timer:
                    tracer.counters[timer] += t1 - t0
            if hook:
                hook(args, kwargs, result)
            return result

        functools.update_wrapper(traced, fn)
        return traced

    def install(self):
        import numpy as np
        import boltlab.cli  # noqa: F401  (loads every layer)

        modules = {layer: sys.modules["boltlab." + layer] for layer in LAYERS}
        wrappers = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                cached = hasattr(obj, "cache_info")
                if attr.startswith("_") or not (inspect.isfunction(obj) or cached):
                    continue
                if obj.__module__ != mod.__name__ or inspect.isgeneratorfunction(obj):
                    continue
                wrappers[id(obj)] = self.wrap(obj, f"{layer}.{attr}")
        self.caches = {
            counters: getattr(modules[layer], attr) for (layer, attr), counters in CACHES.items()
        }
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, dict) and attr.startswith("BUILTIN_"):
                    for k, v in obj.items():
                        if id(v) in wrappers:
                            obj[k] = wrappers[id(v)]
        methods = [
            (modules["qsim"].StateVector, "__post_init__", "qsim.StateVector.__post_init__"),
            (modules["extraction"].ExtractionPlan, "__init__", "extraction.ExtractionPlan.__init__"),
            (modules["extraction"].ExtractionPlan, "extract", "extraction.ExtractionPlan.extract"),
            (modules["extraction"].ExtractionPlan, "unextract", "extraction.ExtractionPlan.unextract"),
        ]
        for cls, attr, name in methods:
            setattr(cls, attr, self.wrap(getattr(cls, attr), name, always_span=True))
        eigvalsh = np.linalg.eigvalsh

        def timed_eigvalsh(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return eigvalsh(*args, **kwargs)
            finally:
                self.counters["bounds.eigh_s"] += time.perf_counter() - t0

        np.linalg.eigvalsh = timed_eigvalsh

    # -- output ------------------------------------------------------------

    def summary(self) -> dict:
        out = dict(self.counters)
        for metric, names in CALL_COUNTS.items():
            out[metric] = sum(self.calls[n] for n in names)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        for layer in ("qsim", "attacks"):
            out[f"{layer}.calls"] = sum(
                c for n, c in self.calls.items()
                if n.startswith(layer + ".") and ".StateVector." not in n
            )
        for (hits, builds), fn in self.caches.items():
            info = fn.cache_info()
            out[hits], out[builds] = info.hits, info.misses
        out["lightning.distinct_registers"] = len(self.registers)
        out["trace.spans"] = len(self.span_start)
        return out

    def write(self, prefix: str, extra: dict):
        with open(prefix + ".spans.jsonl", "w") as fh:
            for i in range(len(self.span_start)):
                parent = self.span_parent[i]
                fh.write(json.dumps({
                    "trace": self.op_id,
                    "id": i,
                    "name": self.names[self.span_name[i]],
                    "start": self.span_start[i],
                    "end": self.span_end[i],
                    "parent": parent if parent >= 0 else None,
                }) + "\n")
        with open(prefix + ".json", "w") as fh:
            json.dump({"metrics": self.summary(), **extra}, fh)


def main() -> int:
    prefix, op_id, sep, *cli_argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT_PREFIX OP_ID -- <boltlab arguments>")
    import boltlab.cli

    imported = time.monotonic()  # the parent's spawn time on the same clock gives the cold start
    tracer = Tracer(int(op_id))
    tracer.install()
    try:
        return boltlab.cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        tracer.write(prefix, {"imported": imported})


if __name__ == "__main__":
    sys.exit(main())
