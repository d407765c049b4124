"""Span tracer that wraps penalab's layer boundaries from outside the package.

`install(tracer)` replaces the functions listed in `TARGETS` (and the three
integrand methods) in every loaded penalab module that holds them, so calls
made through `from .x import y` names are traced too.  Each call records a
span (id, name, start, end, parent id, thread id) in memory; `Tracer.dump`
writes them out when the job ends.  `layer_metrics` turns the spans and
counters into the per-layer metrics named in BENCHMARK.json.

A span's self time is its duration minus the part of its interval that its
child spans cover.  Chunk spans run on worker threads; they name the
`run_chunked` span as their parent explicitly.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name): functions wrapped in every penalab module
# that imports them; the wrappers in _special_wrappers name their own spans
TARGETS = (
    ("penalab.samplers", "sample_W", "samplers.sample_W"),
    ("penalab.samplers", "substream", "samplers.substream"),
    ("penalab.functionals", "local_time_signed", "functionals.local_time_signed"),
    ("penalab.functionals", "fk_log_weight", "functionals.fk_log_weight"),
    ("penalab.functionals", "occupation_integral", "functionals.occupation_integral"),
    ("penalab.functionals", "wiener_integral", "functionals.wiener_integral"),
    ("penalab.functionals", "exp_density", "functionals.exp_density"),
    ("penalab.paths", "last_exit_index", "paths.last_exit_index"),
    ("penalab.paths", "last_exit_time", "paths.last_exit_time"),
    ("penalab.paths", "hitting_index", "paths.hitting_index"),
    ("penalab.sturm", "solve_phi", "sturm.solve_phi"),
    ("penalab.estimator", "run_chunked", "estimator.run_chunked"),
    ("penalab.estimator", "bm_chunk_pass", "estimator.bm_chunk_pass"),
    ("penalab.experiments", "run_experiment", "experiments"),
    ("penalab.cli", "write_results", "cli.write_results"),
    ("penalab.config", "config_from_sources", "config.config_from_sources"),
)

# (module, class, method, span name)
METHODS = (
    ("penalab.integrands", "MeasureSpec", "density", "integrands.MeasureSpec.density"),
    ("penalab.integrands", "Integrand", "primitive", "integrands.Integrand.primitive"),
    ("penalab.integrands", "Integrand", "primitive_on_grid",
     "integrands.Integrand.primitive_on_grid"),
)

# spans reported as `<name>.calls` and `<name>.s` (self time)
CALL_METRICS = (
    "samplers.sample_W", "samplers.substream",
    "functionals.local_time_signed", "functionals.fk_log_weight",
    "functionals.occupation_integral", "functionals.wiener_integral",
    "functionals.exp_density",
    "paths.last_exit_index", "paths.last_exit_time", "paths.hitting_index",
    "integrands.MeasureSpec.density", "integrands.Integrand.primitive",
    "integrands.Integrand.primitive_on_grid",
    "sturm.solve_phi",
)


def philox_words(bit_generator) -> int:
    """64-bit words a Philox4x64 generator has handed out since its counter was 0."""
    st = bit_generator.state
    c = st["state"]["counter"]
    counter = sum(int(c[k]) << (64 * k) for k in range(4))
    return 4 * counter - (4 - int(st["buffer_pos"]))


class Tracer:
    """In-memory span and counter store, safe to use from several threads."""

    def __init__(self):
        self.spans: list[tuple] = []          # (id, name, start, end, parent, thread)
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._gens: dict[int, list] = defaultdict(list)   # open generators per thread

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, value) -> None:
        with self._lock:
            self.counters[name] += value

    def call(self, name: str, fn, *args, parent=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span; parent defaults to the
        innermost open span of this thread."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, threading.get_ident()))

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def opened(self, gen) -> None:
        self._gens[threading.get_ident()].append(gen)

    def rng_mark(self) -> int:
        return len(self._gens[threading.get_ident()])

    def flush_rng(self, since: int = 0) -> None:
        """Add the words drawn by the generators this thread opened after
        mark `since` to `samplers.rng_words` and forget them."""
        gens = self._gens[threading.get_ident()]
        done = gens[since:]
        del gens[since:]
        if done:
            self.add("samplers.rng_words", sum(philox_words(g.bit_generator) for g in done))

    def flush_all_rng(self) -> None:
        for gens in self._gens.values():
            if gens:
                self.add("samplers.rng_words", sum(philox_words(g.bit_generator) for g in gens))
                gens.clear()

    def dump(self, path) -> None:
        self.flush_all_rng()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)


# -- wrappers with layer-specific bookkeeping ----------------------------------


def _special_wrappers(tracer: Tracer, originals: dict) -> dict:
    def substream(*args, **kwargs):
        gen = tracer.call("samplers.substream", originals["substream"], *args, **kwargs)
        tracer.opened(gen)
        return gen

    def sample_W(*args, **kwargs):
        wp = tracer.call("samplers.sample_W", originals["sample_W"], *args, **kwargs)
        tracer.add("samplers.path_steps", len(wp.path.values))
        return wp

    run_chunked_orig = originals["run_chunked"]
    run_chunked_sig = inspect.signature(run_chunked_orig)

    def run_chunked(*args, **kwargs):
        bound = run_chunked_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        chunk_fn = bound.arguments["chunk_fn"]
        workers = max(1, int(bound.arguments["n_workers"]))
        tracer.add("estimator.paths", int(bound.arguments["n_paths"]))

        def body():
            parent = tracer.current()

            def traced_chunk(*a, **kw):
                tracer.add("estimator.chunks", 1)
                mark = tracer.rng_mark()
                try:
                    return tracer.call("estimator.chunk_fn", chunk_fn, *a, parent=parent, **kw)
                finally:
                    tracer.flush_rng(mark)

            bound.arguments["chunk_fn"] = traced_chunk
            t0 = perf_counter()
            try:
                return run_chunked_orig(*bound.args, **bound.kwargs)
            finally:
                tracer.add("estimator.worker_s", workers * (perf_counter() - t0))

        return tracer.call("estimator.run_chunked", body)

    def bm_chunk_pass(x0, n_steps, dt, eval_matrix):
        inner = originals["bm_chunk_pass"](
            x0, n_steps, dt, tracer.wrap("estimator.eval_matrix", eval_matrix))

        def chunk_fn(seed, start, size):
            tracer.add("estimator.bm_steps", size * n_steps)
            return tracer.call("estimator.bm_chunk", inner, seed, start, size)
        return chunk_fn

    def run_experiment(name, *args, **kwargs):
        mark = tracer.rng_mark()
        try:
            return tracer.call(f"experiments.{name}", originals["run_experiment"],
                               name, *args, **kwargs)
        finally:
            tracer.flush_rng(mark)

    def write_results(run_dir, *args, **kwargs):
        out = tracer.call("cli.write_results", originals["write_results"],
                          run_dir, *args, **kwargs)
        tracer.add("cli.csv_bytes", (run_dir / "results.csv").stat().st_size)
        return out

    return {"substream": substream, "sample_W": sample_W, "run_chunked": run_chunked,
            "bm_chunk_pass": bm_chunk_pass, "run_experiment": run_experiment,
            "write_results": write_results}


def install(tracer: Tracer):
    """Wrap every target in the loaded penalab modules; returns an undo function."""
    for modname in {t[0] for t in TARGETS} | {m[0] for m in METHODS}:
        importlib.import_module(modname)
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "penalab" or k.startswith("penalab."))]
    originals = {attr: getattr(sys.modules[mod], attr) for mod, attr, _ in TARGETS}
    special = _special_wrappers(tracer, originals)
    undo = []
    for _, attr, name in TARGETS:
        orig = originals[attr]
        wrapped = special.get(attr) or tracer.wrap(name, orig)
        functools.update_wrapper(wrapped, orig)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, orig))
    for modname, clsname, meth, name in METHODS:
        cls = getattr(sys.modules[modname], clsname)
        orig = cls.__dict__[meth]
        setattr(cls, meth, tracer.wrap(name, orig))
        undo.append((cls, meth, orig))

    def uninstall():
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)
    return uninstall


# -- from spans to metrics -------------------------------------------------------


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the time its children cover, clipped to
    the span's own interval."""
    bounds = {sid: (t0, t1) for sid, _, t0, t1, _, _ in spans}
    children = defaultdict(list)
    for sid, _, t0, t1, parent, _ in spans:
        if parent in bounds:
            children[parent].append((t0, t1))
    out = {}
    for sid, (t0, t1) in bounds.items():
        kids = [(max(s, t0), min(e, t1)) for s, e in children.get(sid, ()) if e > t0 and s < t1]
        out[sid] = (t1 - t0) - covered(kids)
    return out


def layer_metrics(spans, counters, experiments) -> dict:
    """Per-layer metrics, name -> (value, unit), from spans and counters."""
    selfs = self_times(spans)
    calls, self_s, dur = Counter(), defaultdict(float), defaultdict(float)
    names = {}
    for sid, name, t0, t1, _, _ in spans:
        names[sid] = name
        calls[name] += 1
        self_s[name] += selfs[sid]
        dur[name] += t1 - t0
    eval_in_bm = defaultdict(float)
    for sid, name, t0, t1, parent, _ in spans:
        if name == "estimator.eval_matrix" and names.get(parent) == "estimator.bm_chunk":
            eval_in_bm[parent] += t1 - t0
    bm_sample = sum(t1 - t0 - eval_in_bm[sid]
                    for sid, name, t0, t1, _, _ in spans if name == "estimator.bm_chunk")
    worker_s = counters.get("estimator.worker_s", 0.0)

    def count(name):
        return (counters.get(name, 0), "count")

    m = {}
    for name in CALL_METRICS:
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.s"] = (self_s[name], "s")
    m["samplers.rng_words"] = count("samplers.rng_words")
    m["samplers.path_steps"] = count("samplers.path_steps")
    m["estimator.run_chunked.calls"] = (calls["estimator.run_chunked"], "count")
    m["estimator.paths"] = count("estimator.paths")
    m["estimator.chunks"] = count("estimator.chunks")
    m["estimator.chunk_fn.s"] = (dur["estimator.chunk_fn"], "s")
    m["estimator.self_s"] = (self_s["estimator.run_chunked"], "s")
    m["estimator.parallel_eff"] = (dur["estimator.chunk_fn"] / worker_s if worker_s else 0.0,
                                   "ratio")
    m["estimator.bm_sample_s"] = (bm_sample, "s")
    m["estimator.bm_steps"] = count("estimator.bm_steps")
    for exp in experiments:
        m[f"experiments.{exp}.s"] = (dur[f"experiments.{exp}"], "s")
    m["experiments.self_s"] = (sum(self_s[f"experiments.{exp}"] for exp in experiments), "s")
    # the experiments' per-path code between traced calls, inside chunks
    m["experiments.chunk_self_s"] = (self_s["estimator.chunk_fn"], "s")
    m["cli.write_results.s"] = (dur["cli.write_results"], "s")
    m["cli.csv_bytes"] = (counters.get("cli.csv_bytes", 0), "bytes")
    m["config.config_from_sources.s"] = (dur["config.config_from_sources"], "s")
    return m
