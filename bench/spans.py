"""Layer spans of weaklim, recorded from outside the library.

``Tracer.installed()`` wraps every public function of each layer module
wherever a module namespace holds it: in the defining module, reached by
qualified calls such as ``hyper.hyp2f1``, and in every module that imported
it by name, such as ``log_gamma`` in ``distrib``.  ``Claim.run`` is wrapped
for per-claim spans.  Everything is restored on exit, and the library's
source is never touched.

A call opens a span only at a layer boundary: when no span is open (the
benchmark called it) or the innermost open span belongs to another layer.
Calls inside a layer pass straight through.  The integrand an
``integrate_*`` function receives is wrapped as well.  Its span belongs to
the layer that built it, which is the caller of ``integrate_*``, so quad's
self time excludes kernel time.  Spans stay in memory until the caller
writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import weaklim

LAYERS = ("complexfn", "quad", "distrib", "hyper", "legendre", "claims", "report")
IMPORT_SITES = LAYERS + ("cli",)
BENCH_LAYER = "bench"  # integrands the benchmark builds itself

# Integrand arguments of each quad entry point, by position and by keyword.
# integrate_pairing evaluates phi * kernel: the kernel counts as the
# integrand call, phi is timed as a probe span.
_INTEGRANDS = {
    "integrate_finite": ((0,), ("left_edge", "right_edge")),
    "integrate_semi_infinite": ((0,), ()),
    "integrate_pairing": ((1,), ()),
}

COUNT_METRICS = (
    "complexfn.calls", "complexfn.points", "complexfn.errors",
    "quad.integrals", "quad.integrand_calls", "quad.nodes", "quad.failed",
    "distrib.calls", "hyper.calls", "hyper.hyp2f1_calls", "legendre.calls",
)

SPAN_FIELDS = ("span", "parent", "layer", "kind", "name", "start", "end",
               "points", "error", "op")


def _import_sites() -> dict:
    return {n: importlib.import_module(f"weaklim.{n}") for n in IMPORT_SITES}


@contextlib.contextmanager
def _patched(mods, wrappers, claim_run):
    """Bind ``wrappers[f]`` to every module-level name that holds ``f``, and
    route ``Claim.run`` through ``claim_run(claim, cfg, original)``; both are
    restored on exit."""
    patched = []
    for mod in (*mods.values(), weaklim):
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patched.append((mod, name, obj))
                setattr(mod, name, wrappers[obj])
    claim_cls = mods["claims"].Claim
    original = claim_cls.run
    claim_cls.run = lambda claim, cfg: claim_run(claim, cfg, original)
    try:
        yield
    finally:
        claim_cls.run = original
        for mod, name, obj in patched:
            setattr(mod, name, obj)


class Checkpoints:
    """Clock readings at fixed points of a pass.

    A reading is taken each time an integrand handed to ``integrate_*``, a
    ``hyp2f1`` call or a ``Claim.run`` returns.  Ops are deterministic, so
    every pass yields the same sequence of points, and the readings cut a
    long op into short segments: a ``verify_all`` pass into about 3,400 (the
    longest, one ``hyp2f1`` series near z = 1, takes tens of milliseconds),
    a ``quad_integrals`` pass into about 77,000.  The untraced run times an
    op as the sum of each of its segments' fastest time over the passes.
    The wrappers cost about 0.3 microseconds a reading: under 0.1% of a
    ``verify_all`` pass and 1-2% of a ``quad_integrals`` pass.
    """

    def __init__(self):
        self.marks = array("d")

    def _marked(self, fn):
        mark = self.marks.append

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                mark(perf_counter())

        return marked

    def _entry(self, fn):
        positions, keywords = _INTEGRANDS[fn.__name__]

        @functools.wraps(fn)
        def entry(*args, **kwargs):
            args = list(args)
            for i in positions:
                args[i] = self._marked(args[i])
            for k in keywords:
                if kwargs.get(k) is not None:
                    kwargs[k] = self._marked(kwargs[k])
            return fn(*args, **kwargs)

        return entry

    @contextlib.contextmanager
    def installed(self):
        """Patch every import site for the duration of the block."""
        mods = _import_sites()
        quad, hyp2f1 = mods["quad"], mods["hyper"].hyp2f1
        wrappers = {getattr(quad, n): self._entry(getattr(quad, n)) for n in _INTEGRANDS}
        wrappers[hyp2f1] = self._marked(hyp2f1)
        run = self._marked(lambda claim, cfg, claim_run: claim_run(claim, cfg))
        with _patched(mods, wrappers, run):
            yield self

class Tracer:
    """Span recorder for one traced pass; create a fresh one per pass."""

    def __init__(self):
        self.spans = []   # tuples laid out as SPAN_FIELDS
        self.stack = []   # open spans as (span id, layer)
        self.op = -1      # index in the pool of the op being run
        self._ids = itertools.count()

    def _run(self, layer, kind, name, points, fn, args, kwargs):
        sid = next(self._ids)
        parent = self.stack[-1][0] if self.stack else None
        self.stack.append((sid, layer))
        error = None
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans.append((sid, parent, layer, kind, name, start, end,
                               points, error, self.op))

    def _caller_layer(self):
        return self.stack[-1][1] if self.stack else BENCH_LAYER

    def _integrand(self, fn, layer, kind, name):
        def traced(x):
            return self._run(layer, kind, name, getattr(x, "size", 1), fn, (x,), {})
        return traced

    def _wrap(self, layer, fn):
        name = fn.__name__
        stack = self.stack
        positions, keywords = _INTEGRANDS.get(name, ((), ()))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            if layer == "quad":
                owner = self._caller_layer()
                args = list(args)
                for i in positions:
                    args[i] = self._integrand(args[i], owner, "integrand", name)
                for k in keywords:
                    if kwargs.get(k) is not None:
                        kwargs[k] = self._integrand(kwargs[k], owner, "integrand", name)
                if name == "integrate_pairing":
                    phi = getattr(args[0], "fn", args[0])
                    args[0] = self._integrand(phi, owner, "probe", name)
            points = getattr(args[0], "size", 1) if layer == "complexfn" and args else 1
            return self._run(layer, "call", name, points, fn, args, kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every import site for the duration of the block."""
        mods = _import_sites()
        wrappers = {}
        for layer in LAYERS:
            mod = mods[layer]
            for name in mod.__all__:
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(layer, obj)
        run = lambda claim, cfg, claim_run: self._run(
            "claims", "claim", claim.id, 1, claim_run, (claim, cfg), {})
        with _patched(mods, wrappers, run):
            yield self

    def summary(self, claim_ids) -> dict:
        """Per-layer counts and self times of the recorded spans.

        Self time is a span's duration minus that of its direct children.
        Counts are of boundary calls, so they do not depend on timing.
        """
        child = defaultdict(float)
        for s in self.spans:
            if s[1] is not None:
                child[s[1]] += s[6] - s[5]
        counts = Counter({k: 0 for k in COUNT_METRICS})
        times = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        times.update({f"claims.{cid}_s": 0.0 for cid in claim_ids})
        for sid, _, layer, kind, name, start, end, points, error, _ in self.spans:
            key = f"{layer}.self_s"
            if key in times:
                times[key] += (end - start) - child[sid]
            if kind == "claim":
                times[f"claims.{name}_s"] += end - start
            elif kind == "integrand":
                counts["quad.integrand_calls"] += 1
                counts["quad.nodes"] += points
            elif kind == "call":
                if layer == "quad":
                    counts["quad.integrals"] += 1
                    counts["quad.failed"] += error == "ConvergenceError"
                elif f"{layer}.calls" in counts:
                    counts[f"{layer}.calls"] += 1
                if layer == "complexfn":
                    counts["complexfn.points"] += points
                    counts["complexfn.errors"] += error is not None
                elif name == "hyp2f1":
                    counts["hyper.hyp2f1_calls"] += 1
        return {"counts": dict(counts), "times": times}

    def write_spans(self, path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        origin = min((s[5] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                rec = dict(zip(SPAN_FIELDS, s))
                rec["start"] -= origin
                rec["end"] -= origin
                fh.write(json.dumps(rec) + "\n")
