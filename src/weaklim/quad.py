"""Adaptive complex-valued quadrature on embedded Gauss-Legendre panels.

Three integral shapes are used by the rest of the library, with no
per-caller overrides:

    integrate_finite         finite interval, algebraic endpoint behavior
    integrate_pairing        test function against a kernel family on a
                             finite window, refined around the origin peak
    integrate_semi_infinite  [0, inf) with exponential decay: the pairing
                             window over [0, T] plus the caller's exact tail

integrate_batch takes a grid of them at once (Window, Ends).  Each integral
is one adaptive pass, with one heap over the panels of its pieces (a window,
or the two ends of a finite integral) and one stopping rule.  Each panel is
evaluated with a 21-point Gauss-Legendre rule; the error estimate is the
difference against the embedded 10-point rule.  At an end where
f(u) = u^(p-1) g(u), u the distance to the end, the panel takes product
weights on the same nodes, which integrate u^(p-1) exactly against the
polynomial through g's values (QUADPACK's QAWS).  The worst panel is bisected
until the total estimate meets max(floor, rel_tol * |value|) or the
subdivision budget is exhausted.  The floor is abs_tol capped at rel_tol
times the summed |value| of the initial panels, so a tiny integrand still
meets the relative contract.  A window's angular frequency ``osc_freq`` cuts
its initial panels at half periods while they fit half the budget; a faster
oscillation is left to bisection.

Panels are evaluated in batches, one integrand call each, by one routine that
runs every integral of a batch in lockstep (a scalar entry point is a batch
of one), in the manner of Shampine's vectorized adaptive quadrature (J.
Comput. Appl. Math. 211, 2008).  A batch has one integrand, g(ts, keys):
keys holds each node's key (a ladder rung's parameter or index, a grid
point's index, the side of a finite integral), or the one key of a call
whose nodes share it.  One call evaluates the initial panels of all integrals; then each
round pops the worst panel of every integral still above its target and
evaluates all their halves in one call.  Integrands receive a numpy array of abscissae, panel by
panel, and must return an array of values (real or complex); values that
each depend on their own abscissa and key only give each integral the same
result, bit for bit, as a batch of its own or one call per panel, and at
every SIMD level and BLAS kernel: each integral keeps its own heap and sums,
and the rules are row sums of products through complexfn's kit.  Everything
here is pure and deterministic; independent integrations may run
concurrently.
"""

from __future__ import annotations

import cmath
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .complexfn import DomainError, _times

__all__ = [
    "QuadratureSpec",
    "IntegralResult",
    "EndpointExponents",
    "ConvergenceError",
    "integrate_finite",
    "integrate_semi_infinite",
    "integrate_pairing",
    "integrate_batch",
    "Window",
    "Ends",
]

_X_LO, _W_LO = np.polynomial.legendre.leggauss(10)
_X_HI, _W_HI = np.polynomial.legendre.leggauss(21)
_NODES = np.concatenate([_X_HI, _X_LO])
_WEIGHTS = np.concatenate([_W_HI, _W_LO])
# (k + 1/2) P_k(x_j) w_j for k < 21, and 0 past k = 9 on the 10-point nodes.
_LEGENDRE = np.polynomial.legendre.legvander(_NODES, 20).T * (np.arange(21) + 0.5)[:, None]
_LEGENDRE = _LEGENDRE * _WEIGHTS
_LEGENDRE[10:, 21:] = 0.0
_LOG1P = np.array([math.log1p(x) for x in _NODES.tolist()])
_WEIGHTS_C = _WEIGHTS.astype(complex)  # _WEIGHTS weighed beside an end's complex row


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance budget for one integration."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not self.abs_tol > 0.0:
            raise DomainError("abs_tol > 0")
        if not self.rel_tol > 0.0:
            raise DomainError("rel_tol > 0")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions >= 1")


DEFAULT_SPEC = QuadratureSpec()


@dataclass
class IntegralResult:
    """Value plus diagnostics of one integration."""

    value: complex
    error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class EndpointExponents:
    """Algebraic endpoint behavior f ~ t^(left_p - 1), (b - t)^(right_p - 1)."""

    left_p: complex = 1.0 + 0j
    right_p: complex = 1.0 + 0j

    def __post_init__(self):
        for name in ("left_p", "right_p"):  # end weights overflow from Re p ~ 140
            if not 0.0 < complex(getattr(self, name)).real <= 100.0:
                raise DomainError(f"0 < Re({name}) <= 100")


class ConvergenceError(RuntimeError):
    """Subdivision budget exhausted; carries the best estimate so far."""

    def __init__(self, message: str, best: IntegralResult):
        self.best = best
        super().__init__(f"{message} (best estimate {best.value!r}, "
                         f"error estimate {best.error_estimate:.3e})")


def _end_weights(ps) -> np.ndarray:
    """The 31 weights of a panel [0, d] on which f(u) = u^(p-1) g(u), g smooth,
    one row for each p of ps.

    w_j (1+x_j)^(1-p) sum_k (k+1/2) P_k(x_j) m_k, from the moments m_k of
    (1+x)^(p-1) P_k over [-1, 1]: m_0 = 2^p / p, m_(k+1) = m_k (p-1-k) / (p+1+k).
    The factor (1+x_j)^(1-p) divides the weight back out of f.  The moments
    are CPython's, each p's recurrence on its own (21 complex steps cost less
    there than 20 rounds of _cmul and _cdiv over the batch).  The rows are
    built together: the real tables _LEGENDRE and _LOG1P scale each part of
    the moments and of 1 - p, as CPython's complex * with a zero imaginary
    part does up to signs of zero, and the last product goes through _times,
    so each row is the same at every SIMD level and in every batch; at p = 1
    a row is _WEIGHTS, bit for bit.
    """
    ps = [complex(p) for p in ps]
    moments = []
    for p in ps:
        moments.append([2.0 ** p / p])
        for k in range(20):
            moments[-1].append(moments[-1][-1] * (p - 1 - k) / (p + 1 + k))
    m = np.array(moments)[:, :, None]
    sums = np.empty((len(ps), 31), complex)
    sums.real, sums.imag = (_LEGENDRE * m.real).sum(axis=1), (_LEGENDRE * m.imag).sum(axis=1)
    fold = np.array([1.0 - p for p in ps])[:, None]
    exponent = np.empty_like(sums)
    exponent.real, exponent.imag = _LOG1P * fold.real, _LOG1P * fold.imag
    return _times(sums, np.exp(exponent))


def _panels(g, spans):
    """(value, error estimate) of each panel (a, b, row, key) in spans, from
    one call g(ts, keys): keys is each node's panel key, or the one key of
    every panel when they share one.

    Both rules are row sums of g times the row of weights, _WEIGHTS or an
    end's, through _times as in a call of each panel's integral alone: a
    panel whose row is _WEIGHTS is scaled by it, a complex row (an end's, or
    _WEIGHTS_C) goes through _cmul.
    """
    a, b, rows, keys = zip(*spans)
    halves = [0.5 * (y - x) for x, y in zip(a, b)]
    mids = [0.5 * (x + y) for x, y in zip(a, b)]
    xs = np.array(mids)[:, None] + np.array(halves)[:, None] * _NODES
    if keys.count(keys[0]) < len(keys):
        keys = np.repeat(keys, 31)
    else:
        keys = keys[0]
    ys = np.ascontiguousarray(g(xs.ravel(), keys), dtype=complex).reshape(xs.shape)
    plain = [row is _WEIGHTS for row in rows]
    if all(plain):
        products = _times(ys, _WEIGHTS)
    elif not any(plain):
        products = _times(ys, np.array(rows))
    else:
        products = np.empty_like(ys)
        for pick in (np.flatnonzero(plain), np.flatnonzero(np.logical_not(plain))):
            products[pick] = _times(ys[pick], np.array([rows[i] for i in pick.tolist()]))
    out = []
    for half, (w_hi, w_lo) in zip(halves, np.add.reduceat(products, [0, 21], axis=1).tolist()):
        hi, lo = half * w_hi, half * w_lo
        out.append((hi, abs(hi - lo)))
    return out


def _spans(breakpoints) -> list:
    """The panels (a, b) between breakpoints."""
    spans = [s for s in zip(breakpoints[:-1], breakpoints[1:]) if s[1] > s[0]]
    if not spans:
        raise DomainError("non-empty interval")
    return spans


class _Run:
    """One integral of a lockstep pass: its heap of panels, running sums and splits.

    A heap item is (-error, seq, a, b, row, key, value, error).
    """

    __slots__ = ("spec", "tail", "heap", "seq", "splits", "result", "failure",
                 "evals", "abs_tol", "total", "err_total")

    def __init__(self, spec: QuadratureSpec, tail):
        self.spec, self.tail = spec, tail
        self.heap, self.seq = [], itertools.count()
        self.splits = 0
        self.result = self.failure = None

    def sums(self):
        """The value and estimate summed over the heap, in heap order."""
        return sum([item[6] for item in self.heap]), sum([item[7] for item in self.heap])

    def start(self):
        """Budget and running sums from the initial panels."""
        self.evals = 31 * len(self.heap)
        scale = sum([abs(item[6]) for item in self.heap])
        self.abs_tol = min(self.spec.abs_tol, max(scale * self.spec.rel_tol, 1e-300))
        self.total, self.err_total = self.sums()

    def finish(self):
        # Unsplit, the running sums are still the heap's sums.
        res = IntegralResult(*(self.sums() if self.splits else (self.total, self.err_total)),
                             self.evals)
        if not (cmath.isfinite(res.value) and math.isfinite(res.error_estimate)):
            # A NaN estimate ends the bisection as if it had converged.
            self.failure = ConvergenceError("quadrature produced a non-finite value", res)
            return
        if self.tail is not None:
            res.value += self.tail
            if not cmath.isfinite(res.value):
                self.failure = ConvergenceError("the closed-form tail is not finite", res)
                return
        self.result = res


def _adaptive(g, batch) -> list[IntegralResult]:
    """Worst-panel bisection of every integral of a batch, in lockstep.

    ``batch`` holds one (spec, pieces, tail) per integral: its tolerance, its
    pieces (key, breakpoints, p), each the plain panels between its
    breakpoints or, for an exponent p, one end panel [breakpoints], and a
    closed-form tail added to its value (or None).  All integrals share one
    call g(ts, keys) for their initial panels and one per round: each round
    pops the worst panel of every integral still above its target and
    evaluates all the halves together.  A bisected panel's left half keeps
    its row and its right half takes _WEIGHTS; each integral keeps its own
    heap and sums, so it sees the pops it would see alone, and its value,
    estimate and evaluation count are the same, bit for bit.  A panel is
    weighed as in a call of its own integral alone: beside an end's complex
    row, _WEIGHTS as a complex row.  The first integral in input order that
    fails raises its ConvergenceError; the integrals after a failed one stop
    at once.
    """
    ends = [p for _, pieces, _ in batch for _, _, p in pieces if p is not None]
    rows = iter(_end_weights(ends)) if ends else None
    runs, seeds, homes = [], [], []
    for spec, pieces, tail in batch:
        run = _Run(spec, tail)
        runs.append(run)
        for key, breakpoints, p in pieces:
            row = _WEIGHTS if p is None else next(rows)
            for a, b in _spans(breakpoints):
                seeds.append((a, b, row, key))
                homes.append(run)
    for run, (a, b, row, key), (val, err) in zip(homes, seeds, _panels(g, seeds)):
        heapq.heappush(run.heap, (-err, next(run.seq), a, b, row, key, val, err))
    for run in runs:
        run.start()

    live = runs
    while live:
        split, halves = [], []
        for run in live:  # in input order
            spec = run.spec
            if not run.err_total > max(run.abs_tol, spec.rel_tol * abs(run.total)):
                run.finish()
            elif run.splits >= spec.max_subdivisions:
                run.failure = ConvergenceError(
                    "quadrature did not converge within the subdivision budget",
                    IntegralResult(run.total, run.err_total, run.evals))
            else:
                item = heapq.heappop(run.heap)
                _, _, a, b, row, key, _, _ = item
                m = 0.5 * (a + b)
                split.append((run, item, m))
                halves += [(a, m, row, key),
                           (m, b, _WEIGHTS if row is _WEIGHTS else _WEIGHTS_C, key)]
                continue
            if run.failure is not None:  # the integrals after it no longer matter
                break
        outs = _panels(g, halves) if halves else []
        # The left half keeps the popped panel's row, the right half takes _WEIGHTS.
        for (run, item, m), (v1, e1), (v2, e2) in zip(split, outs[::2], outs[1::2]):
            _, _, a, b, row, key, val, err = item
            heapq.heappush(run.heap, (-e1, next(run.seq), a, m, row, key, v1, e1))
            heapq.heappush(run.heap, (-e2, next(run.seq), m, b, _WEIGHTS, key, v2, e2))
            run.evals += 62
            run.total += v1 + v2 - val
            run.err_total += e1 + e2 - err
            run.splits += 1
            if run.splits % 256 == 0:  # kill accumulation drift in the running sums
                run.total, run.err_total = run.sums()
        live = [run for run, _, _ in split]
    for run in runs:
        if run.failure is not None:
            raise run.failure
    return [run.result for run in runs]


def _breakpoints(a: float, b: float, inner: float | None = None,
                 freq: float | None = None, max_edges: float = math.inf) -> list[float]:
    """Sorted initial partition of [a, b].

    Edges at +-(b - a) / 4^k down to ``inner`` (and 0 when interior) cluster
    panels at an origin in [a, b]; ``freq`` adds an edge every half period
    pi / |freq| from a, unless that takes more than ``max_edges`` edges.
    """
    pts = {a, b}
    if inner is not None and a <= 0.0 <= b:
        s = b - a
        while s > inner:
            pts.update(x for x in (s, -s) if a < x < b)
            s /= 4.0
        if a < 0.0 < b:
            pts.add(0.0)
    if freq:
        width = math.pi / abs(freq)  # 0 or NaN for a non-finite freq: no edges
        if width > 0.0 and (b - a) / width < max_edges:
            pts.update(a + i * width for i in range(1, int((b - a) / width) + 1))
    return sorted(pts)


def _default_edge(f, end: float, sign: float, name: str):
    """f(end + sign * u); a distance u > 0 that rounds onto the end raises."""
    def g(u):
        t = end + sign * u
        if np.any(t == end):
            raise DomainError(name, f"a distance to {end!r} rounds to 0; pass {name}")
        return f(t)

    return g


class Window(NamedTuple):
    """A finite window [a, b] of an integrate_batch, with ``key`` its nodes' key.

    The shape of integrate_pairing (panels clustered at the origin down to
    ``origin_scale``, cut at half periods of ``osc_freq``) and, with no
    origin_scale, of integrate_semi_infinite, whose closed-form ``tail`` is
    added to the window's value.
    """

    key: object
    a: float
    b: float
    origin_scale: float | None = None
    osc_freq: float | None = None
    tail: complex | None = None

    def plan(self, spec: QuadratureSpec):
        """The window's plain panels; half periods may take half the budget."""
        if self.origin_scale is not None and not self.origin_scale > 0.0:
            raise DomainError("origin_scale > 0")
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise DomainError("finite interval [a, b]")
        pts = _breakpoints(self.a, self.b, self.origin_scale, self.osc_freq,
                           spec.max_subdivisions // 2)
        return spec, [(self.key, pts, None)], self.tail


class Ends(NamedTuple):
    """integrate_finite's shape in an integrate_batch: [a, b] as its halves in
    the distance u from each end, with end exponents ``exps``; g takes u, and
    the nodes of the left and right half take ``keys[0]`` and ``keys[1]``."""

    keys: tuple
    a: float
    b: float
    exps: EndpointExponents | None = None

    def plan(self, spec: QuadratureSpec):
        """Each half as one end panel in u."""
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise DomainError("a < b finite")
        exps = self.exps or EndpointExponents()
        mid = 0.5 * (self.a + self.b)
        return spec, [(self.keys[0], [0.0, mid - self.a], exps.left_p),
                      (self.keys[1], [0.0, self.b - mid], exps.right_p)], None


def integrate_batch(g, integrals, spec: QuadratureSpec | None = None) -> list[IntegralResult]:
    """Integrate each of ``integrals`` (Window or Ends) in one lockstep adaptive pass.

    ``g(ts, keys)`` is the batch's integrand, with ``keys`` each node's key,
    or the one key of a call whose nodes all share it; its value at a node
    must depend on that node's abscissa and key alone.
    Each round of bisection calls g once, on the halves of every integral
    still above its target.  Each result is the one that integral gives alone
    (integrate_pairing, integrate_semi_infinite, integrate_finite), bit for
    bit, and so is the ConvergenceError raised, that of the first integral in
    input order that fails.  Every integral is checked before any is
    integrated.
    """
    spec = spec or DEFAULT_SPEC
    return _adaptive(g, [integral.plan(spec) for integral in integrals])


def integrate_finite(f, a: float, b: float, exps: EndpointExponents | None = None,
                     spec: QuadratureSpec | None = None, *,
                     left_edge=None, right_edge=None) -> IntegralResult:
    """Integrate f over [a, b], absorbing algebraic endpoint singularities.

    ``exps`` declares the endpoint exponents: f ~ u^(p-1) at distance u from
    an end.  The halves [a, mid] and [mid, b] are integrated in u, each from
    an end panel whose weights (_end_weights) integrate u^(p-1) exactly, in
    one adaptive pass judged on their sum: the Ends keyed 0 (left) and 1
    (right), whose seed calls each edge once on its own half's nodes.

    ``left_edge`` and ``right_edge``, when given, are the caller's stable
    ``g(u) = f(endpoint -+ u)`` and replace f on the halves, where
    ``f(b - u)`` would lose u's digits to b.  Without one, a node whose
    distance rounds onto its endpoint raises DomainError, as when an end
    declared smoother than it is gets bisected toward it.
    """
    # Each half in distance coordinates u = t - a (left) or u = b - t (right).
    edges = (left_edge or _default_edge(f, a, 1.0, "left_edge"),
             right_edge or _default_edge(f, b, -1.0, "right_edge"))

    def g(u, sides):
        if not isinstance(sides, np.ndarray):  # the nodes of one side: a round's halves
            return edges[sides](u)
        out = np.empty(u.shape, complex)  # the seed: both end panels
        for side in (0, 1):
            at = sides == side
            out[at] = g(u[at], side)
        return out

    return integrate_batch(g, [Ends((0, 1), a, b, exps)], spec)[0]


def integrate_semi_infinite(f, cut: float, tail: complex,
                            spec: QuadratureSpec | None = None, *,
                            osc_freq: float | None = None) -> IntegralResult:
    """Integrate f over [0, inf) as the window [0, cut] plus ``tail``.

    ``tail`` is f's integral over [cut, inf) in the caller's closed form, and
    ``osc_freq`` the window's angular frequency.  A non-finite tail raises
    ConvergenceError, as a non-finite window does.
    """
    window = Window(None, 0.0, cut, osc_freq=osc_freq, tail=tail)
    return integrate_batch(lambda ts, _: f(ts), [window], spec)[0]


def integrate_pairing(phi, kernel, a: float, b: float,
                      spec: QuadratureSpec | None = None, *,
                      origin_scale: float | None = None,
                      osc_freq: float | None = None) -> IntegralResult:
    """Integrate phi(tau) * kernel(tau) over the finite interval [a, b].

    ``phi`` and ``kernel`` are vectorized callables (a Probe is one).
    When the origin lies in [a, b], panels are forcibly clustered around it
    down to ``origin_scale`` (default 1e-6 (b - a)) so that a
    delta-approximant peak of that width cannot slip between coarse nodes.
    ``osc_freq`` is the integrand's angular frequency, if it oscillates.
    A ladder of pairings is one integrate_batch of such windows, one key
    per rung.
    """
    scale = 1e-6 * (b - a) if origin_scale is None else origin_scale
    window = Window(None, a, b, scale, osc_freq)
    return integrate_batch(lambda ts, _: np.asarray(phi(ts)) * np.asarray(kernel(ts)),
                           [window], spec)[0]
