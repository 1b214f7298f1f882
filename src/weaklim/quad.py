"""Adaptive complex-valued quadrature on embedded Gauss-Legendre panels.

Three integral shapes are used by the rest of the library, with no
per-caller overrides:

    integrate_finite         finite interval, algebraic endpoint behavior
    integrate_pairing        test function against a kernel family on a
                             finite window, refined around the origin peak;
                             integrate_pairings takes a ladder of them
    integrate_semi_infinite  [0, inf) with exponential decay: the pairing
                             window over [0, T] plus the caller's exact tail

Each integral is one adaptive pass, with one heap over the panels of its
pieces (a window, or the two ends of a finite integral) and one stopping rule.
Each panel is evaluated with a 21-point Gauss-Legendre rule; the error
estimate is the difference against the embedded 10-point rule.  At an end
where f(u) = u^(p-1) g(u), u the distance to the end, the panel takes product
weights on the same nodes, which integrate u^(p-1) exactly against the
polynomial through g's values (QUADPACK's QAWS).  The worst panel is bisected
until the total estimate meets max(floor, rel_tol * |value|) or the
subdivision budget is exhausted.  The floor is abs_tol capped at rel_tol
times the summed |value| of the initial panels, so a tiny integrand still
meets the relative contract.  A window's angular frequency ``osc_freq`` cuts
its initial panels at half periods while they fit half the budget; a faster
oscillation is left to bisection.

Panels are evaluated in batches, one integrand call each: the initial
partition of each piece, then the two halves of each bisection.  A ladder of
pairings, one integral per rung (p, origin_scale), shares one batch for the
initial partitions of all its rungs, kernel(ts, ps) with each node's p; each
rung then bisects in its own heap with kernel(ts, p).  Integrands receive a
numpy array of abscissae, the batch's nodes panel by panel, and must return
an array of values (real or complex); values that each depend on their own
abscissa (and p) only give the same result, bit for bit, as one call per
panel, and at every SIMD level and BLAS kernel: the rules are row sums of
products through complexfn's kit.  Everything here is pure and
deterministic; independent integrations may run concurrently.
"""

from __future__ import annotations

import cmath
import heapq
import itertools
import math
from dataclasses import dataclass

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
    "integrate_pairings",
]

_X_LO, _W_LO = np.polynomial.legendre.leggauss(10)
_X_HI, _W_HI = np.polynomial.legendre.leggauss(21)
_NODES = np.concatenate([_X_HI, _X_LO])
_WEIGHTS = np.concatenate([_W_HI, _W_LO])
# (k + 1/2) P_k(x_j) w_j for k < 21, and 0 past k = 9 on the 10-point nodes.
_LEGENDRE = np.polynomial.legendre.legvander(_NODES, 20).T * (np.arange(21) + 0.5)[:, None]
_LEGENDRE = (_LEGENDRE * _WEIGHTS).astype(complex)
_LEGENDRE[10:, 21:] = 0.0
_LOG1P = np.array([math.log1p(x) for x in _NODES.tolist()], dtype=complex)


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


def _end_weights(p: complex) -> np.ndarray:
    """The 31 weights of a panel [0, d] on which f(u) = u^(p-1) g(u), g smooth.

    w_j (1+x_j)^(1-p) sum_k (k+1/2) P_k(x_j) m_k, from the moments m_k of
    (1+x)^(p-1) P_k over [-1, 1]: m_0 = 2^p / p, m_(k+1) = m_k (p-1-k) / (p+1+k).
    The factor (1+x_j)^(1-p) divides the weight back out of f.  CPython
    moments and _times make the weights the same at every SIMD level; at
    p = 1 they are _WEIGHTS, bit for bit.
    """
    p = complex(p)
    moments = [2.0 ** p / p]
    for k in range(20):
        moments.append(moments[-1] * (p - 1 - k) / (p + 1 + k))
    sums = _times(_LEGENDRE, np.array(moments)[:, None]).sum(axis=0)
    return _times(sums, np.exp(_times(_LOG1P, 1.0 - p)))


def _panels(f, spans):
    """(value, error estimate) of each panel (a, b, row) in spans, from one call of f.

    Both rules are row sums of f times the row of weights, _WEIGHTS or an end's.
    """
    a, b, rows = map(np.array, zip(*spans))
    halves = 0.5 * (b - a)
    xs = (0.5 * (a + b))[:, None] + halves[:, None] * _NODES
    ys = np.ascontiguousarray(f(xs.ravel()), dtype=complex).reshape(xs.shape)
    sums = np.add.reduceat(_times(ys, rows), [0, 21], axis=1).tolist()
    for half, (w_hi, w_lo) in zip(halves.tolist(), sums):
        hi, lo = half * w_hi, half * w_lo
        yield hi, abs(hi - lo)


def _spans(breakpoints, row) -> list:
    """The panels (a, b, row) between breakpoints: the first takes ``row``, the
    rest _WEIGHTS."""
    rows = itertools.chain([row], itertools.repeat(_WEIGHTS))
    spans = [s for s in zip(breakpoints[:-1], breakpoints[1:], rows) if s[1] > s[0]]
    if not spans:
        raise DomainError("non-empty interval")
    return spans


def _seed(pieces) -> list:
    """The initial panels (a, b, row, value, error, f) of (f, breakpoints, row)
    pieces, from one call of each piece's f."""
    panels = []
    for f, breakpoints, row in pieces:
        spans = _spans(breakpoints, row)
        panels += [(*span, *out, f) for span, out in zip(spans, _panels(f, spans))]
    return panels


def _adaptive(panels, spec: QuadratureSpec):
    """Worst-panel bisection of evaluated panels (a, b, row, value, error, f), one heap.

    A bisected panel's left half keeps its row and its right half takes
    _WEIGHTS; both are evaluated by one call of the panel's own f.
    """
    heap = []
    seq = itertools.count()

    def push(a, b, row, val, err, f):
        heapq.heappush(heap, (-err, next(seq), a, b, row, val, err, f))

    def sums():
        return sum(item[5] for item in heap), sum(item[6] for item in heap)

    for panel in panels:
        push(*panel)
    evals = 31 * len(heap)

    scale = sum(abs(item[5]) for item in heap)
    abs_tol = min(spec.abs_tol, max(scale * spec.rel_tol, 1e-300))

    total, err_total = sums()
    splits = 0
    while err_total > max(abs_tol, spec.rel_tol * abs(total)):
        if splits >= spec.max_subdivisions:
            raise ConvergenceError(
                "quadrature did not converge within the subdivision budget",
                IntegralResult(total, err_total, evals),
            )
        _, _, a, b, row, val, err, f = heapq.heappop(heap)
        m = 0.5 * (a + b)
        (v1, e1), (v2, e2) = _panels(f, [(a, m, row), (m, b, _WEIGHTS)])
        push(a, m, row, v1, e1, f)
        push(m, b, _WEIGHTS, v2, e2, f)
        evals += 62
        total += v1 + v2 - val
        err_total += e1 + e2 - err
        splits += 1
        if splits % 256 == 0:  # kill accumulation drift in the running sums
            total, err_total = sums()
    res = IntegralResult(*sums(), evals)
    if not (cmath.isfinite(res.value) and math.isfinite(res.error_estimate)):
        # A NaN estimate ends the loop above as if it had converged.
        raise ConvergenceError("quadrature produced a non-finite value", res)
    return res


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


def _partition(a: float, b: float, spec: QuadratureSpec, inner: float | None,
               freq: float | None) -> list[float]:
    """Initial breakpoints of a finite [a, b]; half periods may take half the budget."""
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError("finite interval [a, b]")
    return _breakpoints(a, b, inner, freq, spec.max_subdivisions // 2)


def _window(f, a: float, b: float, spec: QuadratureSpec | None, inner: float | None,
            freq: float | None) -> IntegralResult:
    """Adaptive pass over a finite [a, b] from its _partition."""
    spec = spec or DEFAULT_SPEC
    return _adaptive(_seed([(f, _partition(a, b, spec, inner, freq), _WEIGHTS)]), spec)


def _default_edge(f, end: float, sign: float, name: str):
    """f(end + sign * u); a distance u > 0 that rounds onto the end raises."""
    def g(u):
        t = end + sign * u
        if np.any(t == end):
            raise DomainError(name, f"a distance to {end!r} rounds to 0; pass {name}")
        return f(t)

    return g


def integrate_finite(f, a: float, b: float, exps: EndpointExponents | None = None,
                     spec: QuadratureSpec | None = None, *,
                     left_edge=None, right_edge=None) -> IntegralResult:
    """Integrate f over [a, b], absorbing algebraic endpoint singularities.

    ``exps`` declares the endpoint exponents: f ~ u^(p-1) at distance u from
    an end.  The halves [a, mid] and [mid, b] are integrated in u, each from
    an end panel whose weights (_end_weights) integrate u^(p-1) exactly, in
    one adaptive pass judged on their sum.

    ``left_edge`` and ``right_edge``, when given, are the caller's stable
    ``g(u) = f(endpoint -+ u)`` and replace f on the halves, where
    ``f(b - u)`` would lose u's digits to b.  Without one, a node whose
    distance rounds onto its endpoint raises DomainError, as when an end
    declared smoother than it is gets bisected toward it.
    """
    spec = spec or DEFAULT_SPEC
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError("a < b finite")

    exps = exps or EndpointExponents()
    mid = 0.5 * (a + b)
    # Each half in distance coordinates u = t - a (left) or u = b - t (right).
    left = left_edge or _default_edge(f, a, 1.0, "left_edge")
    right = right_edge or _default_edge(f, b, -1.0, "right_edge")
    return _adaptive(_seed([(left, [0.0, mid - a], _end_weights(exps.left_p)),
                            (right, [0.0, b - mid], _end_weights(exps.right_p))]), spec)


def integrate_semi_infinite(f, cut: float, tail: complex,
                            spec: QuadratureSpec | None = None, *,
                            osc_freq: float | None = None) -> IntegralResult:
    """Integrate f over [0, inf) as the window [0, cut] plus ``tail``.

    ``tail`` is f's integral over [cut, inf) in the caller's closed form, and
    ``osc_freq`` the window's angular frequency.  A non-finite tail raises
    ConvergenceError, as a non-finite window does.
    """
    res = _window(f, 0.0, cut, spec, None, osc_freq)
    res.value += tail
    if not cmath.isfinite(res.value):
        raise ConvergenceError("the closed-form tail is not finite", res)
    return res


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
    This is the one-rung case of integrate_pairings.
    """
    return integrate_pairings(phi, lambda ts, _: kernel(ts), a, b, [(None, origin_scale)],
                              spec, osc_freq=osc_freq)[0]


def integrate_pairings(phi, kernel, a: float, b: float, rungs,
                       spec: QuadratureSpec | None = None, *,
                       osc_freq: float | None = None) -> list[IntegralResult]:
    """phi(tau) * kernel(tau, p) over [a, b] at each rung (p, origin_scale).

    Each rung is its own integral, as integrate_pairing's with that
    ``origin_scale``, and gives the same result bit for bit: one call
    kernel(ts, ps), ps each node's p, evaluates the initial panels of every
    rung, and each rung then bisects its worst panels in its own heap, with
    kernel(ts, p).
    """
    spec = spec or DEFAULT_SPEC
    pieces = []
    for p, scale in rungs:
        if scale is not None and not scale > 0.0:
            raise DomainError("origin_scale > 0")
        pts = _partition(a, b, spec, scale or 1e-6 * (b - a), osc_freq)
        pieces.append((p, _spans(pts, _WEIGHTS)))

    def integrand(p):
        return lambda ts: np.asarray(phi(ts)) * np.asarray(kernel(ts, p))

    ps = np.repeat([p for p, _ in pieces], [31 * len(spans) for _, spans in pieces])
    seeds = iter(_panels(integrand(ps), [span for _, spans in pieces for span in spans]))
    results = []
    for p, spans in pieces:
        f = integrand(p)
        results.append(_adaptive([(*span, *next(seeds), f) for span in spans], spec))
    return results
