"""Adaptive complex-valued quadrature on embedded Gauss-Legendre panels.

Three entry points cover the integral shapes used by the rest of the
library, with no per-caller overrides:

    integrate_finite         finite interval, algebraic endpoint behavior
    integrate_pairing        test function against a kernel family on a
                             finite window, refined around the origin peak
    integrate_semi_infinite  [0, inf) with exponential decay: the pairing
                             window over [0, T] plus the caller's exact tail

Each integral is one adaptive pass, with one heap over the panels of its
pieces (a window, or the two ends of a finite integral) and one stopping
rule.  Each panel is evaluated with a 21-point Gauss-Legendre rule; the error
estimate is the difference against the embedded 10-point rule, or at least
integral |f - mean| on an under-sampled panel at a log-oscillating end.  The panel
with the worst estimate is bisected until the total estimate meets
max(floor, rel_tol * |value|) or the subdivision budget is exhausted.  The
floor is abs_tol capped at rel_tol times the summed |value| of the initial
panels, so a tiny integrand still meets the relative contract.  A window's
angular frequency ``osc_freq`` cuts its initial panels at half periods
while they fit half the budget; a faster oscillation is left to bisection.

Panels are evaluated in batches, one integrand call each: the initial
partition of each piece, then the two halves of each bisection.  Integrands
receive a numpy array of abscissae, the batch's nodes panel by panel, and
must return an array of values (real or complex); values that each depend
on their own abscissa only give the same result, bit for bit, as one call
per panel, and on every BLAS kernel: the rules are row sums, not BLAS
products.  Everything here is pure and deterministic; independent
integrations may run concurrently.
"""

from __future__ import annotations

import cmath
import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .complexfn import DomainError

__all__ = [
    "QuadratureSpec",
    "IntegralResult",
    "EndpointExponents",
    "ConvergenceError",
    "integrate_finite",
    "integrate_semi_infinite",
    "integrate_pairing",
]

_X_LO, _W_LO = np.polynomial.legendre.leggauss(10)
_X_HI, _W_HI = np.polynomial.legendre.leggauss(21)
_NODES = np.concatenate([_X_HI, _X_LO])
_WEIGHTS = np.concatenate([_W_HI, _W_LO])


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
        for name in ("left_p", "right_p"):
            if not complex(getattr(self, name)).real > 0.0:
                raise DomainError(f"Re({name}) > 0")


class ConvergenceError(RuntimeError):
    """Subdivision budget exhausted; carries the best estimate so far."""

    def __init__(self, message: str, best: IntegralResult):
        self.best = best
        super().__init__(f"{message} (best estimate {best.value!r}, "
                         f"error estimate {best.error_estimate:.3e})")


def _panels(f, spans, watch):
    """(value, error estimate) of each panel (a, b) in spans, from one call of f.

    Both rules are row sums over the batch.  A panel at a ``watch`` end, where
    f ~ s^(i w), is under-sampled at every scale, and there the two rules can
    agree by accident.  Adjacent 21-point values that differ by over 3/4 of
    their size in mean square (s^(i w) from w ~ 4; |hi - lo| is honest below
    w ~ 15) raise it to integral |f - mean|.
    """
    a, b = np.array(spans, dtype=float).T
    halves = 0.5 * (b - a)
    xs = (0.5 * (a + b))[:, None] + halves[:, None] * _NODES
    ys = np.ascontiguousarray(f(xs.ravel()), dtype=complex).reshape(xs.shape)
    sums = np.add.reduceat(ys * _WEIGHTS, [0, 21], axis=1).tolist()
    for (a, b), half, (w_hi, w_lo), y in zip(spans, halves.tolist(), sums, ys):
        hi, lo = half * w_hi, half * w_lo
        err = abs(hi - lo)
        if a in watch or b in watch:
            jumps = (y[1:21] - y[:20]).view(float)
            if np.square(jumps).sum() > 0.75 * np.square(y[:21].view(float)).sum():
                d = y[:21] - 0.5 * w_hi
                err = max(err, half * (np.hypot(d.real, d.imag) * _W_HI).sum())
        yield hi, err


def _adaptive(pieces, spec: QuadratureSpec):
    """Worst-panel bisection of (integrand, breakpoints, watch) pieces, one heap."""
    heap = []
    seq = itertools.count()

    def push(f, spans, watch):
        out = list(_panels(f, spans, watch))
        for (a, b), (val, err) in zip(spans, out):
            heapq.heappush(heap, (-err, next(seq), a, b, val, err, f, watch))
        return out

    def sums():
        return sum(item[4] for item in heap), sum(item[5] for item in heap)

    for f, breakpoints, watch in pieces:
        spans = [(a, b) for a, b in zip(breakpoints[:-1], breakpoints[1:]) if b > a]
        if not spans:
            raise DomainError("non-empty interval")
        push(f, spans, watch)
    evals = 31 * len(heap)

    scale = sum(abs(item[4]) for item in heap)
    abs_tol = min(spec.abs_tol, max(scale * spec.rel_tol, 1e-300))

    total, err_total = sums()
    splits = 0
    while err_total > max(abs_tol, spec.rel_tol * abs(total)):
        if splits >= spec.max_subdivisions:
            raise ConvergenceError(
                "quadrature did not converge within the subdivision budget",
                IntegralResult(total, err_total, evals),
            )
        _, _, a, b, val, err, f, watch = heapq.heappop(heap)
        m = 0.5 * (a + b)
        (v1, e1), (v2, e2) = push(f, [(a, m), (m, b)], watch)
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


def _window(f, a: float, b: float, spec: QuadratureSpec | None, inner: float | None,
            freq: float | None) -> IntegralResult:
    """Adaptive pass over a finite [a, b]; half periods may take half the budget."""
    spec = spec or DEFAULT_SPEC
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError("finite interval [a, b]")
    pts = _breakpoints(a, b, inner, freq, spec.max_subdivisions // 2)
    return _adaptive([(f, pts, ())], spec)


def _end_piece(f, edge, lo: float, hi: float, p: complex):
    """(integrand, breakpoints, watch) of one end of a finite integral, on [lo, hi].

    An end with Re p < 1 or Im p != 0 becomes s in [0, (hi - lo)^r], clustered
    toward 0, for the distance u = s^(1/r), r = min(Re p, 1): the edge integrand
    ~ u^(p-1) becomes ~ s^(p/r - 1), of real exponent 0 for Re p <= 1, and s = 0
    is watched if Im p != 0.  At r = 1 it is the edge integrand, bit for bit.
    """
    p = complex(p)
    if not (p.real < 1.0 - 1e-12 or abs(p.imag) > 1e-12):
        return f, [lo, hi], ()
    r = min(p.real, 1.0)
    inv = 1.0 / r

    def g(s):  # real ** is SIMD code; exact while 1/r and 1/r - 1 are in {0, 1, 2}, as for E04
        return edge(s ** inv) * inv * s ** (inv - 1.0)

    top = (hi - lo) ** r
    return g, _breakpoints(0.0, top, top * 1e-8), (0.0,) if p.imag else ()


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

    ``exps`` declares the endpoint exponents; an end with Re p < 1 or a
    nonzero imaginary exponent is removed by the variable change
    t = a + s^(1/r), r = min(Re p, 1) (mirrored on the right).  Both ends
    then go into one adaptive pass, judged on their sum.

    A strongly singular end pushes evaluations below the floating-point
    spacing of the endpoint, where ``f(b - u)`` would see ``b`` itself.
    ``left_edge`` and ``right_edge``, when given, are the caller's stable
    ``g(u) = f(endpoint -+ u)`` and replace f on the end pieces; without one,
    an end piece whose distance rounds onto the endpoint raises DomainError.
    """
    spec = spec or DEFAULT_SPEC
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError("a < b finite")

    exps = exps or EndpointExponents()
    mid = 0.5 * (a + b)
    # Each end in distance coordinates u = t - a (left) or u = b - t (right).
    left = left_edge or _default_edge(f, a, 1.0, "left_edge")
    right = right_edge or _default_edge(f, b, -1.0, "right_edge")
    return _adaptive([_end_piece(f, left, a, mid, exps.left_p),
                      _end_piece(f, right, mid, b, exps.right_p)], spec)


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
    """
    if origin_scale is not None and not origin_scale > 0.0:
        raise DomainError("origin_scale > 0")

    def g(ts):
        return np.asarray(phi(ts)) * np.asarray(kernel(ts))

    return _window(g, a, b, spec, origin_scale or 1e-6 * (b - a), osc_freq)
