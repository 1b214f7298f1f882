"""Adaptive complex-valued quadrature on embedded Gauss-Legendre panels.

Three entry points cover the integral shapes used by the rest of the
library, one policy per shape and no per-caller overrides:

    integrate_finite         finite interval, algebraic endpoint behavior
    integrate_pairing        test function against a kernel family on a
                             finite window, refined around the origin peak
    integrate_semi_infinite  [0, inf) with exponential decay: the pairing
                             window over [0, T] plus the caller's exact tail

Each panel is evaluated with a 21-point Gauss-Legendre rule; the error
estimate is the difference against the embedded 10-point rule.  The panel
with the worst estimate is bisected until the total estimate meets
max(floor, rel_tol * |value|) or the subdivision budget is exhausted.  The
floor is abs_tol capped at rel_tol times the summed |value| of the initial
panels, so a tiny integrand still meets the relative contract.  A window's
angular frequency ``osc_freq`` cuts its initial panels at half periods
while they fit half the budget; a faster oscillation is left to bisection.

Panels are evaluated in batches, one integrand call each: the initial
partition, then the two halves of each bisection.  Integrands receive a
numpy array of abscissae, the batch's nodes panel by panel, and must return
an array of values (real or complex); values that each depend on their own
abscissa only give the same result, bit for bit, as one call per panel.
Everything here is pure and deterministic; independent integrations may
run concurrently.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass, replace

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
        if not complex(self.left_p).real > 0.0:
            raise DomainError("Re(left_p) > 0")
        if not complex(self.right_p).real > 0.0:
            raise DomainError("Re(right_p) > 0")


class ConvergenceError(RuntimeError):
    """Subdivision budget exhausted; carries the best estimate so far."""

    def __init__(self, message: str, best: IntegralResult):
        self.best = best
        super().__init__(f"{message} (best estimate {best.value!r}, "
                         f"error estimate {best.error_estimate:.3e})")


def _panels(f, spans):
    """(value, error estimate) of each panel (a, b) in spans, from one call of f."""
    a, b = np.array(spans, dtype=float).T
    halves = 0.5 * (b - a)
    xs = (0.5 * (a + b))[:, None] + halves[:, None] * _NODES
    ys = np.asarray(f(xs.ravel()), dtype=complex).reshape(xs.shape)
    out = []
    for half, y in zip(halves.tolist(), ys):
        hi, lo = half * (_W_HI @ y[:21]), half * (_W_LO @ y[21:])
        out.append((complex(hi), abs(hi - lo)))
    return out


def _adaptive(f, breakpoints, spec: QuadratureSpec):
    """Worst-panel bisection over the given initial partition."""
    spans = [(a, b) for a, b in zip(breakpoints[:-1], breakpoints[1:]) if b > a]
    if not spans:
        raise DomainError("non-empty interval")
    heap = []
    for seq, ((a, b), (val, err)) in enumerate(zip(spans, _panels(f, spans))):
        heapq.heappush(heap, (-err, seq, a, b, val, err))
    seq, evals = len(spans), 31 * len(spans)

    scale = sum(abs(item[4]) for item in heap)
    abs_tol = min(spec.abs_tol, max(scale * spec.rel_tol, 1e-300))

    total = sum(item[4] for item in heap)
    err_total = sum(item[5] for item in heap)
    splits = 0
    while err_total > max(abs_tol, spec.rel_tol * abs(total)):
        if splits >= spec.max_subdivisions:
            raise ConvergenceError(
                "quadrature did not converge within the subdivision budget",
                IntegralResult(total, err_total, evals),
            )
        _, _, a, b, val, err = heapq.heappop(heap)
        m = 0.5 * (a + b)
        (v1, e1), (v2, e2) = _panels(f, [(a, m), (m, b)])
        evals += 62
        heapq.heappush(heap, (-e1, seq, a, m, v1, e1))
        seq += 1
        heapq.heappush(heap, (-e2, seq, m, b, v2, e2))
        seq += 1
        total += v1 + v2 - val
        err_total += e1 + e2 - err
        splits += 1
        if splits % 256 == 0:
            # Kill accumulation drift in the running sums.
            total = sum(item[4] for item in heap)
            err_total = sum(item[5] for item in heap)
    total = sum(item[4] for item in heap)
    err_total = sum(item[5] for item in heap)
    if not (cmath.isfinite(total) and math.isfinite(err_total)):
        # A NaN estimate ends the loop above as if it had converged.
        raise ConvergenceError("quadrature produced a non-finite value",
                               IntegralResult(total, err_total, evals))
    return IntegralResult(total, err_total, evals)


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
    return _adaptive(f, pts, spec)


def _substituted_left(f, width: float, p: complex):
    """Integrand over s in [0, width^r] realizing t = s^(1/r), r = Re p.

    Absorbs the t^(p-1) endpoint factor: the transformed integrand behaves
    like s^(p/r - 1), whose real exponent part is 1.
    """
    r = p.real
    inv = 1.0 / r

    def g(s):
        return f(s ** inv) * inv * s ** (inv - 1.0)

    return g, width ** r


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

    ``exps`` declares the endpoint exponents; an end with Re p < 1 is removed
    by the variable change t = a + s^(1/Re p) (mirrored on the right) before
    the adaptive pass.  Ends with Re p >= 1 but a nonzero imaginary exponent
    only get geometric panel clustering, since the integrand is bounded there
    and merely oscillates in log scale.

    A strongly singular end pushes evaluations to distances far below the
    floating-point spacing of the endpoint itself, where ``f(b - u)`` would
    see ``b`` exactly and cancel catastrophically.  ``left_edge`` and
    ``right_edge``, when given, are distance-parameterized integrands
    ``g(u) = f(endpoint -+ u)`` evaluated stably by the caller; they are used
    instead of ``f`` on the end pieces.  Without one, an end piece whose
    distance rounds onto the endpoint raises DomainError naming the edge.
    """
    spec = spec or DEFAULT_SPEC
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError("a < b finite")

    mid = 0.5 * (a + b)
    left_p = complex(exps.left_p) if exps else 1.0 + 0j
    right_p = complex(exps.right_p) if exps else 1.0 + 0j
    # Each end in distance coordinates u = t - a (left) or u = b - t (right).
    ends = (
        (left_p, a, mid, left_edge or _default_edge(f, a, 1.0, "left_edge")),
        (right_p, mid, b, right_edge or _default_edge(f, b, -1.0, "right_edge")),
    )
    sub_spec = replace(spec, abs_tol=0.5 * spec.abs_tol,
                       rel_tol=0.5 * spec.rel_tol)
    value = 0j
    err = 0.0
    evals = 0
    for p, lo, hi, edge in ends:
        if p.real < 1.0 - 1e-12:
            g, width = _substituted_left(edge, hi - lo, p)
        elif abs(p.imag) > 1e-12:
            g, width = edge, hi - lo
        else:
            g, width = f, None
        # Geometric clustering toward a delicate end helps the adaptive pass
        # resolve log-scale oscillation early.
        pts = [lo, hi] if width is None else _breakpoints(0.0, width, width * 1e-8)
        res = _adaptive(g, pts, sub_spec)
        value += res.value
        err += res.error_estimate
        evals += res.evaluations
    return IntegralResult(value, err, evals)


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
