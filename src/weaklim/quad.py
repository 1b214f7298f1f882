"""Adaptive complex-valued quadrature on embedded Gauss-Legendre panels.

Three entry points cover the integral shapes used by the rest of the
library, one policy per shape and no per-caller overrides:

    integrate_finite         finite interval, algebraic endpoint behavior
    integrate_semi_infinite  [0, inf) with exponential decay, a recorded
                             truncation point and a scale-tied abs floor
    integrate_pairing        test function against a kernel family on a
                             finite window, refined around the origin peak

Each panel is evaluated with a 21-point Gauss-Legendre rule; the error
estimate is the difference against the embedded 10-point rule.  The panel
with the worst estimate is bisected until the total estimate meets
max(abs_tol, rel_tol * |value|) or the subdivision budget is exhausted.

Integrands receive a numpy array of abscissae and must return an array of
values (real or complex).  Everything here is pure and deterministic;
independent integrations may run concurrently.
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

TAIL_TOL = 1e-12  # envelope bound on the tail cut off by integrate_semi_infinite

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
    truncation_point: float | None = None


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


def _panel(f, a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    ys = np.asarray(f(mid + half * _NODES), dtype=complex)
    hi = half * (_W_HI @ ys[:21])
    lo = half * (_W_LO @ ys[21:])
    return complex(hi), abs(hi - lo)


def _adaptive(f, breakpoints, spec: QuadratureSpec, *, scale_abs_tol=False):
    """Worst-panel bisection over the given initial partition."""
    heap = []
    seq = 0
    evals = 0
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        if not b > a:
            continue
        val, err = _panel(f, a, b)
        evals += 31
        heapq.heappush(heap, (-err, seq, a, b, val, err))
        seq += 1
    if not heap:
        raise DomainError("non-empty interval")

    abs_tol = spec.abs_tol
    if scale_abs_tol:
        # Tie the absolute floor to the integrand's own scale so strongly
        # decaying kernels still meet the relative contract.
        scale = sum(abs(item[4]) for item in heap)
        abs_tol = min(abs_tol, max(scale * spec.rel_tol, 1e-300))

    total = sum(item[4] for item in heap)
    err_total = sum(item[5] for item in heap)
    splits = 0
    while err_total > max(abs_tol, spec.rel_tol * abs(total)):
        if splits >= spec.max_subdivisions:
            raise ConvergenceError(
                "quadrature did not converge within max_subdivisions",
                IntegralResult(total, err_total, evals),
            )
        _, _, a, b, val, err = heapq.heappop(heap)
        m = 0.5 * (a + b)
        v1, e1 = _panel(f, a, m)
        v2, e2 = _panel(f, m, b)
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
                 period: float | None = None) -> list[float]:
    """Sorted initial partition of [a, b].

    Edges at +-(b - a) / 4^k down to ``inner`` (and 0 when interior) cluster
    panels at an origin in [a, b]; ``period`` adds an edge every half period.
    """
    pts = {a, b}
    if inner is not None and a <= 0.0 <= b:
        s = b - a
        while s > inner:
            pts.update(x for x in (s, -s) if a < x < b)
            s /= 4.0
        if a < 0.0 < b:
            pts.add(0.0)
    if period is not None and period > 0.0:
        width = 0.5 * period
        pts.update(a + i * width for i in range(1, int((b - a) / width) + 1))
    return sorted(pts)


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


def _truncation_point(f, decay_rate: float) -> float:
    """Truncation T with C exp(-decay_rate T) / decay_rate <= TAIL_TOL.

    The envelope constant C is estimated from samples of log|f| + rate*t, so
    plateaus before the asymptotic decay sets in are accounted for.  All
    bookkeeping is done in log space to survive strongly decaying kernels.
    """
    samples = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 32.0]
    samples += [k / decay_rate for k in (1.0, 2.0, 4.0, 8.0)]
    samples = sorted({min(s, 1e4) for s in samples})
    log_c = -math.inf
    t_last_seen = 0.0
    mags = np.abs(np.asarray(f(np.array(samples)), dtype=complex)).tolist()
    for t, m in zip(samples, mags):
        if m > 0.0:
            log_c = max(log_c, math.log(m) + decay_rate * t)
            t_last_seen = t
    if not math.isfinite(log_c):
        return 1.0  # integrand identically ~0 on samples; any T works
    t_tail = (log_c - math.log(decay_rate * TAIL_TOL)) / decay_rate
    return max(t_tail, t_last_seen + 2.0 / decay_rate)


def integrate_semi_infinite(f, decay_rate: float, spec: QuadratureSpec | None = None,
                            *, osc_period: float | None = None) -> IntegralResult:
    """Integrate f over [0, inf) for |f(t)| <= C exp(-decay_rate t).

    The domain is truncated at T such that the envelope tail bound drops
    below ``TAIL_TOL``; T is recorded on the result.  The absolute floor is
    capped at rel_tol times the integrand's scale.  When ``osc_period`` is
    given, initial panels are no wider than half a period.
    """
    spec = spec or DEFAULT_SPEC
    if not decay_rate > 0.0:
        raise DomainError("decay_rate > 0")
    T = _truncation_point(f, decay_rate)

    if osc_period and int(T / (0.5 * osc_period)) + 1 > spec.max_subdivisions // 2:
        raise ConvergenceError(
            "oscillation too fast for the subdivision budget",
            IntegralResult(0j, math.inf, 0),
        )
    pts = _breakpoints(0.0, T, min(0.25 / decay_rate, T / 4.0), osc_period)
    res = _adaptive(f, pts, spec, scale_abs_tol=True)
    res.truncation_point = T
    return res


def integrate_pairing(phi, kernel, a: float, b: float,
                      spec: QuadratureSpec | None = None, *,
                      origin_scale: float | None = None,
                      osc_period: float | None = None) -> IntegralResult:
    """Integrate phi(tau) * kernel(tau) over the finite interval [a, b].

    ``phi`` and ``kernel`` are vectorized callables (a Probe is one).
    When the origin lies in [a, b], panels are forcibly clustered around it
    down to ``origin_scale`` (default 1e-6 (b - a)) so that a
    delta-approximant peak of that width cannot slip between coarse nodes.
    """
    spec = spec or DEFAULT_SPEC
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError("finite interval [a, b]")
    if origin_scale is not None and not origin_scale > 0.0:
        raise DomainError("origin_scale > 0")

    def g(ts):
        return np.asarray(phi(ts)) * np.asarray(kernel(ts))

    if osc_period and int((b - a) / (0.5 * osc_period)) + 1 > spec.max_subdivisions // 2:
        osc_period = None  # too fast for the budget: the adaptive pass splits
    pts = _breakpoints(a, b, origin_scale or 1e-6 * (b - a), osc_period)
    return _adaptive(g, pts, spec)
