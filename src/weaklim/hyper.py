"""Gauss hypergeometric series and its imaginary-parameter family.

Evaluates 2F1 by the power series inside the unit disk, the classical
closed form at unit argument, and the one-parameter family

    a = 2 i tau,  b = eps + i tau,  c = 2 eps + 2 i tau

whose unit-argument value is Gauss's sum ``gauss_sum(a, b, c)``:

    Gamma(2 eps + 2 i tau) Gamma(eps - i tau)
    -----------------------------------------
      Gamma(2 eps)         Gamma(eps + i tau)

and factors as f(eps, tau) * (eps + i tau) * omega_eps(tau) through the
duplication formula.  The weak-limit sweeps pair the family (or its
oscillatory unit-circle relatives) against probe functions along a
decreasing regularization ladder; every limit here is a weak one, so the
pairings are the objects of interest, never pointwise values.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .complexfn import (DomainError, _cdiv, _check_pole, _cmul, _log_gamma_right_array,
                        digamma, log_gamma, trigamma)
from .distrib import (
    EpsilonLadder,
    PairingSweepResult,
    Probe,
    _SWEEP_SPEC,
    _even_in_tau,
    _ladder_sweep,
    _pairing_ladder,
    _per_eps,
)
from .quad import Window, integrate_batch

__all__ = [
    "hyp2f1",
    "gauss_sum",
    "family_closed_form",
    "family_duplication_form",
    "f_factor",
    "f_derivatives",
    "family_weak_limit_sweep",
    "oscillatory_limit_sweep",
]

_LN2 = math.log(2.0)
_LN4 = math.log(4.0)
_MAX_ABS_Z = 1.0 - 1e-4
_CONSECUTIVE_SMALL = 50
_MAX_TERMS = 2_000_000  # term budget of the hyp2f1 series
_FIRST_CHUNK, _MAX_CHUNK = 256, 4096  # hyp2f1 chunk sizes: first, largest


class SeriesError(RuntimeError):
    """Series did not settle within the term budget; carries the partial sum."""

    def __init__(self, message: str, partial: complex, terms: int):
        self.partial = partial
        self.terms = terms
        super().__init__(f"{message} (partial sum {partial!r} after {terms} terms)")


def hyp2f1(a, b, c, z, *, rel_tol: float = 1e-13) -> complex:
    """2F1(a, b; c; z) by the power series, symmetric in a and b.

    Needs finite a, b, c, |z| <= 1 - 1e-4 (the unit-argument closed forms
    cover the rest) and rel_tol in (0, 1), else DomainError; z = 0 gives
    exactly 1.  The sum stops once 50 consecutive terms fall below rel_tol
    times the partial sum; a non-finite sum, or no stop within _MAX_TERMS
    terms, raises SeriesError.
    Numpy chunks of 256 terms, doubling to 4096, round as CPython's complex
    ``term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z; total += term``:
    in float64 when every imaginary part is zero, else through complexfn's kit.
    Each chunk finds the stop from the indices of its loud terms
    (|term| > rel_tol |total|) and carries the latest one to the next: E18's
    ten sums, 316,928 terms in 108 chunks, take about 17 ns per term (5.4 ms
    on a shared 2-core Xeon, numpy 2.4.6).
    """
    a, b, c, z = (complex(v) for v in (a, b, c, z))
    for name, v in zip("abcz", (a, b, c, z)):
        if not cmath.isfinite(v):
            raise DomainError(f"finite {name}", f"{name} = {v!r} is not finite")
    if not 0.0 < rel_tol < 1.0:
        raise DomainError("0 < rel_tol < 1", f"rel_tol = {rel_tol!r}")
    _check_pole(c)
    r = math.hypot(z.real, z.imag)  # inf where abs(z) would overflow
    if r > _MAX_ABS_Z:
        raise DomainError("|z| <= 1 - 1e-4",
                          f"|z| = {r:.6f} is too close to the unit circle")
    if r == 0.0:  # every term past the first is 0, however large a and b
        return 1.0 + 0j
    if not (a.imag or b.imag or c.imag or z.imag):  # a real series: float64 chunks
        a, b, c, z = a.real, b.real, c.real, z.real
    total = term = type(z)(1.0)  # the chunks take term's dtype
    # last is the latest loud term's index, counted from the chunk's start.
    start, size, budget, last = 0, _FIRST_CHUNK, _MAX_TERMS, -1
    with np.errstate(all="ignore"):
        while start < budget:
            n = np.arange(start, min(start + size, budget), dtype=float)
            terms = _ratios(term, a, b, c, z, n)
            np.multiply.accumulate(terms, out=terms)
            terms[0] = total  # the carried total leads the running sum
            terms, sums = terms[1:], np.add.accumulate(terms)[1:]
            # Term n is quiet unless |term| > rel_tol |total|; a non-finite sum
            # is quiet and stays non-finite.
            loud = (_modulus(terms) > rel_tol * _modulus(sums)).nonzero()[0]
            k = _stop_index(loud, last, len(n))
            if not cmath.isfinite(sums[k]):
                k = np.argmin(np.isfinite(sums))
                partial = complex(sums[k])
                if (terms.dtype != complex
                        and not math.isfinite(_ratios(term, a, b, c, z, n[k:k + 1])[1])):
                    # CPython's complex product takes inf * 0 into the imaginary
                    # part: a non-finite real ratio makes the loop's term NaN.
                    partial = complex(math.nan, math.nan)
                raise SeriesError("hypergeometric series is not finite",
                                  partial, start + int(k) + 1)
            if k >= 0:
                return complex(sums[k])
            last = (loud[-1] if loud.size else last) - len(n)
            term, total = terms[-1], sums[-1]
            start, size = start + len(n), min(2 * size, _MAX_CHUNK)
    raise SeriesError("hypergeometric series did not converge", complex(total), budget)


def _stop_index(loud, last, size):
    """Index of the first term _CONSECUTIVE_SMALL past the latest loud one in
    a chunk of size terms, or -1 if the chunk has none.  loud holds the
    chunk's loud indices in ascending order, and last the latest loud index
    before the chunk, counted from its start (so negative).
    """
    k = max(last + _CONSECUTIVE_SMALL, 0)
    if k < (loud[0] if loud.size else size):  # decided by the carried last
        return k
    if 1 < loud.size < size:  # a chunk of loud terms only has no gap
        gaps = (loud[1:] - loud[:-1] > _CONSECUTIVE_SMALL).nonzero()[0]
        if gaps.size:
            return loud[gaps[0]] + _CONSECUTIVE_SMALL
    end = (loud[-1] if loud.size else last) + _CONSECUTIVE_SMALL
    return end if end < size else -1


def _ratios(term, a, b, c, z, n):
    """term, then (a + n)(b + n) / ((c + n)(n + 1.0)) * z as CPython's complex
    arithmetic rounds it, in term's dtype.  Real operands take real * and /,
    which round as CPython's complex * and Smith / with zero imaginary parts.
    Complex ones take complexfn's kit, with (c + n)(n + 1.0) as a real scaling:
    signs of zero may differ, and no partial sum keeps one.
    """
    m = n + 1.0
    out = np.empty(len(n) + 1, dtype=type(term))
    out[0] = term  # leads the running product
    if out.dtype != complex:
        out[1:] = (a + n) * (b + n) / ((c + n) * m) * z
        return out
    q = _cdiv(*_cmul(a.real + n, a.imag, b.real + n, b.imag), (c.real + n) * m, c.imag * m)
    out.real[1:], out.imag[1:] = _cmul(*q, z.real, z.imag)
    return out


def _modulus(x):
    """|x| elementwise: np.abs of a real array, np.hypot of a complex one's parts
    (numpy's complex absolute is SIMD code)."""
    return np.hypot(x.real, x.imag) if x.dtype == complex else np.abs(x)


def gauss_sum(a, b, c) -> complex:
    """Unit-argument closed form Gamma(c)Gamma(c-a-b) / Gamma(c-a)Gamma(c-b).

    Preconditions Re(c) > Re(b) > 0 and Re(c - a - b) > 0 are enforced and
    the failed condition is named in the error.
    """
    a = complex(a)
    b = complex(b)
    c = complex(c)
    if not c.real > b.real:
        raise DomainError("Re(c) > Re(b)")
    if not b.real > 0.0:
        raise DomainError("Re(b) > 0")
    if not (c - a - b).real > 0.0:
        raise DomainError("Re(c - a - b) > 0")
    return cmath.exp(log_gamma(c) + log_gamma(c - a - b)
                     - log_gamma(c - a) - log_gamma(c - b))


# ------------------------------------------------------ the imaginary family

# family_closed_form's largest eps.  Its relative error against mpmath (40
# digits) grows about like eps, as the log-gammas it differences grow like
# eps ln eps: at most 7.5e-13 over 400 draws with eps 10 .. 100 and |tau|
# 1e-4 .. 316, but 4.1e-12 at eps = 1e3, tau = 0.1, past its 4e-12 contract.
_FAMILY_EPS_MAX = 100.0
_FAMILY_EPS_RANGE = f"0 < eps <= {_FAMILY_EPS_MAX:g}"


def family_closed_form(tau, eps):
    """Unit-argument value of the family: Gauss's sum, 1 identically at tau = 0.

    ``gauss_sum(2 i tau, eps + i tau, 2 eps + 2 i tau)`` term for term, with
    log_gamma(eps - i tau) taken as the conjugate of log_gamma(eps + i tau).
    An array tau, with a float eps or one eps per node, takes two array
    log-gammas over the distinct (eps, |tau|) with tau nonzero
    (F(-tau) = conj F(tau)), and one log-gamma for Gamma(2 eps) per distinct
    eps of a nonzero tau.  A scalar tau gives a scalar; past |tau| = 1e305,
    where they overflow, F has underflowed to 0.  eps is held to (0, 100]:
    past 100 the value leaves its contract (_FAMILY_EPS_MAX).
    """
    taus = np.asarray(tau, dtype=float)
    if taus.ndim == 0:
        if not 0.0 < eps <= _FAMILY_EPS_MAX:
            raise DomainError(_FAMILY_EPS_RANGE, f"eps = {eps!r} is outside {_FAMILY_EPS_RANGE}")
        t = float(taus)
        if t == 0.0:
            return 1.0 + 0j  # the four gamma factors cancel pairwise
        lg_2eps = log_gamma(complex(2 * eps))
        if 1e305 < abs(t) < math.inf:
            return 0j
        lg_b = log_gamma(complex(eps, t))
        return cmath.exp(log_gamma(complex(2 * eps, 2 * t)) + lg_b.conjugate()
                         - lg_2eps - lg_b)
    if not np.all(np.greater(eps, 0.0) & np.less_equal(eps, _FAMILY_EPS_MAX)):
        raise DomainError(_FAMILY_EPS_RANGE, f"an eps is outside {_FAMILY_EPS_RANGE}")

    def node(x, mags):
        out = np.where(mags == 0.0, 1.0 + 0j, 0j)
        nonzero = mags != 0.0
        x, t = x[nonzero], mags[nonzero]
        # Gamma(2 eps) at each eps of a nonzero tau, as on the scalar route.
        lg_2eps = _per_eps(lambda e: log_gamma(complex(2 * e)), x)
        live = ~((1e305 < t) & (t < math.inf))
        x, lg_2eps, t = x[live], lg_2eps[live], t[live]
        lg_b = _log_gamma_right_array(x, t)
        out[np.flatnonzero(nonzero)[live]] = np.exp(  # as cmath.exp
            _log_gamma_right_array(2 * x, 2 * t) + lg_b.conj() - lg_2eps - lg_b)
        return out

    return _even_in_tau(node, taus, eps, conj=True)


def family_duplication_form(tau: float, eps: float) -> complex:
    """The same value routed through the duplication formula, for eps in
    (0, 100] as family_closed_form (within 2.5e-13 of mpmath there; 2.5e-9 off
    at eps = 1e6, and 0j at 1e300)."""
    if not 0.0 < eps <= _FAMILY_EPS_MAX:
        raise DomainError(_FAMILY_EPS_RANGE, f"eps = {eps!r} is outside {_FAMILY_EPS_RANGE}")
    zp = complex(eps, float(tau))
    return cmath.exp(
        (2.0 * zp - 1.0) * _LN2 - 0.5 * math.log(math.pi)
        + log_gamma(zp + 0.5) + log_gamma(zp.conjugate())
        - log_gamma(complex(2.0 * eps))
    )


def f_factor(eps: float, tau: float) -> complex:
    """Analytic prefactor of the family factorization.

        f(eps, tau) = sqrt(pi) 4^(eps + i tau)
                      Gamma(eps + i tau + 1/2) Gamma(eps - i tau + 1)
                      / Gamma(2 eps + 1)

    Smooth at eps = 0 (small negative eps is admitted so finite differences
    can straddle the origin); f(eps, 0) = pi for every eps.
    """
    zp = complex(eps, float(tau))
    return cmath.exp(
        0.5 * math.log(math.pi) + 2.0 * zp * _LN2
        + log_gamma(zp + 0.5) + log_gamma(zp.conjugate() + 1.0)
        - log_gamma(complex(2.0 * eps + 1.0))
    )


def f_derivatives(eps: float, tau: float) -> tuple[complex, complex]:
    """First and second eps-derivatives of f from digamma/trigamma data.

    With g = psi(eps + i tau + 1/2) + psi(eps - i tau + 1) - 2 psi(2 eps + 1)
    + ln 4, the derivatives are f' = f g and f'' = f (g^2 + g'), where
    g' = psi'(eps + i tau + 1/2) + psi'(eps - i tau + 1) - 4 psi'(2 eps + 1).
    """
    zp = complex(eps, float(tau))
    f = f_factor(eps, tau)
    g = (digamma(zp + 0.5) + digamma(zp.conjugate() + 1.0)
         - 2.0 * digamma(complex(2.0 * eps + 1.0)) + _LN4)
    gp = (trigamma(zp + 0.5) + trigamma(zp.conjugate() + 1.0)
          - 4.0 * trigamma(complex(2.0 * eps + 1.0)))
    return f * g, f * (g * g + gp)


def family_weak_limit_sweep(probe: Probe, interval: tuple[float, float],
                            ladder: EpsilonLadder | None = None) -> PairingSweepResult:
    """Pair the family against a probe along the ladder; the limit is 0."""
    eps = (ladder or EpsilonLadder.default()).values
    return _pairing_ladder(family_closed_form, [(probe, interval, eps)], _SWEEP_SPEC)[0]


def oscillatory_limit_sweep(probe: Probe, kind: str, z_ladder: tuple[float, ...],
                            interval: tuple[float, float]) -> PairingSweepResult:
    """Pairings of cos/sin/power oscillations as |1 - z| shrinks.

    For each ladder value d = |1 - z| the pairing integrates
    phi(tau) * cos(tau ln d) (resp. sin, resp. d^(-i tau)) over ``interval``
    (required); the magnitudes fall to 0 at Riemann-Lebesgue speed in ln d.
    """
    if kind not in ("cos", "sin", "power"):
        raise DomainError("kind in {cos, sin, power}")
    vals = EpsilonLadder(tuple(float(d) for d in z_ladder)).values
    rates = [math.log(d) for d in vals]
    # integrate_pairing's window at each d, with frequency L = ln d: one batch keyed by L.
    if kind == "cos":
        kern = lambda ts, L: np.cos(L * ts)
    elif kind == "sin":
        kern = lambda ts, L: np.sin(L * ts)
    else:
        kern = lambda ts, L: np.exp(-1j * L * ts)
    a, b = interval
    windows = [Window(L, a, b, 1e-6 * (b - a), L) for L in rates]
    res = integrate_batch(lambda ts, L: np.asarray(probe(ts)) * np.asarray(kern(ts, L)),
                          windows, _SWEEP_SPEC)
    return _ladder_sweep(vals, [(r.value, r.error_estimate) for r in res])
