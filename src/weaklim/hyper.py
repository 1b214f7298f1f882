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

from .complexfn import DomainError, _check_pole, digamma, log_gamma, trigamma
from .distrib import (
    EpsilonLadder,
    PairingSweepResult,
    Probe,
    _ladder_sweep,
    _pairing_ladder,
)
from .quad import QuadratureSpec, integrate_pairing

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
_SQRT_PI = math.sqrt(math.pi)
_MAX_ABS_Z = 1.0 - 1e-4
_CONSECUTIVE_SMALL = 50
_MAX_TERMS = 2_000_000  # term budget of the hyp2f1 series


class SeriesError(RuntimeError):
    """Series did not settle within the term budget; carries the partial sum."""

    def __init__(self, message: str, partial: complex, terms: int):
        self.partial = partial
        self.terms = terms
        super().__init__(f"{message} (partial sum {partial!r} after {terms} terms)")


def hyp2f1(a, b, c, z, *, rel_tol: float = 1e-13) -> complex:
    """2F1(a, b; c; z) by the power series, symmetric in a and b.

    Valid for |z| < 1; the series is summed until 50 consecutive terms fall
    below rel_tol times the partial sum; an unsettled series after
    _MAX_TERMS terms, or a non-finite sum, raises SeriesError.  Arguments
    with |z| above 1 - 1e-4 are rejected: convergence there is too slow for
    the budget and the unit-argument closed forms take over.
    """
    a = complex(a)
    b = complex(b)
    c = complex(c)
    z = complex(z)
    _check_pole(c)
    if abs(z) > _MAX_ABS_Z:
        raise DomainError("|z| <= 1 - 1e-4",
                          f"|z| = {abs(z):.6f} is too close to the unit circle")
    if z == 0:
        return 1.0 + 0j
    total = 1.0 + 0j
    term = 1.0 + 0j
    small = 0
    for n in range(_MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if abs(term) > rel_tol * abs(total):
            small = 0
        else:  # settled, or non-finite: NaN and inf > inf compare false
            if not cmath.isfinite(total):
                raise SeriesError("hypergeometric series is not finite",
                                  total, n + 1)
            small += 1
            if small >= _CONSECUTIVE_SMALL:
                return total
    raise SeriesError("hypergeometric series did not converge", total, _MAX_TERMS)


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

def family_closed_form(tau, eps: float):
    """Unit-argument value of the family: Gauss's sum, 1 identically at tau = 0.

    ``gauss_sum(2 i tau, eps + i tau, 2 eps + 2 i tau)`` term for term, with
    log_gamma(eps - i tau) taken as the conjugate of log_gamma(eps + i tau):
    two log-gammas per nonzero node, and one for Gamma(2 eps) when any node
    is nonzero.  ``tau`` may be an array; a scalar tau gives a scalar.
    """
    if not eps > 0.0:
        raise DomainError("eps > 0")
    taus = np.asarray(tau, dtype=float)
    lg_2eps = log_gamma(complex(2 * eps)) if taus.any() else 0j

    def node(t: float) -> complex:
        if t == 0.0:
            return 1.0 + 0j  # the four gamma factors cancel pairwise
        lg_b = log_gamma(complex(eps, t))
        return cmath.exp(log_gamma(complex(2 * eps, 2 * t)) + lg_b.conjugate()
                         - lg_2eps - lg_b)

    vals = [node(t) for t in taus.ravel().tolist()]
    if taus.ndim == 0:
        return vals[0]
    return np.array(vals, dtype=complex).reshape(taus.shape)


def family_duplication_form(tau: float, eps: float) -> complex:
    """The same value routed through the duplication formula."""
    if not eps > 0.0:
        raise DomainError("eps > 0")
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
    return _pairing_ladder(family_closed_form, probe, interval, ladder,
                           QuadratureSpec(abs_tol=1e-11, rel_tol=1e-9))


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
    spec = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-9)

    def measure(d):
        L = math.log(d)
        if kind == "cos":
            kern = lambda ts: np.cos(L * ts)
        elif kind == "sin":
            kern = lambda ts: np.sin(L * ts)
        else:
            kern = lambda ts: np.exp(-1j * L * ts)
        res = integrate_pairing(probe, kern, *interval, spec,
                                osc_period=2.0 * math.pi / max(abs(L), 1e-12))
        return res.value, res.error_estimate
    return _ladder_sweep(vals, measure)
