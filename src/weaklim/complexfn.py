"""Complex gamma-family scalars: log-gamma, gamma, digamma, trigamma.

Everything is evaluated in double precision by upward recurrence into a
zone where the Stirling-type asymptotic series is accurate to machine
precision, with reflection into the right half plane for log-gamma when
Re z < 1/2.  Accuracy targets (relative, for |z| <= 100 off the poles):

    gamma(z)      1e-12
    digamma(z)    1e-10
    trigamma(z)   1e-8

log_gamma returns the principal branch: continuous on the plane cut along
(-inf, 0], real on the positive real axis, and on the cut itself it takes
the boundary value from the upper half plane.

All functions are pure and reentrant; arguments and results are plain
``complex`` values.  Poles raise :class:`PoleError` instead of returning
non-finite numbers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

__all__ = [
    "AccuracyContract",
    "DomainError",
    "PoleError",
    "EULER_GAMMA",
    "GAMMA_CONTRACT",
    "DIGAMMA_CONTRACT",
    "TRIGAMMA_CONTRACT",
    "log_gamma",
    "gamma",
    "digamma",
    "trigamma",
    "duplication_residual",
]

EULER_GAMMA = 0.5772156649015328606

_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LN_2PI = math.log(2.0 * math.pi)
_LN_2 = math.log(2.0)
_LN_PI = math.log(math.pi)

# B_{2n} / (2n (2n-1)), n = 1..10: Stirling series for log-gamma.
_LG_COEFF = (
    1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
    -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0,
    43867.0 / 244188.0, -174611.0 / 125400.0,
)
# B_{2n} / (2n), n = 1..8: asymptotic tail of digamma.
_DG_COEFF = (
    1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0,
    1.0 / 132.0, -691.0 / 32760.0, 1.0 / 12.0, -3617.0 / 8160.0,
)
# B_{2n}, n = 1..8: asymptotic tail of trigamma.
_TG_COEFF = (
    1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0,
    5.0 / 66.0, -691.0 / 2730.0, 7.0 / 6.0, -3617.0 / 510.0,
)

# Upward recurrence pushes Re z at least this far before the series is used.
_SERIES_EDGE = 10.0
# Arguments this close to a non-positive integer count as the pole itself.
_POLE_TOL = 1e-14


class DomainError(ValueError):
    """A stated precondition failed; ``condition`` names the violated one."""

    def __init__(self, condition: str, message: str = ""):
        self.condition = condition
        super().__init__(message or condition)


class PoleError(DomainError):
    """Argument within 1e-14 of a non-positive integer; carries the integer."""

    def __init__(self, z: complex, pole: int):
        self.pole = pole
        super().__init__(
            "argument off non-positive integers",
            f"argument {z!r} hits the pole at {pole}",
        )


@dataclass(frozen=True)
class AccuracyContract:
    """Stated accuracy guarantee of a scalar routine."""

    target_rel_err: float = 1e-12

    def __post_init__(self):
        if not self.target_rel_err > 0.0:
            raise DomainError("target_rel_err > 0")


GAMMA_CONTRACT = AccuracyContract(1e-12)
DIGAMMA_CONTRACT = AccuracyContract(1e-10)
TRIGAMMA_CONTRACT = AccuracyContract(1e-8)


def _pole_index(z: complex):
    """Index of the non-positive-integer pole hit by z, or None."""
    if z.real > 0.5:
        return None
    n = round(z.real)
    if n <= 0 and abs(z - n) <= _POLE_TOL:
        return n
    return None


def _check_pole(z: complex) -> complex:
    n = _pole_index(z)
    if n is not None:
        raise PoleError(z, n)
    return z


def _expm1c(w: complex) -> complex:
    """exp(w) - 1 with full relative accuracy for small |w|."""
    if abs(w) > 0.5:
        return cmath.exp(w) - 1.0
    term = w
    acc = w
    k = 2
    while True:
        term *= w / k
        acc += term
        if abs(term) <= 1e-18 * abs(acc):
            return acc
        k += 1


def _log_gamma_right(z: complex) -> complex:
    """Principal log-gamma for Re z > 0: recurrence plus Stirling series."""
    acc = 0j
    while z.real < _SERIES_EDGE:
        acc += cmath.log(z)
        z += 1.0
    w = 1.0 / z
    w2 = w * w
    s = _LG_COEFF[-1]
    for c in reversed(_LG_COEFF[:-1]):
        s = c + w2 * s
    return (z - 0.5) * cmath.log(z) - z + _LN_SQRT_2PI + w * s - acc


def log_gamma(z) -> complex:
    """Principal branch of ln Gamma(z).

    Relative error of exp(log_gamma(z)) is kept below 1e-12 for |z| <= 100.
    For Re z < 1/2 the right-half-plane value is reflected through

        ln Gamma(z) = ln 2pi - i pi/2 + i pi z
                      - Log(1 - exp(2 pi i z)) - ln Gamma(1 - z)

    which is the analytic (upper-half-plane) form of the sine reflection
    formula; the lower half plane follows by conjugation symmetry.
    """
    z = complex(z)
    _check_pole(z)
    if z.real >= 0.5:
        return _log_gamma_right(z)
    if z.imag < 0.0:
        return log_gamma(z.conjugate()).conjugate()
    # 1 - e^{2 pi i z} evaluated against the nearest integer so that the
    # cancellation near the poles stays fully accurate.
    n = round(z.real)
    one_minus = -_expm1c(2j * math.pi * (z - n))
    value = (
        _LN_2PI
        - 0.5j * math.pi
        + 1j * math.pi * z
        - cmath.log(one_minus)
        - _log_gamma_right(1.0 - z)
    )
    if z.imag == 0.0 and z.real > 0.0:  # the phases cancel only to rounding
        return complex(value.real, 0.0)
    return value


def gamma(z) -> complex:
    """Gamma(z) = exp(log_gamma(z)); satisfies z Gamma(z) = Gamma(1+z)."""
    lg = log_gamma(z)
    try:
        value = cmath.exp(lg)
    except OverflowError:
        raise DomainError(
            "|gamma(z)| representable",
            f"gamma({z!r}) overflows double precision",
        ) from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise DomainError(
            "|gamma(z)| representable",
            f"gamma({z!r}) is not finite in double precision",
        )
    return value


def digamma(z) -> complex:
    """psi(z) = Gamma'(z)/Gamma(z), to 1e-10 relative for |z| <= 100."""
    z = complex(z)
    _check_pole(z)
    acc = 0j
    while z.real < _SERIES_EDGE:
        acc += 1.0 / z
        z += 1.0
    w = 1.0 / z
    w2 = w * w
    s = _DG_COEFF[-1]
    for c in reversed(_DG_COEFF[:-1]):
        s = c + w2 * s
    return cmath.log(z) - 0.5 * w - w2 * s - acc


def trigamma(z) -> complex:
    """psi'(z), to 1e-8 relative for |z| <= 100."""
    z = complex(z)
    _check_pole(z)
    acc = 0j
    while z.real < _SERIES_EDGE:
        acc += 1.0 / (z * z)
        z += 1.0
    w = 1.0 / z
    w2 = w * w
    s = _TG_COEFF[-1]
    for c in reversed(_TG_COEFF[:-1]):
        s = c + w2 * s
    return w + 0.5 * w2 + w * w2 * s + acc


def duplication_residual(z) -> float:
    """Relative residual of Gamma(2z) against the duplication product.

    Returns |Gamma(2z) - 2^(2z-1) pi^(-1/2) Gamma(z) Gamma(z + 1/2)| divided
    by |Gamma(2z)|, computed through log-gamma so large arguments do not
    overflow.  Stays below 1e-10 on the contract region.
    """
    z = complex(z)
    ratio = cmath.exp(
        log_gamma(z)
        + log_gamma(z + 0.5)
        + (2.0 * z - 1.0) * _LN_2
        - 0.5 * _LN_PI
        - log_gamma(2.0 * z)
    )
    return abs(ratio - 1.0)
