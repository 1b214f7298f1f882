"""Complex gamma-family scalars: log-gamma, gamma, digamma, trigamma.

Everything is evaluated in double precision by upward recurrence into a
zone where the Stirling-type asymptotic series is accurate to machine
precision.  Log-gamma's recurrence multiplies the shifted arguments and
takes one log, with a 2 pi i for each turn of the product past the
negative real axis.  All three reflect into the right half plane for
Re z <= 0, where the recurrence would take about |Re z| + 10 steps past the
poles (and none at all once z + 1 rounds to z).  Accuracy targets
(relative, for |z| <= 100 off the poles):

    gamma(z)      1e-12
    digamma(z)    1e-10
    trigamma(z)   1e-8

log_gamma returns the principal branch: continuous on the plane cut along
(-inf, 0], real on the positive real axis, and on the cut itself it takes
the boundary value from the upper half plane.

All functions are pure and reentrant; the public ones take and return
plain ``complex`` values, and _log_gamma_right_array takes arrays.  Poles
raise :class:`PoleError` and non-finite arguments :class:`DomainError`.
Array code that must give the scalar route's bits, at every numpy SIMD
level, multiplies and divides through one kit on (real, imaginary) array
pairs (_cmul rounds as CPython's complex ``*``, _cdiv as its ``/``), and
takes real transcendentals through numpy's complex loop (_rx).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

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

# Bernoulli numbers B_{2n} = p / q, n = 1..10.  Each series coefficient below
# is one int / int, which Python rounds correctly.
_BERNOULLI_2N = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66),
    (-691, 2730), (7, 6), (-3617, 510), (43867, 798), (-174611, 330),
)
# B_{2n} / (2n (2n-1)), n = 1..10: Stirling series for log-gamma.
_LG_COEFF = tuple(p / (q * 2 * n * (2 * n - 1))
                  for n, (p, q) in enumerate(_BERNOULLI_2N, 1))
# B_{2n} / (2n), n = 1..8: asymptotic tail of digamma.
_DG_COEFF = tuple(p / (q * 2 * n) for n, (p, q) in enumerate(_BERNOULLI_2N[:8], 1))
# B_{2n}, n = 1..8: asymptotic tail of trigamma.
_TG_COEFF = tuple(p / q for p, q in _BERNOULLI_2N[:8])

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
    """Index of the non-positive-integer pole hit by z, or None; z must be finite."""
    if not cmath.isfinite(z):
        raise DomainError("finite argument", f"argument {z!r} is not finite")
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
    """exp(w) - 1 with full relative accuracy for small |w|: 2 sinh(w/2) e^(w/2).

    Past |w| = 0.5 it is exp(w) - 1, which loses nothing there, while sinh
    overflows where Re w / 2 < -710.
    """
    if abs(w) > 0.5:
        return cmath.exp(w) - 1.0
    h = 0.5 * w
    return 2.0 * cmath.sinh(h) * cmath.exp(h)


def _two_pi_i_frac(z: complex) -> complex:
    """2 pi i (z - n) for z's nearest integer n: e^(2 pi i z) taken at it keeps full
    relative accuracy near the integers, and stays finite for Im z >= 0 where
    sin(pi z) overflows (|Im z| past about 226)."""
    return 2j * math.pi * (z - round(z.real))


def _log_gamma_right(z: complex) -> complex:
    """Principal log-gamma for Re z > 0: recurrence plus Stirling series.

    While Re z < 10 and |Im z| < 10 the recurrence multiplies the shifted
    arguments into one product p and takes one log.  Each factor's argument
    lies in (-pi/2, pi/2), so Log p loses a turn of 2 pi exactly where the
    running product crosses the negative real axis; ``turns`` counts those
    crossings (Hare, J. Algorithms 25, 1997).  |p| stays below about 1e13.
    """
    acc = 0j
    if z.real < _SERIES_EDGE and abs(z.imag) < _SERIES_EDGE:
        p, turns = z, 0
        z += 1.0
        while z.real < _SERIES_EDGE:
            q = p * z
            if q.real < 0.0:  # +1 crossing into Im < 0, -1 out of it
                turns += (q.imag < 0.0) - (p.imag < 0.0)
            p = q
            z += 1.0
        acc = cmath.log(p)
        acc = complex(acc.real, acc.imag + math.tau * turns)
    w = 1.0 / z
    w2 = w * w
    s = _LG_COEFF[-1]
    for c in reversed(_LG_COEFF[:-1]):
        s = c + w2 * s
    return (z - 0.5) * cmath.log(z) - z + _LN_SQRT_2PI + w * s - acc


def _log_gamma_right_array(x, y) -> np.ndarray:
    """_log_gamma_right(complex(x, t)) for each t of a 1-d y, at each x > 0 of
    an array shaped like y (a float x is broadcast to it).

    Bit for bit, up to signs of zero: the same steps in one masked pass over
    the shifted nodes, with products and 1/z through the kit (_cmul, _cdiv),
    and cmath.log where np.log may differ.
    """
    y = np.asarray(y, dtype=float)
    # Non-finite t, the pole and |t| > 1e305 (t ln t overflows) take the scalar
    # routine: it raises as log_gamma does, or gives inf where numpy would warn.
    edge = ~((np.abs(y) > _POLE_TOL) & (np.abs(y) <= 1e305))
    if edge.any():
        xs = np.broadcast_to(x, y.shape)
        out = np.empty(y.shape, complex)
        out[edge] = [_log_gamma_right(_check_pole(complex(a, t)))
                     for a, t in zip(xs[edge].tolist(), y[edge].tolist())]
        out[~edge] = _log_gamma_right_array(xs[~edge], y[~edge])
        return out
    x = np.array(np.broadcast_to(x, y.shape), dtype=float)  # Re z, shifted in place
    acc = np.zeros(y.shape, complex)
    run = (x < _SERIES_EDGE) & (np.abs(y) < _SERIES_EDGE)
    if run.any():
        pr, pi, t = x[run], y[run], y[run]  # p = z
        zr = pr + 1.0
        turns = np.zeros(pr.shape, int)
        while (live := zr < _SERIES_EDGE).any():
            qr, qi = _cmul(pr, pi, zr, t)
            np.add(turns, np.subtract(qi < 0.0, pi < 0.0, dtype=int), out=turns,
                   where=live & (qr < 0.0))
            np.copyto(pr, qr, where=live)
            np.copyto(pi, qi, where=live)
            np.add(zr, 1.0, out=zr, where=live)
        p = pr + 1j * pi
        # np.log rounds as cmath.log off the square max(|Re|, |Im|) < 2, not on it.
        near = np.maximum(np.abs(pr), np.abs(pi)) < 2.0
        logs = np.log(p, out=np.empty_like(p), where=~near)
        logs[near] = np.fromiter(map(cmath.log, p[near].tolist()), complex)
        logs.imag += math.tau * turns
        acc[run], x[run] = logs, zr
    z = x + 1j * y
    w = np.empty_like(z)
    w.real, w.imag = _cdiv(1.0, 0.0, z.real, z.imag)
    w2 = _times(w, w)
    s = _LG_COEFF[-1]
    for c in reversed(_LG_COEFF[:-1]):
        s = c + _times(w2, s)
    return _times(z - 0.5, np.log(z)) - z + _LN_SQRT_2PI + _times(w, s) - acc


def _cmul(ar, ai, br, bi):
    """(ar + ai i)(br + bi i) as CPython's complex ``*``: (ac - bd) + (ad + bc)i."""
    return ar * br - ai * bi, ar * bi + ai * br


def _cdiv(ar, ai, br, bi):
    """(ar + ai i) / (br + bi i) as CPython's complex ``/``: Smith's algorithm."""
    swap = np.abs(bi) > np.abs(br)
    if flip := np.count_nonzero(swap):  # exchange both operands' parts there: the first branch
        ar, ai = np.where(swap, ai, ar), np.where(swap, ar, ai)
        br, bi = np.where(swap, bi, br), np.where(swap, br, bi)
    ratio = bi / br
    denom = br + bi * ratio
    im = (ai - ar * ratio) / denom  # negated where swapped: the second branch's bits
    return (ar + ai * ratio) / denom, np.negative(im, out=im, where=swap) if flip else im


def _times(a, b) -> np.ndarray:
    """a * b for complex arrays (or a scalar b), through _cmul; a real b scales each
    part, which CPython's complex * rounds the same up to signs of zero."""
    out = np.empty_like(a)
    real = b.dtype.kind != "c" if hasattr(b, "dtype") else not isinstance(b, complex)
    out.real, out.imag = ((a.real * b, a.imag * b) if real
                          else _cmul(a.real, a.imag, b.real, b.imag))
    return out


def _rx(f, x, *args) -> np.ndarray:
    """f(x, *args) for real x through numpy's complex loop (libm), which, unlike the
    real-dtype exp, expm1, log, power and cosh, does not move with the SIMD level."""
    return f(np.asarray(x, complex), *args).real


def log_gamma(z) -> complex:
    """Principal branch of ln Gamma(z).

    Relative error of exp(log_gamma(z)) is kept below 1e-12 for |z| <= 100.
    For Re z > 0 it is the recurrence plus Stirling series: every shifted
    argument z + k stays in the right half plane, so one log of their
    product, corrected by 2 pi i per crossing of the negative real axis, is
    the principal branch, and real z gives a real value.  For
    Re z <= 0 the right-half-plane value is reflected through

        ln Gamma(z) = ln 2pi - i pi/2 + i pi z
                      - Log(1 - exp(2 pi i z)) - ln Gamma(1 - z)

    which is the analytic (upper-half-plane) form of the sine reflection
    formula; the lower half plane follows by conjugation symmetry.
    """
    z = complex(z)
    _check_pole(z)
    if z.real > 0.0:
        return _log_gamma_right(z)
    if z.imag < 0.0:
        return log_gamma(z.conjugate()).conjugate()
    return (
        _LN_2PI
        - 0.5j * math.pi
        + 1j * math.pi * z
        - cmath.log(-_expm1c(_two_pi_i_frac(z)))
        - _log_gamma_right(1.0 - z)
    )


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
    """psi(z) = Gamma'(z)/Gamma(z), to 1e-10 relative for |z| <= 100.

    Re z <= 0 reflects, as log_gamma does, through

        psi(z) = psi(1 - z) - pi cot(pi z),  cot(pi z) = i (1 + 2 / m)

    with m = e^(2 pi i z) - 1 in the upper half plane, taken at z less its
    nearest integer; the lower half plane follows by conjugation symmetry,
    and real z gives a real value.  So the recurrence takes at most 10 steps.
    """
    z = complex(z)
    _check_pole(z)
    if z.real <= 0.0:
        if z.imag < 0.0:
            return digamma(z.conjugate()).conjugate()
        psi = digamma(1.0 - z) - 1j * math.pi * (1.0 + 2.0 / _expm1c(_two_pi_i_frac(z)))
        return psi if z.imag else complex(psi.real)
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
    """psi'(z), to 1e-8 relative for |z| <= 100.

    Re z <= 0 reflects as digamma does, through

        psi'(z) = -psi'(1 - z) + pi^2 / sin^2(pi z),  1 / sin^2(pi z) = -4 e^(2 pi i z) / m^2

    with e^(2 pi i z) taken apart from m, as 1 + m would lose its digits far
    from the real axis.
    """
    z = complex(z)
    _check_pole(z)
    if z.real <= 0.0:
        if z.imag < 0.0:
            return trigamma(z.conjugate()).conjugate()
        w = _two_pi_i_frac(z)
        m = _expm1c(w)
        psi1 = -trigamma(1.0 - z) - 4.0 * math.pi ** 2 * cmath.exp(w) / (m * m)
        return psi1 if z.imag else complex(psi1.real)
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
