"""Delta approximants, weak pairings, and the regularized Beta/Mellin pair.

The delta approximant is the scaled Cauchy kernel

    omega_eps(x) = (1/pi) * eps / (eps^2 + x^2),

which integrates to 1 for every eps > 0 and converges weakly to the Dirac
delta.  The singular Beta value B(i tau, -i tau) is realized as the limit of
B(eps + i tau, eps - i tau) along a decreasing epsilon ladder, paired against
continuous bounded test functions; the extrapolated pairing limit targets
2 pi phi(0), pi phi(0), or 0 depending on where the origin sits in the
pairing interval.

The regularized Mellin transform of f(t) = 1 on the imaginary axis equals
the same Beta value; here it is evaluated by honest quadrature and
cross-checked against the Euler closed form.  After the exact change of
variables u = -ln t and the split at t = 1/2, the halves at heights +-tau
are complex conjugates, so their sum is one real cosine transform,

    integral over [ln 2, inf) of 2 e^(-eps u) (1 - e^-u)^(eps-1)
                                 cos(tau (u + ln(1 - e^-u))) du,

with an analytic binomial-series tail beyond u = 36.  For real tau the Beta
value is real as well: B(eps + i tau, eps - i tau) = |Gamma(eps + i tau)|^2
/ Gamma(2 eps), one log-gamma per node.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .complexfn import DomainError, log_gamma
from .quad import (
    QuadratureSpec,
    integrate_pairing,
    integrate_semi_infinite,
)

__all__ = [
    "Probe",
    "PROBES",
    "omega_eps",
    "EpsilonLadder",
    "PairingSweepResult",
    "beta",
    "beta_semi_infinite",
    "beta_reg",
    "delta_target",
    "delta_claim_sweep",
    "mellin_reg_forward",
    "mellin_forward_sweep",
    "mellin_inverse_check",
    "mellin_inverse_sweep",
]

TWO_PI = 2.0 * math.pi


# ------------------------------------------------------------------- probes

@dataclass(frozen=True)
class Probe:
    """Named continuous bounded test function for weak pairings."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    value_at_zero: float

    def __call__(self, tau):
        return self.fn(np.asarray(tau, dtype=float))


def _gaussian(t):
    return np.exp(-t * t)


def _cauchy(t):
    return 1.0 / (1.0 + t * t)


def _bump(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0 - 1e-12
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


def _const(t):
    return np.ones_like(np.asarray(t, dtype=float))


PROBES = {
    "gaussian": Probe("gaussian", _gaussian, 1.0),
    "cauchy": Probe("cauchy", _cauchy, 1.0),
    "bump": Probe("bump", _bump, math.exp(-1.0)),
    "const": Probe("const", _const, 1.0),
}


# ------------------------------------------------------------ delta kernel

def omega_eps(x, eps: float):
    """Scaled Cauchy kernel (1/pi) eps / (eps^2 + x^2); unit mass for eps > 0."""
    if not eps > 0.0:
        raise DomainError("eps > 0")
    x = np.asarray(x, dtype=float)
    out = (eps / math.pi) / (eps * eps + x * x)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class EpsilonLadder:
    """Strictly decreasing positive regularization parameters."""

    values: tuple[float, ...]

    def __post_init__(self):
        v = self.values
        if len(v) == 0 or any(not x > 0.0 for x in v):
            raise DomainError("ladder values positive")
        if any(math.isinf(x) for x in v):
            raise DomainError("ladder values finite")
        if any(v[i + 1] >= v[i] for i in range(len(v) - 1)):
            raise DomainError("ladder strictly decreasing")

    @classmethod
    def default(cls) -> "EpsilonLadder":
        # Geometric from 1e-1 down to 1e-5 with ratio 10^(1/2).
        return cls(tuple(10.0 ** (-1.0 - 0.5 * k) for k in range(9)))


@dataclass(frozen=True)
class PairingSweepResult:
    """Pairing values along a ladder plus the extrapolated limit."""

    points: tuple[tuple[float, complex, float], ...]
    extrapolated_limit: complex
    fitted_order: float

    @property
    def values(self):
        return [v for _, v, _ in self.points]

    def magnitudes(self):
        return [abs(v) for _, v, _ in self.points]


def _lsq_slope(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    den = sum((x - mx) ** 2 for x in xs)
    if den == 0.0:
        return 0.0, my
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den
    return slope, my - slope * mx


def _fit_sweep(params, values, errs) -> tuple[complex, float]:
    """Fit value = L + C * eps^q on the trailing points; return (L, order)."""
    n = len(values)
    use = min(4, n)
    e = params[-use:]
    v = values[-use:]
    scale = max(abs(x) for x in v) or 1.0
    floor = max(2.0 * max(errs[-use:], default=0.0), 1e-13 * scale, 1e-300)
    diffs = [v[i] - v[-1] for i in range(use - 1)]
    usable = [i for i in range(use - 1) if abs(diffs[i]) > floor]
    if len(usable) < 2:
        return v[-1], float("nan")

    q = 1.0
    for _ in range(12):
        xs, ys = [], []
        for i in usable:
            damp = 1.0 - (e[-1] / e[i]) ** q
            if damp <= 0.0:
                damp = 1e-30
            xs.append(math.log(e[i]))
            ys.append(math.log(abs(diffs[i])) - math.log(damp))
        q_new, _ = _lsq_slope(xs, ys)
        q_new = min(max(q_new, 1e-3), 30.0)
        if abs(q_new - q) < 1e-10:
            q = q_new
            break
        q = q_new

    c_est = [diffs[i] / (e[i] ** q - e[-1] ** q) for i in usable]
    c = sum(c_est) / len(c_est)
    limit = v[-1] - c * e[-1] ** q

    xs, ys = [], []
    for i in range(use):
        dev = abs(v[i] - limit)
        if dev > 0.3 * floor:
            xs.append(math.log(e[i]))
            ys.append(math.log(dev))
    order = _lsq_slope(xs, ys)[0] if len(xs) >= 2 else q
    return limit, order


def _ladder_sweep(params, measure) -> PairingSweepResult:
    """Measure each ladder parameter in order and fit the limit.

    ``measure(p)`` returns (value, error estimate) at parameter p.
    """
    params = list(params)
    values, errs = [], []
    for p in params:
        value, err = measure(p)
        values.append(value)
        errs.append(err)
    limit, order = _fit_sweep(params, values, errs)
    pts = tuple((float(p), complex(v), float(er))
                for p, v, er in zip(params, values, errs))
    return PairingSweepResult(pts, limit, order)


def _pairing_ladder(kernel, probe: Probe, interval: tuple[float, float],
                    ladder: EpsilonLadder | None,
                    spec: QuadratureSpec) -> PairingSweepResult:
    """Pair kernel(ts, eps) with a probe at each ladder eps, panels down to eps / 4."""
    def measure(eps):
        res = integrate_pairing(probe, lambda ts: kernel(ts, eps), *interval,
                                spec, origin_scale=eps / 4.0)
        return res.value, res.error_estimate
    return _ladder_sweep((ladder or EpsilonLadder.default()).values, measure)


# ---------------------------------------------------------------- beta family

def beta(alpha, beta_arg) -> complex:
    """Euler formula B = Gamma(a) Gamma(b) / Gamma(a+b); poles propagate."""
    a = complex(alpha)
    b = complex(beta_arg)
    return cmath.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))


def beta_semi_infinite(alpha, beta_arg, spec: QuadratureSpec | None = None) -> complex:
    """B(a, b) through the half-line representation of the Beta integral.

    The integral over u in [0, inf) of u^(a-1) (1+u)^(-a-b) is split at u = 1
    and each half is mapped by u = exp(+-v) onto an exponentially decaying
    integrand, so both pieces satisfy the semi-infinite quadrature contract.
    """
    a = complex(alpha)
    b = complex(beta_arg)
    if not a.real > 0.0:
        raise DomainError("Re(alpha) > 0")
    if not b.real > 0.0:
        raise DomainError("Re(beta) > 0")
    s = a + b

    def half(p: complex) -> complex:  # p = a: u = e^-v in (0, 1]; b: u = e^v
        f = lambda v: np.exp(-p * v) * (1.0 + np.exp(-v)) ** (-s)
        per = (TWO_PI / abs(p.imag)) if abs(p.imag) > 1e-12 else None
        return integrate_semi_infinite(f, p.real, spec, osc_period=per).value

    return half(a) + half(b)


def beta_reg(tau, eps: float):
    """B(eps + i tau, eps - i tau) = |Gamma(eps + i tau)|^2 / Gamma(2 eps).

    Euler's Beta at those two arguments, evaluated through conjugate
    symmetry: log_gamma(eps - i tau) is the conjugate of log_gamma(eps + i tau),
    so each node costs one log-gamma and the call one more for Gamma(2 eps).
    The value is real; it is returned as a complex with zero imaginary part.
    ``tau`` may be an array; a scalar tau gives a scalar.
    """
    if not eps > 0.0:
        raise DomainError("eps > 0")
    taus = np.asarray(tau, dtype=float)
    lgs = [log_gamma(complex(eps, t)) for t in taus.ravel().tolist()]
    lg_2eps = log_gamma(complex(2.0 * eps)).real
    vals = [cmath.exp(lg + lg.conjugate() - lg_2eps) for lg in lgs]
    if taus.ndim == 0:
        return vals[0]
    return np.array(vals, dtype=complex).reshape(taus.shape)


# ----------------------------------------------------------- delta pairings

def delta_target(probe: Probe, a: float, b: float) -> float:
    """Expected pairing limit: 2 pi phi(0), pi phi(0), or 0 by origin position."""
    if a < 0.0 < b:
        return TWO_PI * probe.value_at_zero
    if a == 0.0 or b == 0.0:
        return math.pi * probe.value_at_zero
    return 0.0


def delta_claim_sweep(probe: Probe, interval: tuple[float, float],
                      ladder: EpsilonLadder | None = None) -> PairingSweepResult:
    """Pair the regularized Beta kernel against a probe along the ladder."""
    return _pairing_ladder(beta_reg, probe, interval, ladder,
                           QuadratureSpec(abs_tol=1e-11, rel_tol=1e-9))


# ------------------------------------------------------- regularized Mellin

_MELLIN_CUT = math.log(2.0)
_MELLIN_FAR = 36.0


def _mellin_parts(u, eps: float):
    """Phase and doubled weight of the paired Mellin integrand at u >= ln 2.

    The half integrals at heights +-tau are the conjugate pair
    integral of w(u) exp(-+i tau phase(u)) du, with the real weight
    w = e^(-eps u) (1 - e^-u)^(eps-1) and phase = u + ln(1 - e^-u); their
    sum is the cosine transform of 2 w.
    """
    base = -np.expm1(-u)  # 1 - e^-u, accurate near u ~ ln 2
    return u + np.log(base), 2.0 * np.exp(-eps * u) * base ** (eps - 1.0)


def _mellin_tail(taus, eps: float):
    """Exact tail beyond _MELLIN_FAR of both half integrals, for each tau.

    The half at height tau, integral over [u0, inf) of
    exp(-a u) (1 - e^(-u))^(s-1) du with a = eps + i tau, s = eps - i tau,
    sums term by term through the binomial series (1-x)^(s-1) = sum b_k x^k
    since e^(-u0) < 1.  The -tau half is its conjugate, so the pair is
    2 Re of it.  Each element stops once a term falls below 1e-18 of its sum,
    after at most 40 terms.
    """
    a = eps + 1j * np.asarray(taus, dtype=float)
    s = a.conj()
    acc = np.zeros_like(a)
    bk = np.ones_like(a)
    active = np.ones(a.shape, dtype=bool)
    for k in range(40):
        term = bk * np.exp(-(a + k) * _MELLIN_FAR) / (a + k)
        acc = np.where(active, acc + term, acc)
        active &= np.abs(term) > 1e-18 * np.maximum(np.abs(acc), 1e-30)
        if not active.any():
            break
        bk = bk * (k + 1 - s) / (k + 1)
    return 2.0 * acc.real


def mellin_reg_forward(tau: float, eps: float,
                       spec: QuadratureSpec | None = None) -> complex:
    """Regularized Mellin value of f(t) = 1 at height tau, by quadrature.

    Evaluates the Beta integral form obtained from the half-line transform by
    the substitution u = t/(1-t): the two halves around t = 1/2 map to log
    variables u in [ln 2, inf) as a conjugate pair, summed as one real cosine
    integral.  The window [ln 2, 36] is paired against ones, as in the
    mollified inverse, and the tail beyond u = 36 is summed in closed form.
    Agrees with beta_reg(tau, eps) to combined tolerances; an oscillation
    too fast for the subdivision budget raises ConvergenceError.
    """
    if not 0.0 < eps < 0.5:
        raise DomainError("eps in (0, 1/2)")
    spec = spec or QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11)
    tau = float(tau)

    def f(v):
        # Shifted to start at 0, where the window's panels cluster.
        phase, weight = _mellin_parts(v + _MELLIN_CUT, eps)
        return weight * np.cos(tau * phase)

    per = (TWO_PI / abs(tau)) if abs(tau) > 1e-12 else None
    res = integrate_pairing(PROBES["const"], f, 0.0, _MELLIN_FAR - _MELLIN_CUT,
                            spec, origin_scale=0.25 / eps, osc_period=per)
    return res.value + float(_mellin_tail(tau, eps))


def _mellin_forward_grid(taus: np.ndarray, eps: float) -> np.ndarray:
    """Vectorized forward Mellin values on a fixed composite panel rule.

    One real cosine transform: cos(outer(taus, phase)) @ (w * 2 weight) over
    the composite nodes u of [ln 2, 36], plus the closed-form tails.  Used by
    the pairing sweep, where the kernel is evaluated at whole arrays of tau
    nodes; validated against the adaptive scalar route in the tests.
    """
    taus = np.asarray(taus, dtype=float)
    freq = float(np.max(np.abs(taus))) if taus.size else 1.0
    width = min(0.7, TWO_PI / (4.0 * (freq + 0.5)))
    n_panels = int(math.ceil((_MELLIN_FAR - _MELLIN_CUT) / width))
    edges = np.linspace(_MELLIN_CUT, _MELLIN_FAR, n_panels + 1)
    from .quad import _X_HI, _W_HI  # composite rule shares the panel nodes

    mids = 0.5 * (edges[1:] + edges[:-1])
    halves = 0.5 * (edges[1:] - edges[:-1])
    u = (mids[:, None] + halves[:, None] * _X_HI[None, :]).ravel()
    w = (halves[:, None] * _W_HI[None, :]).ravel()
    phase, weight = _mellin_parts(u, eps)
    return np.cos(np.multiply.outer(taus, phase)) @ (w * weight) \
        + _mellin_tail(taus, eps)


def mellin_forward_sweep(probe: Probe, interval: tuple[float, float],
                         ladder: EpsilonLadder | None = None) -> PairingSweepResult:
    """Pair the quadrature-computed Mellin values against a probe."""
    return _pairing_ladder(_mellin_forward_grid, probe, interval, ladder,
                           QuadratureSpec(abs_tol=1e-9, rel_tol=1e-8))


# --------------------------------------------------------- mollified inverse

def _cauchy_kernel_derivs(x: float, eps: float):
    c = eps / math.pi
    d = eps * eps + x * x
    g = c / d
    gp = -2.0 * c * x / d ** 2
    gpp = 2.0 * c * (3.0 * x * x - eps * eps) / d ** 3
    return g, gp, gpp


def mellin_inverse_check(t: float, eps: float) -> complex:
    """Mollified inverse-transform value: integral of t^(-ix) omega_eps(x).

    Quadrature over a finite window plus an oscillatory tail correction from
    two integrations by parts; the closed form is exp(-eps |ln t|), and the
    returned value matches it to ~1e-9, tending to 1 as eps -> 0+.
    """
    if not t > 0.0:
        raise DomainError("t > 0")
    if not eps > 0.0:
        raise DomainError("eps > 0")
    spec = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10, max_subdivisions=4000)
    L = abs(math.log(t))

    if L < 1e-300:
        # Integrand reduces to the kernel itself; exact arctan tail.
        X = max(50.0 * eps, 1.0)
        res = integrate_pairing(lambda x: np.ones_like(x),
                                lambda x: omega_eps(x, eps), 0.0, X,
                                spec, origin_scale=eps / 4.0)
        tail = math.atan2(eps, X) / math.pi
        return complex(2.0 * (res.value.real + tail), 0.0)

    budget = 2.5e-10
    X = max(
        20.0 * eps,
        (6.0 * eps / (math.pi * L ** 3 * budget)) ** 0.25,
        6.0 * TWO_PI / L,
    )
    f = lambda x: np.cos(L * x) * (eps / math.pi) / (eps * eps + x * x)
    res = integrate_pairing(lambda x: np.ones_like(x), f, 0.0, X, spec,
                            origin_scale=eps / 4.0, osc_period=TWO_PI / L)
    g, gp, gpp = _cauchy_kernel_derivs(X, eps)
    sin_lx = math.sin(L * X)
    cos_lx = math.cos(L * X)
    tail = -g * sin_lx / L - gp * cos_lx / L ** 2 + gpp * sin_lx / L ** 3
    return complex(2.0 * (res.value.real + tail), 0.0)


def mellin_inverse_sweep(t: float,
                         ladder: EpsilonLadder | None = None) -> PairingSweepResult:
    """Mollified inverse values along the ladder; the limit targets 1."""
    return _ladder_sweep((ladder or EpsilonLadder.default()).values,
                         lambda eps: (mellin_inverse_check(t, eps), 1e-9))
