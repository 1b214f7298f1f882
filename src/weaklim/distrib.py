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
/ Gamma(2 eps), one log-gamma per node.  Both kernels are even in tau, bit
for bit, so a batch of pairing nodes is evaluated once per distinct |tau|.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .complexfn import DomainError, _log_gamma_right_array, log_gamma
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
    if not 0.0 < eps < math.inf:
        raise DomainError("0 < eps < inf")
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():  # +-inf is fine: the kernel's limit there is 0
        raise DomainError("x not NaN", "omega_eps of NaN x")
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

    Split at u = 1 and mapped by u = exp(-+v), u^(a-1) (1+u)^(-a-b) over
    [0, inf) becomes (e^(-a v) + e^(-b v)) (1 + e^-v)^(-a-b): a window [0, T]
    plus binomial-series tails, falling 4-fold a term past T = ln(4 max(1, |a+b|)).
    """
    a = complex(alpha)
    b = complex(beta_arg)
    if not a.real > 0.0:
        raise DomainError("Re(alpha) > 0")
    if not b.real > 0.0:
        raise DomainError("Re(beta) > 0")
    s = a + b
    cut = math.log(4.0 * max(1.0, abs(s)))
    f = lambda v: (np.exp(-a * v) + np.exp(-b * v)) * (1.0 + np.exp(-v)) ** (-s)
    tail = complex(_binomial_tail(np.array([a, b]), 1.0 - s, 1.0, cut).sum())
    freq = max(abs(a.imag), abs(b.imag))
    return integrate_semi_infinite(f, cut, tail, spec, osc_freq=freq).value


def beta_reg(tau, eps: float):
    """B(eps + i tau, eps - i tau) = |Gamma(eps + i tau)|^2 / Gamma(2 eps).

    Euler's Beta at those two arguments, evaluated through conjugate
    symmetry: log_gamma(eps -+ i tau) sum to 2 Re log_gamma(eps + i tau).  An
    array tau takes one array log-gamma call over its distinct |tau|, with
    the scalar route's bits, and one log-gamma for Gamma(2 eps).  The value
    is real, returned as a complex; a scalar tau gives a scalar.
    """
    if not eps > 0.0:
        raise DomainError("eps > 0")
    lg_2eps = log_gamma(complex(2.0 * eps)).real
    taus = np.asarray(tau, dtype=float)
    if taus.ndim == 0:
        return cmath.exp(2.0 * log_gamma(complex(eps, float(taus))).real - lg_2eps)
    # Complex np.exp rounds as cmath.exp; real-dtype np.exp is SIMD code.
    return _even_in_tau(lambda mags: np.exp((
        2.0 * _log_gamma_right_array(eps, mags).real - lg_2eps).astype(complex)), taus)


def _even_in_tau(node: Callable, tau, conj: bool = False):
    """An even kernel at each tau, evaluated once per distinct |tau|.

    ``node`` maps the 1-d array of distinct |tau|, ascending, to the kernel
    there; with ``conj`` the kernel is conjugate-even instead,
    K(-tau) = conj K(tau).  The result has the shape of tau.
    """
    taus = np.asarray(tau, dtype=float)
    mags, where = np.unique(np.abs(taus).ravel(), return_inverse=True)
    out = node(mags)[where].reshape(taus.shape)
    if conj:
        np.conjugate(out, out=out, where=taus < 0.0)
    return out


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
_MELLIN_ROWS = 32  # taus per cosine block of _mellin_forward_grid; a multiple of 4


def _mellin_parts(u, eps: float):
    """Phase and doubled weight of the paired Mellin integrand at u >= ln 2.

    The half integrals at heights +-tau are the conjugate pair
    integral of w(u) exp(-+i tau phase(u)) du, with the real weight
    w = e^(-eps u) (1 - e^-u)^(eps-1) and phase = u + ln(1 - e^-u); their
    sum is the cosine transform of 2 w.
    """
    base = -np.expm1(-u)  # 1 - e^-u, accurate near u ~ ln 2
    return u + np.log(base), 2.0 * np.exp(-eps * u) * base ** (eps - 1.0)


def _binomial_tail(a, s, sign: float, cut: float):
    """Integral over [cut, inf) of e^(-a u) (1 + sign e^-u)^(s-1) du, sign = +-1.

    The binomial series (1 + sign x)^(s-1) = sum b_k x^k integrates term by
    term to b_k e^(-(a+k) cut) / (a+k), elementwise in a and s.  Each element
    stops once a term falls below 1e-18 of its sum, after at most 40 terms.
    """
    a = np.asarray(a, dtype=complex)
    acc = np.zeros_like(a)
    bk = np.ones_like(a)
    active = np.ones(a.shape, dtype=bool)
    for k in range(40):
        term = bk * np.exp(-(a + k) * cut) / (a + k)
        acc = np.where(active, acc + term, acc)
        active &= np.abs(term) > 1e-18 * np.maximum(np.abs(acc), 1e-30)
        if not active.any():
            break
        bk = bk * (k + 1 - s) / (-sign * (k + 1))
    return acc


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

    res = integrate_pairing(PROBES["const"], f, 0.0, _MELLIN_FAR - _MELLIN_CUT,
                            spec, origin_scale=0.25 / eps, osc_freq=tau)
    a = complex(eps, tau)  # the +tau half's tail; the -tau half's is its conjugate
    return res.value + 2.0 * _binomial_tail(a, a.conjugate(), -1, _MELLIN_FAR).real


def _mellin_forward_grid(taus: np.ndarray, eps: float, reach: float) -> np.ndarray:
    """Vectorized forward Mellin values on a fixed composite panel rule.

    One real cosine transform: cos(outer(taus, phase)) @ (w * 2 weight) over
    the composite nodes u of [ln 2, 36] that resolve |tau| up to ``reach``,
    plus the closed-form tails; once per distinct |tau|, in blocks of
    _MELLIN_ROWS rows.  The pairing sweep sets ``reach`` from its window, so
    a node's value does not depend on its batch; validated against the
    adaptive scalar route in the tests.
    """
    taus = np.asarray(taus, dtype=float)
    width = min(0.7, TWO_PI / (4.0 * (reach + 0.5)))
    n_panels = int(math.ceil((_MELLIN_FAR - _MELLIN_CUT) / width))
    edges = np.linspace(_MELLIN_CUT, _MELLIN_FAR, n_panels + 1)
    from .quad import _X_HI, _W_HI  # composite rule shares the panel nodes

    mids = 0.5 * (edges[1:] + edges[:-1])
    halves = 0.5 * (edges[1:] - edges[:-1])
    u = (mids[:, None] + halves[:, None] * _X_HI[None, :]).ravel()
    w = (halves[:, None] * _W_HI[None, :]).ravel()
    phase, weight = _mellin_parts(u, eps)
    ww = w * weight

    def transform(mags):
        # BLAS gemv rounds a row by the kernel of its group of 4 rows: with
        # 4k rows a tau gets the same bits wherever it sits in the batch.
        rows = np.resize(mags, -(-mags.size // 4) * 4)
        out = np.empty(rows.size)
        for i in range(0, rows.size, _MELLIN_ROWS):
            out[i:i + _MELLIN_ROWS] = \
                np.cos(np.multiply.outer(rows[i:i + _MELLIN_ROWS], phase)) @ ww
        a = eps + 1j * mags
        return out[:mags.size] + 2.0 * _binomial_tail(a, a.conj(), -1, _MELLIN_FAR).real

    return _even_in_tau(transform, taus)


def mellin_forward_sweep(probe: Probe, interval: tuple[float, float],
                         ladder: EpsilonLadder | None = None) -> PairingSweepResult:
    """Pair the quadrature-computed Mellin values against a probe."""
    reach = max(abs(interval[0]), abs(interval[1]))
    return _pairing_ladder(lambda ts, eps: _mellin_forward_grid(ts, eps, reach), probe,
                           interval, ladder, QuadratureSpec(abs_tol=1e-9, rel_tol=1e-8))


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
    if not 0.0 < t < math.inf:
        raise DomainError("0 < t < inf")
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
                            origin_scale=eps / 4.0, osc_freq=L)
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
