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
cross-checked against the Euler closed form.  It takes the half-line Beta
form of beta_semi_infinite: in v = ln(t / (1 - t)), split at t = 1/2, the
halves at heights +-tau are complex conjugates, so their sum is one real
cosine transform,

    integral over [0, inf) of 2 e^(-eps v) (1 + e^-v)^(-2 eps) cos(tau v) dv,

with an analytic binomial-series tail beyond v = ln 4, where each of its
terms is at most 1/4 of the one before.  For real tau the Beta value is real
as well: B(eps + i tau, eps - i tau) = |Gamma(eps + i tau)|^2 / Gamma(2 eps),
one log-gamma per node.  Both kernels are even in tau, bit for bit, so a
batch of pairing nodes is evaluated once per distinct |tau|.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .complexfn import DomainError, _log_gamma_right_array, _rx, _times, log_gamma
from .quad import (
    _W_HI,
    _X_HI,
    QuadratureSpec,
    Window,
    integrate_batch,
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
_MELLIN_ROWS = 32  # distinct |tau| per cosine block of _mellin_forward_grid
_SWEEP_SPEC = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-9)  # Beta-delta, family, oscillatory
_FIT_RUNGS = 4  # the trailing ladder points _fit_sweep fits


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
    return _rx(np.exp, -t * t)


def _cauchy(t):
    return 1.0 / (1.0 + t * t)


def _bump(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0 - 1e-12
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = _rx(np.exp, -1.0 / (1.0 - t[inside] ** 2))
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
    with np.errstate(over="ignore"):
        den = eps * eps + x * x
    if den.all() and np.isfinite(den).all():
        out = (eps / math.pi) / den
    else:  # eps^2 + x^2 left double range: there (1/pi) / (eps + x (x / eps))
        wide = (den == 0.0) | (den == math.inf)
        x = np.where(wide, x, 0.0)
        with np.errstate(over="ignore"):  # an x (x / eps) past double range: the kernel is 0
            den = np.where(wide, eps + x * (x / eps), den)
        try:
            with np.errstate(over="raise"):
                out = np.where(wide, 1.0 / math.pi, eps / math.pi) / den
        except FloatingPointError:  # near x = 0 the kernel, 1/(pi eps), is past double range
            raise DomainError("omega_eps within double range",
                              f"the kernel at eps = {eps!r} overflows near x = 0") from None
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
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den


def _fit_sweep(params, values, errs) -> tuple[complex, float]:
    """Fit value = L + C * eps^q on the trailing points; return (L, order).

    Only the last min(_FIT_RUNGS, n) points enter the fit (in the manner of
    Sidi, Practical Extrapolation Methods, 2003), so a verdict on the limit
    or the order reads no earlier rung of the ladder.
    """
    n = len(values)
    use = min(_FIT_RUNGS, n)
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
        q_new = _lsq_slope(xs, ys)
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
    order = _lsq_slope(xs, ys) if len(xs) >= 2 else q
    return limit, order


def _ladder_sweep(params, measured) -> PairingSweepResult:
    """Fit the limit of the (value, error estimate) measured at each ladder parameter."""
    params = list(params)
    values, errs = (list(col) for col in zip(*measured))
    limit, order = _fit_sweep(params, values, errs)
    pts = tuple((float(p), complex(v), float(er))
                for p, v, er in zip(params, values, errs))
    return PairingSweepResult(pts, limit, order)


def _pairing_ladder(kernel, ladders, spec: QuadratureSpec) -> list[PairingSweepResult]:
    """Pair kernel(ts, eps) with a probe at each eps of each ladder, panels down to eps / 4.

    ``ladders`` holds (probe, interval, eps values), and the result is one
    PairingSweepResult per entry.  Each rung is integrate_pairing's window at
    its eps, and the rungs of every entry are one integrate_batch keyed by
    their index: a single kernel call seeds every rung, and the rungs then
    bisect in lockstep.  A call's keys are each node's rung, or the one rung
    of all its nodes, and either way they look up the kernel's eps (as
    eps_of[keys], which the kernel's _even_in_tau spreads over the nodes)
    and each node's entry.  Each probe is evaluated on its own entry's nodes
    only.
    """
    rungs = [(i, e) for i, (_, _, eps) in enumerate(ladders) for e in eps]
    entry_of = np.array([i for i, _ in rungs])
    eps_of = np.array([e for _, e in rungs])

    def g(ts, keys):
        values = np.asarray(kernel(ts, eps_of[keys]))
        entries = np.broadcast_to(entry_of[keys], ts.shape)
        out = np.empty(ts.shape, complex)
        for i in np.unique(entries).tolist():
            at = entries == i
            out[at] = np.asarray(ladders[i][0](ts[at])) * values[at]
        return out

    res = iter(integrate_batch(g, [Window(k, *ladders[i][1], e / 4.0)
                                   for k, (i, e) in enumerate(rungs)], spec))
    # zip takes each entry's len(eps) results off res, in order.
    return [_ladder_sweep(eps, [(r.value, r.error_estimate) for _, r in zip(eps, res)])
            for _, _, eps in ladders]


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
    if not (cmath.isfinite(a) and cmath.isfinite(b)):
        raise DomainError("finite alpha and beta", f"B({a!r}, {b!r}) of a non-finite argument")
    s = a + b
    cut = math.log(4.0 * max(1.0, abs(s)))
    f = lambda v: _times(np.exp(-a * v) + np.exp(-b * v), (1.0 + _rx(np.exp, -v)) ** (-s))
    tail = complex(_binomial_tail(np.array([a, b]), 1.0 - s, cut).sum())
    freq = max(abs(a.imag), abs(b.imag))
    return integrate_semi_infinite(f, cut, tail, spec, osc_freq=freq).value


def beta_reg(tau, eps):
    """B(eps + i tau, eps - i tau) = |Gamma(eps + i tau)|^2 / Gamma(2 eps).

    Euler's Beta at those two arguments, evaluated through conjugate
    symmetry: log_gamma(eps -+ i tau) sum to 2 Re log_gamma(eps + i tau).  An
    array tau, with a float eps or one eps per node, takes one array
    log-gamma call over its distinct (eps, |tau|), with the scalar route's
    bits, and one log-gamma for Gamma(2 eps) per distinct eps.  The value is
    real, returned as a complex; a scalar tau gives a scalar.
    """
    taus = np.asarray(tau, dtype=float)
    if taus.ndim == 0:
        if not eps > 0.0:
            raise DomainError("eps > 0")
        lg_2eps = log_gamma(complex(2.0 * eps)).real
        return cmath.exp(2.0 * log_gamma(complex(eps, float(taus))).real - lg_2eps)
    if not np.all(np.greater(eps, 0.0)):
        raise DomainError("eps > 0")

    def node(x, mags):
        lg_2eps = _per_eps(lambda e: log_gamma(complex(2.0 * e)).real, x)
        # Through numpy's complex exp, as _rx: it rounds as cmath.exp at every level.
        return np.exp((2.0 * _log_gamma_right_array(x, mags).real - lg_2eps).astype(complex))

    return _even_in_tau(node, taus, eps)


def _even_in_tau(node: Callable, tau, eps, conj: bool = False):
    """An even kernel at each (tau, eps), evaluated once per distinct (eps, |tau|).

    eps is a float or one eps per tau (anything that broadcasts to tau's
    shape; else DomainError).  ``node(x, mags)`` maps the 1-d arrays x and
    mags, the eps and |tau| of each distinct (eps, |tau|), to the kernel
    there; with ``conj`` the kernel is conjugate-even instead,
    K(-tau) = conj K(tau).  The result has the shape of tau.
    """
    taus = np.asarray(tau, dtype=float)
    try:
        eps = np.broadcast_to(eps, taus.shape)
    except ValueError:
        raise DomainError("eps a float or one per tau",
                          f"eps of shape {np.shape(eps)} for tau of shape {taus.shape}") from None
    keys = np.empty(taus.size, complex)  # sorted by eps, then |tau|
    keys.real, keys.imag = eps.ravel(), np.abs(taus).ravel()
    keys, where = np.unique(keys, return_inverse=True)
    out = node(keys.real, keys.imag)[where].reshape(taus.shape)
    if conj:
        np.conjugate(out, out=out, where=taus < 0.0)
    return out


def _per_eps(f, x):
    """f at each distinct eps of the array x, spread over x."""
    eps, where = np.unique(x, return_inverse=True)
    return np.array([f(e) for e in eps.tolist()])[where]


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
    eps = (ladder or EpsilonLadder.default()).values
    return _pairing_ladder(beta_reg, [(probe, interval, eps)], _SWEEP_SPEC)[0]


# ------------------------------------------------------- regularized Mellin

_INVERSE_BUDGET = 2.5e-10  # of _mellin_inverse's tail by parts
_TINY = 2.2250738585072014e-308  # the smallest normal double


def _binomial_tail(a, s, cut: float):
    """Integral over [cut, inf) of e^(-a u) (1 + e^-u)^(s-1) du.

    The binomial series (1 + x)^(s-1) = sum b_k x^k integrates term by
    term to e^(-a cut) sum_k b_k x^k / (a+k), x = e^-cut, elementwise in a
    (Re a > 0) for one s, over all k at once: log(b_k x^k) sums the logs of
    the ratios b_(k+1) x / b_k = (k+1-s) x / (-(k+1)).  A term is at most
    r = x max(1, |1-s|) times the one before, so the first n, with
    r^n <= 1e-18 (1 - 2r), leave less than 1e-18 of the sum; 40 for r >= 1/2.
    An s that rounded to 1 leaves z = 1 - s = 0, whose first ratio is 0:
    there z is the smallest normal double, which keeps the logs finite and
    every term past b_0 = 1 below 1e-300 of it.  The one product of two
    complex arrays goes through _times, and complex log, exp and / do not
    depend on the SIMD level.
    """
    a = np.asarray(a, dtype=complex)
    z = (1.0 - complex(s)) or complex(_TINY)
    x = math.exp(-cut)
    r = x * max(1.0, abs(z))
    n = 40 if r >= 0.5 else min(40, math.ceil(math.log(1e-18 * (1.0 - 2.0 * r)) / math.log(r)))
    k = np.arange(n)
    logs = np.log((k + z) * (x / -(k + 1)))
    terms = np.exp(np.cumsum(logs, axis=-1) - logs) / (a[..., None] + k)  # b_k x^k / (a+k)
    return _times(np.exp(-a * cut), terms.sum(axis=-1))


def mellin_reg_forward(tau: float, eps: float,
                       spec: QuadratureSpec | None = None) -> complex:
    """Regularized Mellin value of f(t) = 1 at height tau, by quadrature.

    The value is B(eps + i tau, eps - i tau), taken from beta_semi_infinite's
    half-line form: its window [0, ln 4] adapts to the cosine's period, and
    the binomial tails beyond are closed form.  The value is real; it is
    returned as a complex.  Agrees with beta_reg(tau, eps) to combined
    tolerances; a non-finite tau raises DomainError, and an oscillation too
    fast for the subdivision budget ConvergenceError.
    """
    if not 0.0 < eps < 0.5:
        raise DomainError("eps in (0, 1/2)")
    tau = float(tau)
    if not math.isfinite(tau):
        raise DomainError("finite tau", f"tau = {tau!r} is not finite")
    spec = spec or QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11)
    a = complex(eps, tau)
    return complex(beta_semi_infinite(a, a.conjugate(), spec).real)


def _mellin_forward_grid(taus: np.ndarray, eps, reach: float) -> np.ndarray:
    """Vectorized forward Mellin values on a fixed composite panel rule.

    beta_semi_infinite's form at a = eps + i tau, b = conj a, summed as one
    real cosine transform: row sums of cos(outer(taus, v)) * (w * 2 weight),
    weight = e^(-eps v) (1 + e^-v)^(-2 eps), over the composite nodes v of
    [0, ln 4] that resolve |tau| up to ``reach``, plus twice the real part of
    the closed-form tail.  The rule (v, w) is built once, the cosines are
    taken once per distinct |tau| over every eps of the call, in blocks of
    _MELLIN_ROWS, and each distinct (eps, |tau|) takes one row sum against
    its eps's weights.  The pairing sweep sets ``reach`` from its window,
    and a row sum sees no other row, so a node's value does not depend on
    its batch; validated against the adaptive scalar route in the tests.
    eps is a float or one eps per tau; _even_in_tau hands the transform the
    eps of each distinct (eps, |tau|) either way.
    """
    cut = math.log(4.0)
    width = min(0.7, TWO_PI / (4.0 * (reach + 0.5)))
    n_panels = int(math.ceil(cut / width))
    edges = np.linspace(0.0, cut, n_panels + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    halves = 0.5 * (edges[1:] - edges[:-1])
    v = (mids[:, None] + halves[:, None] * _X_HI[None, :]).ravel()
    w = (halves[:, None] * _W_HI[None, :]).ravel()
    # e^-v >= 1/4, where numpy's complex log1p is accurate (it is not near 0).
    log_base = _rx(np.log1p, _rx(np.exp, -v))

    def transform(x, mags):
        epss, at_eps = np.unique(x, return_inverse=True)
        rows = w * 2.0 * _rx(np.exp, -epss[:, None] * v - 2.0 * epss[:, None] * log_base)
        distinct, at_mag = np.unique(mags, return_inverse=True)
        block = at_mag // _MELLIN_ROWS
        out = np.empty(mags.size)
        for start in range(0, distinct.size, _MELLIN_ROWS):
            cosines = np.cos(np.multiply.outer(distinct[start:start + _MELLIN_ROWS], v))
            at = block == start // _MELLIN_ROWS
            out[at] = (cosines[at_mag[at] - start] * rows[at_eps[at]]).sum(axis=1)
        for k, eps in enumerate(epss.tolist()):
            at = at_eps == k
            out[at] += 2.0 * _binomial_tail(eps + 1j * mags[at], 1.0 - 2.0 * eps, cut).real
        return out

    return _even_in_tau(transform, taus, eps)


def mellin_forward_sweep(probe: Probe, interval: tuple[float, float],
                         ladder: EpsilonLadder | None = None) -> PairingSweepResult:
    """Pair the quadrature-computed Mellin values against a probe."""
    reach = max(abs(interval[0]), abs(interval[1]))
    eps = (ladder or EpsilonLadder.default()).values
    return _pairing_ladder(lambda ts, e: _mellin_forward_grid(ts, e, reach),
                           [(probe, interval, eps)],
                           QuadratureSpec(abs_tol=1e-9, rel_tol=1e-8))[0]


# --------------------------------------------------------- mollified inverse

def _mellin_inverse(t: float, epss) -> list[tuple[complex, float]]:
    """mellin_inverse_check's value and error estimate at each eps of epss.

    Each is one pairing of cos(L x) omega_eps(x), L = |ln t|, over [0, X] plus
    a closed-form tail, arctan at L = 0 (cos(L x) is exactly 1) and otherwise
    two integrations by parts; the estimate is twice the window's plus the
    tail's budget.  The windows of all eps, each with its tail, are one
    integrate_batch keyed by eps.
    """
    if not 0.0 < t < math.inf:
        raise DomainError("0 < t < inf")
    spec = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10, max_subdivisions=4000)
    L = abs(math.log(t))
    windows = []
    for eps in epss:
        if not eps > 0.0:
            raise DomainError("eps > 0")
        if eps * eps == 0.0:  # the kernel's eps^2 + x^2 would be 0 near x = 0
            raise DomainError("eps^2 > 0", f"eps = {eps!r}: eps^2 underflows to 0")
        if L == 0.0:
            X = max(50.0 * eps, 1.0)
        else:
            X = max(
                20.0 * eps,
                (6.0 * eps / (math.pi * L ** 3 * _INVERSE_BUDGET)) ** 0.25,
                6.0 * TWO_PI / L,
            )
        d = eps * eps + X * X
        if not math.isfinite(d):
            raise DomainError("eps^2 + X^2 finite",
                              f"eps = {eps!r}: the window [0, {X!r}] or omega_eps on it "
                              "leaves double range")
        if L == 0.0:
            tail = math.atan2(eps, X) / math.pi
        else:
            c = eps / math.pi  # omega_eps(X) = c / d
            try:
                g, gp = c / d, -2.0 * c * X / d ** 2
                gpp = 2.0 * c * (3.0 * X * X - eps * eps) / d ** 3
                sin_lx, cos_lx = math.sin(L * X), math.cos(L * X)
                tail = -g * sin_lx / L - gp * cos_lx / L ** 2 + gpp * sin_lx / L ** 3
            except OverflowError:  # d ** 2 past double range
                tail = math.inf
        if not math.isfinite(tail):
            raise DomainError("finite closed-form tail",
                              f"eps = {eps!r}: the tail past X = {X!r} is not finite")
        windows.append(Window(eps, 0.0, X, eps / 4.0, L, tail))

    def kernel(x, eps):
        return np.cos(L * x) * (eps / math.pi) / (eps * eps + x * x)

    budget = 0.0 if L == 0.0 else _INVERSE_BUDGET
    return [(complex(2.0 * res.value.real, 0.0), 2.0 * (res.error_estimate + budget))
            for res in integrate_batch(kernel, windows, spec)]


def mellin_inverse_check(t: float, eps: float) -> complex:
    """Mollified inverse-transform value: integral of t^(-ix) omega_eps(x).

    Quadrature over a finite window plus a closed-form tail; the closed form
    is exp(-eps |ln t|), and the returned value matches it to ~1e-9, tending
    to 1 as eps -> 0+.  An eps whose window or tail leaves double range
    raises DomainError.
    """
    return _mellin_inverse(t, [eps])[0][0]


def mellin_inverse_sweep(t: float,
                         ladder: EpsilonLadder | None = None) -> PairingSweepResult:
    """Mollified inverse values and estimates along the ladder, one batch; the
    limit targets 1."""
    eps = (ladder or EpsilonLadder.default()).values
    return _ladder_sweep(eps, _mellin_inverse(t, eps))
