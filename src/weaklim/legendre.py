"""Legendre functions of the second kind and the imaginary-order relation.

Q_nu^mu is evaluated from its half-line cosh(mu t)-weighted kernel integral,
valid for Re(nu + mu) > -1 and Re(nu + 1) > |Re mu| off the cut (-inf, 1];
``q_nu`` is its mu = 0 case and ``q_nu_itau_direct`` its mu = i tau case.
The branch sqrt(z^2 - 1) is always computed as sqrt(z - 1) * sqrt(z + 1)
with principal square roots, which realizes that cut.

The purely-imaginary-order relation

    Q_nu^{i tau}(z) = exp(-pi tau) Gamma(nu + i tau + 1) / Gamma(nu + 1) Q_nu(z)

is treated as a claim under test, never an axiom: ``q_nu_itau_direct``
computes the left side from its own oscillatory integral, never from the
relation, ``relation_rhs`` builds the right side from gamma data and Q_nu,
and ``adjudicate_relation`` records the measured deviation.  The deviation
vanishes identically at tau = 0 and in the large-|z| and large-|nu| regimes;
at desk-scale grid points it is a first-class measurement, not an assertion.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .complexfn import DomainError, _pole_index, _rx, log_gamma
from .quad import QuadratureSpec, Window, integrate_batch
from .report import ClaimVerdict

__all__ = [
    "BranchCutError",
    "EtaSolution",
    "LargeNuAsymptotics",
    "sqrt_cut",
    "q_nu",
    "q_nu_mu",
    "q_nu_mu_grid",
    "q_nu_itau_direct",
    "solve_eta",
    "relation_rhs",
    "adjudicate_relation",
    "adjudicate_relations",
    "asymptotic_large_nu",
    "near_one_laws",
]


class BranchCutError(DomainError):
    """Argument on the cut (-inf, 1]."""

    def __init__(self, z: complex):
        super().__init__(
            "z off the cut (-inf, 1]",
            f"z = {z!r} lies on the cut (-inf, 1]",
        )


def _off_cut(z) -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError("finite z", f"z = {z!r} is not finite")
    if z.imag == 0.0 and z.real <= 1.0:
        raise BranchCutError(z)
    return z


def sqrt_cut(z) -> complex:
    """sqrt(z^2 - 1) as sqrt(z-1) sqrt(z+1), cut along (-inf, 1]."""
    z = complex(z)
    return cmath.sqrt(z - 1.0) * cmath.sqrt(z + 1.0)


def q_nu(nu, z, spec: QuadratureSpec | None = None) -> complex:
    """Q_nu(z) = Q_nu^0(z) by semi-infinite quadrature of the cosh kernel."""
    return q_nu_mu(nu, 0.0, z, spec)


def _gegenbauer_tail(nu: complex, mu: complex, z: complex, w: complex,
                     cut: float) -> complex:
    """Integral over [cut, inf) of cosh(mu t) (z + w cosh t)^(-nu-1), in closed form.

    The kernel is (w/2)^-lam e^(-lam t) sum C_n^lam(x) e^(-n t), lam = nu + 1,
    x = -z / w (DLMF 18.12.4); cosh(mu t) splits its rate into lam -+ mu.
    d_n = C_n^lam(x) e^(-n cut) follows the three-term recurrence, and the
    sum stops after two terms in a row below 1e-17 of it.
    """
    lam = nu + 1.0
    x = -z / w
    y = math.exp(-cut)
    log_scale = -lam * cmath.log(0.5 * w)
    try:
        amp_minus = 0.5 * cmath.exp(log_scale - (lam - mu) * cut)
        amp_plus = 0.5 * cmath.exp(log_scale - (lam + mu) * cut)
    except OverflowError:  # the kernel overflows near the cut too: name it first
        raise DomainError("kernel of Q_nu^mu within double range") from None
    acc = 0j
    d_prev, d = 0j, 1.0 + 0j
    quiet = 0
    rate_minus, rate_plus, two_lam = lam - mu, lam + mu, 2.0 * lam
    for n in range(200):
        term = d * (amp_minus / (rate_minus + n) + amp_plus / (rate_plus + n))
        acc += term
        quiet = quiet + 1 if abs(term) <= 1e-17 * abs(acc) else 0
        if quiet == 2:
            break
        d_prev, d = d, (2.0 * (n + lam) * x * y * d
                        - (n + two_lam - 1.0) * y * y * d_prev) / (n + 1)
    return acc


def q_nu_mu(nu, mu, z, spec: QuadratureSpec | None = None) -> complex:
    """Associated Q_nu^mu(z) from the cosh(mu t)-weighted kernel integral.

    Requires Re(nu + mu) > -1, nu off the negative integers, and
    Re(nu + 1) > |Re mu| so the integral converges; the last also keeps
    nu - mu + 1 off the poles of the gamma prefactor.  Past the window [0, T],
    T = ln(4 rho max(1, |nu + 1|)) with rho = max |(-z -+ 1) / w| the larger
    root modulus of 1 - 2 x y + y^2, the Gegenbauer tail's terms fall 4-fold
    or faster in the end, and do not rise first at large degree.  This is
    the one-point case of q_nu_mu_grid.
    """
    return q_nu_mu_grid([(nu, mu, z)], spec)[0]


def q_nu_mu_grid(points, spec: QuadratureSpec | None = None) -> list[complex]:
    """q_nu_mu at each (nu, mu, z) of points, in order, from one integrate_batch.

    Every point is checked first; then the windows of all points are bisected
    in lockstep, one kernel call per round, each node with its own point's
    parameters, and each value is the one the point gives alone, bit for bit.
    """
    out, windows, slots, params = [], [], [], []
    for nu, mu, z in points:
        nu, mu, z = complex(nu), complex(mu), _off_cut(z)
        if _pole_index(nu + 1.0) is not None:
            raise DomainError("nu != -1, -2, ...", f"degree {nu!r} is a pole")
        if not (nu + mu).real > -1.0:
            raise DomainError("Re(nu + mu) > -1")
        if not nu.real + 1.0 - abs(mu.real) > 0.0:
            raise DomainError("Re(nu + 1) > |Re(mu)|",
                              "kernel decay too weak for the order")
        pref = cmath.exp(1j * math.pi * mu + log_gamma(nu + 1.0)
                         - log_gamma(nu - mu + 1.0))
        w = sqrt_cut(z)
        rho = max(abs(z + 1.0), abs(z - 1.0)) / abs(w)
        cut = math.log(4.0 * rho * max(1.0, abs(nu + 1.0)))
        tail = _gegenbauer_tail(nu, mu, z, w, cut)
        if pref == 0.0:  # the prefactor underflowed: no window to integrate
            out.append(0j)
            continue
        out.append(pref)
        windows.append(Window(len(params), 0.0, cut, osc_freq=mu.imag, tail=tail))
        slots.append(len(out) - 1)
        params.append((-nu - 1.0, z, 0.5 * w, mu))
    if not windows:
        return out
    # -nu - 1, z, w / 2 and mu of one point (a key k), or of each node (keys k)
    columns = np.array(params).T.copy() if len(params) > 1 else None

    def kernel(t, k):  # cosh(mu t) in the exponent: its overflow alone is no overflow of f
        power, shift, half_w, order = params[k] if isinstance(k, int) else columns[:, k]
        e = _rx(np.exp, t)  # cosh t from one exp: a complex np.cosh costs twice as much
        log_bare = power * np.log(shift + half_w * (e + 1.0 / e))
        mu_t = order * t
        return 0.5 * (np.exp(log_bare - mu_t) + np.exp(log_bare + mu_t))

    for i, res in zip(slots, integrate_batch(kernel, windows, spec)):
        out[i] *= res.value
    return out


def q_nu_itau_direct(nu, tau: float, z,
                     spec: QuadratureSpec | None = None) -> complex:
    """Q_nu^{i tau}(z) straight from its oscillatory integral (mu = i tau).

    Panels are tied to the cos(tau t) period, so this route never leans on
    the imaginary-order relation it is used to adjudicate.
    """
    return q_nu_mu(nu, 1j * float(tau), z, spec)


@dataclass(frozen=True)
class EtaSolution:
    """Principal solution of cos(tau eta) = |Gamma(nu+1+i tau)|^2 / Gamma(nu+1)^2."""

    eta: float
    cos_value: float
    branch_index: int
    degenerate: bool = False


def solve_eta(nu: float, tau: float) -> EtaSolution:
    """Mean-value angle of the imaginary-order relation, k = 0 branch.

    For real nu > -1 the right-hand side lies in (0, 1], so eta is real and
    taken nonnegative.  tau = 0 is degenerate (cos value 1, eta 0) and is
    flagged as such.
    """
    nu = float(nu)
    tau = float(tau)
    if not nu > -1.0:
        raise DomainError("nu > -1 real")
    if tau == 0.0:
        return EtaSolution(0.0, 1.0, 0, degenerate=True)
    log_cv = 2.0 * (log_gamma(complex(nu + 1.0, tau)).real
                    - log_gamma(complex(nu + 1.0)).real)
    cos_value = math.exp(log_cv)
    if cos_value > 1.0 + 1e-12:
        raise RuntimeError(
            f"internal consistency: cos value {cos_value} exceeds 1")
    cos_value = min(cos_value, 1.0)
    eta = math.acos(cos_value) / abs(tau)
    return EtaSolution(eta, cos_value, 0)


def relation_rhs(nu, tau: float, z) -> complex:
    """Right-hand side of the imaginary-order relation, from gamma and Q_nu."""
    return _relation_factor(nu, tau) * q_nu(nu, z)


def _relation_factor(nu, tau: float) -> complex:
    """exp(-pi tau) Gamma(nu + i tau + 1) / Gamma(nu + 1), the relation's factor."""
    nu = complex(nu)
    t = float(tau)
    return cmath.exp(-math.pi * t + log_gamma(nu + 1.0 + 1j * t) - log_gamma(nu + 1.0))


def adjudicate_relation(nu, tau: float, z) -> ClaimVerdict:
    """Measure both sides of the imaginary-order relation at one grid point.

    The deviation |lhs - rhs| / |lhs| is recorded, never judged: the verdict
    is always REPORTED, and a claim applies its own tolerance to it.
    """
    return adjudicate_relations([(nu, tau, z)])[0]


def adjudicate_relations(grid) -> list[ClaimVerdict]:
    """adjudicate_relation at each (nu, tau, z) of grid, in order, taking
    Q_nu(z) once per distinct (nu, z); both sides' integrals are one
    q_nu_mu_grid."""
    grid = [(nu, float(tau), z) for nu, tau, z in grid]
    bases = list(dict.fromkeys((nu, z) for nu, _, z in grid))
    values = q_nu_mu_grid([(nu, 1j * tau, z) for nu, tau, z in grid]
                          + [(nu, 0.0, z) for nu, z in bases])
    q = dict(zip(bases, values[len(grid):]))
    out = []
    for (nu, tau, z), lhs in zip(grid, values):
        rhs = _relation_factor(nu, tau) * q[nu, z]
        dev = abs(lhs - rhs) / max(abs(lhs), 1e-300)
        nu_c = complex(nu)
        z_c = complex(z)
        out.append(ClaimVerdict(
            claim="legendre-relation",
            point=f"nu={nu_c.real:g}{nu_c.imag:+g}j;tau={float(tau):g};"
                  f"z={z_c.real:g}{z_c.imag:+g}j",
            deviation=dev,
            extra={
                "nu_re": nu_c.real, "nu_im": nu_c.imag, "tau": float(tau),
                "z_re": z_c.real, "z_im": z_c.imag,
                "lhs_re": lhs.real, "lhs_im": lhs.imag,
                "rhs_re": rhs.real, "rhs_im": rhs.imag,
                "rel_dev": dev,
            },
        ))
    return out


@dataclass(frozen=True)
class LargeNuAsymptotics:
    """Both large-degree forms: fully explicit and prefactor times Q_nu."""

    explicit: complex
    via_q_nu: complex | None = None


def asymptotic_large_nu(nu, tau: float, z,
                        with_quadrature: bool = False) -> LargeNuAsymptotics:
    """Large-|nu| forms of Q_nu^{i tau}(z).

    The explicit value is nu^(-1/2 + i tau) exp(-pi tau) (z + sqrt(z^2-1))
    ^(-nu - 1/2); the alternative routes the prefactor exp(-pi tau) nu^(i tau)
    through a quadrature value of Q_nu.  The caller is responsible for |nu|
    being large enough for either to be meaningful.
    """
    nu = complex(nu)
    if not cmath.isfinite(nu):
        raise DomainError("finite nu", f"nu = {nu!r} is not finite")
    if not nu.real > 0.0:
        raise DomainError("Re(nu) > 0")
    z = _off_cut(z)
    t = float(tau)
    if not math.isfinite(t):
        raise DomainError("finite tau", f"tau = {t!r} is not finite")
    log_nu = cmath.log(nu)
    explicit = cmath.exp(
        (-0.5 + 1j * t) * log_nu - math.pi * t
        + (-nu - 0.5) * cmath.log(z + sqrt_cut(z))
    )
    via = None
    if with_quadrature:
        via = cmath.exp(-math.pi * t + 1j * t * log_nu) * q_nu(nu, z)
    return LargeNuAsymptotics(explicit, via)


def near_one_laws(nu, z, tau: float = 0.0, mu=None, kind: str = "log") -> complex:
    """Leading-order behavior of the Q functions as z -> 1.

    kind "log":   -ln(z - 1) / (2 Gamma(nu + 1))
    kind "log_itau": the same with the imaginary-order prefactor
                  -(1/2) exp(-pi tau) Gamma(nu + i tau + 1) / Gamma(nu+1)^2
                  times ln(z - 1)
    kind "power": (1/2) exp(i mu pi) 2^(mu/2) Gamma(mu) (z-1)^(-mu/2),
                  requiring Re(mu) > 0 (DLMF 14.8.12 with 14.3.10).

    The logarithmic laws converge only like 1/ln(z-1): the additive constant
    they drop is O(1), so at z - 1 = 1e-6 the "log" law still sits a few
    percent away from Q_nu.  Callers compare trends and slopes, not digits.
    """
    nu = complex(nu)
    z = _off_cut(z)
    log_zm1 = cmath.log(z - 1.0)
    if kind == "log":
        return -log_zm1 * 0.5 * cmath.exp(-log_gamma(nu + 1.0))
    if kind == "log_itau":
        t = float(tau)
        pref = cmath.exp(-math.pi * t + log_gamma(nu + 1.0 + 1j * t)
                         - 2.0 * log_gamma(nu + 1.0))
        return -0.5 * pref * log_zm1
    if kind == "power":
        if mu is None:
            raise DomainError("mu required for the power law")
        mu = complex(mu)
        if not mu.real > 0.0:
            raise DomainError("Re(mu) > 0")
        return 0.5 * cmath.exp(
            1j * math.pi * mu + 0.5 * mu * math.log(2.0)
            + log_gamma(mu) - 0.5 * mu * log_zm1
        )
    raise DomainError("kind in {log, log_itau, power}")
