"""Legendre second-kind functions, the imaginary-order relation, asymptotics."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from weaklim import claims, legendre
from weaklim.complexfn import EULER_GAMMA, DomainError, _rx, digamma, gamma, log_gamma
from weaklim.legendre import (
    BranchCutError,
    _gegenbauer_tail,
    asymptotic_large_nu,
    near_one_laws,
    q_nu,
    q_nu_itau_direct,
    q_nu_mu,
    q_nu_mu_grid,
    relation_rhs,
    solve_eta,
    sqrt_cut,
)
from weaklim.config import RunConfig
from weaklim.quad import integrate_semi_infinite

mpmath.mp.dps = 30


def q0_exact(z: float) -> float:
    return 0.5 * math.log((z + 1.0) / (z - 1.0))


def q1_exact(z: float) -> float:
    return 0.5 * z * math.log((z + 1.0) / (z - 1.0)) - 1.0


# ------------------------------------------------------------------ baseline

def test_q0_and_q1_closed_forms():
    assert abs(q_nu(0.0, 2.0) - q0_exact(2.0)) <= 1e-8 * q0_exact(2.0)
    assert abs(q_nu(1.0, 2.0) - q1_exact(2.0)) <= 1e-8 * q1_exact(2.0)


def test_q0_far_field():
    v = q_nu(0.0, 1e6)
    assert abs(v - 1e-6) <= 1e-10  # leading 1/z with O(z^-3) correction


def test_q_nu_matches_mpmath_type3():
    for (nu, z) in [(2.5, 1.7), (0.3, 4.0), (4.0, 1.05)]:
        want = complex(mpmath.legenq(nu, 0, z, type=3))
        assert abs(q_nu(nu, z) - want) <= 1e-9 * abs(want)


# (nu, mu, z) at the edges of the kernel integral: decay nu + 1 - |Re mu|
# down to 1e-9, cosh(mu t) alone past double range, z - 1 down to 1e-15,
# degree 50 and 150, complex z off the cut, and C_2^1(x) = 0 at z = i/sqrt 3.
_Q_EDGES = [
    (-1.0 + 1e-7, 0.0, 2.0), (0.0, 1.0 - 1e-9, 2.0), (150.0, 140.0, 3.0),
    (50.0, 50.98, 1.0 + 1e-9), (0.0, 0.0, 1j / math.sqrt(3.0)),
    (-0.98, 0.0, 2.0), (0.0, 0.98, 1.5), (0.5, 1.48 + 2.0j, 3.0),
    (-0.98, 0.0, 1.0 + 1e-6), (-0.98, 3.0j, 1.1), (0.02, -1.0, 10.0),
    (0.3, 0.0, 1.0 + 1e-15), (2.0, 0.5, 1.0 + 1e-12), (0.0, 1.5j, 1.0 + 1e-9),
    (50.0, 0.0, 2.0), (50.0, 0.0, 100.0), (50.0, 0.5, 1.5), (50.0, 3.0j, 1.01),
    (50.0, 0.0, 1.0 + 1e-6),
    (0.0, 0.0, 1.0j), (1.0, 0.3, 2.0j), (0.5, 1.0j, -0.5j), (2.5, 0.0, 30.0j),
    (0.5, 0.0, -3.0 + 1e-9j), (0.5, 0.2, -3.0 - 1e-9j), (1.5, 0.5j, -1.5 + 1e-6j),
    (0.0, 0.0, 1.0 + 1e-9j), (1.0, 0.5j, 1.0 + 1e-9j), (-0.5, 0.3, 1.0 - 1e-9j),
]


@pytest.mark.parametrize("nu, mu, z", _Q_EDGES)
def test_q_nu_mu_matches_mpmath_at_the_edges(nu, mu, z):
    # The bench contract: 1e-10 relative or 1e-12 absolute on the integral,
    # scaled by the prefactor, plus two log-gammas' worth in that prefactor.
    got = q_nu_mu(nu, mu, z)
    assert cmath.isfinite(got)
    want = complex(mpmath.legenq(nu, mu, z, type=3))
    pref = abs(complex(mpmath.exp(1j * mpmath.pi * mu) * mpmath.gamma(nu + 1)
                       * mpmath.rgamma(nu - mu + 1)))
    assert abs(got - want) <= max(1e-12 * pref, 1e-10 * abs(want)) + 2e-12 * abs(want)


@pytest.mark.parametrize("nu, mu, z", [(50.0, 0.0, 100.0), (50.0, 0.0, 1000.0),
                                       (100.0, 0.0, 10.0), (150.0, 140.0, 3.0),
                                       (0.5 + 30.0j, 0.0, 100.0)])
def test_large_degree_keeps_relative_accuracy(nu, mu, z):
    # Values far below the contract's absolute floor: a tail series whose
    # coefficients grow with the degree before they fall would cancel here.
    want = complex(mpmath.legenq(nu, mu, z, type=3))
    assert abs(q_nu_mu(nu, mu, z) - want) <= 1e-12 * abs(want)


def test_kernel_past_double_range_is_a_domain_error():
    # Q_50^50.98 at z - 1 = 1e-15 is about 1e400: its tail is named before the
    # window's kernel overflows, so no RuntimeWarning leaks either.
    with pytest.raises(DomainError, match="double range"):
        q_nu_mu(50.0, 50.98, 1.0 + 1e-15)


def test_cut_rejections():
    for z in (0.5, 1.0, -2.0, 0.999):
        with pytest.raises(BranchCutError):
            q_nu(0.0, z)


def test_weak_decay_rejected():
    with pytest.raises(DomainError):
        q_nu(-1.0, 2.0)
    # q_nu is the mu = 0 case of q_nu_mu and names its conditions.
    with pytest.raises(DomainError) as exc:
        q_nu(-1.5, 2.0)
    assert exc.value.condition == "Re(nu + mu) > -1"
    with pytest.raises(DomainError) as exc:
        q_nu_mu(0.0, 1.0, 2.0)
    assert exc.value.condition == "Re(nu + 1) > |Re(mu)|"


def test_slow_decay_matches_mpmath():
    # Kernel decay 0.01: most of the integral lies beyond the window, in the
    # Gegenbauer tail, so nothing is evaluated near t ~ 710 where cosh
    # overflows; no RuntimeWarning may leak (pytest turns them into errors).
    for nu, mu in [(0.0, 0.99), (-0.99, 0.0)]:
        want = complex(mpmath.legenq(nu, mu, 2.0, type=3))
        assert abs(q_nu_mu(nu, mu, 2.0) - want) <= 1e-10 * abs(want)


def test_sqrt_cut_branch():
    # Principal product realizes the cut: continuous across the upper plane,
    # positive for real z > 1.
    assert abs(sqrt_cut(2.0) - math.sqrt(3.0)) <= 1e-15
    up = sqrt_cut(-0.5 + 1e-9j)
    down = sqrt_cut(-0.5 - 1e-9j)
    assert abs(up - down.conjugate()) <= 1e-8
    assert up.imag * down.imag < 0.0


def test_branch_reality_for_real_parameters():
    for nu in (0.0, 0.7, 3.0):
        for z in (1.5, 2.0, 10.0):
            v = q_nu(nu, z)
            assert abs(v.imag) <= 1e-10 * abs(v.real)
    # Integer orders keep e^{i pi mu} real; non-integer real orders are the
    # same real integral rotated by that phase.
    v = q_nu_mu(1.0, 1.0, 3.0)
    assert abs(v.imag) <= 1e-10 * abs(v)
    w = q_nu_mu(1.0, 0.5, 3.0) * cmath.exp(-0.5j * math.pi)
    assert abs(w.imag) <= 1e-10 * abs(w)


# ------------------------------------------------------------------- q_nu_mu

def test_q_nu_mu_reduces_at_mu_zero():
    for (nu, z) in [(0.5, 2.0), (2.0, 1.3)]:
        a = q_nu_mu(nu, 0.0, z)
        b = q_nu(nu, z)
        assert abs(a - b) <= 1e-10 * abs(b)


def test_q_nu_mu_imaginary_order_consistency():
    a = q_nu_mu(1.0, 0.5j, 3.0)
    b = q_nu_itau_direct(1.0, 0.5, 3.0)
    assert abs(a - b) <= 1e-9 * abs(b)


def test_q_nu_mu_matches_mpmath():
    want = complex(mpmath.legenq(2.0, 0.5, 3.0, type=3))
    got = q_nu_mu(2.0, 0.5, 3.0)
    assert abs(got - want) <= 1e-9 * abs(want)


def test_q_nu_mu_large_z_asymptote():
    # sqrt(pi) e^{i pi mu} Gamma(nu+mu+1) / Gamma(nu+3/2) (2z)^(-nu-1).
    z = 1e3
    for (nu, mu) in [(0.0, 0.0), (2.0, 0.5), (1.0, 0.5j)]:
        asym = (math.sqrt(math.pi) * cmath.exp(1j * math.pi * mu)
                * gamma(nu + mu + 1.0) / gamma(nu + 1.5)
                * (2.0 * z) ** (-nu - 1.0))
        got = q_nu_mu(nu, mu, z)
        assert abs(got / asym - 1.0) <= 0.01, (nu, mu)


def test_q_nu_mu_named_preconditions():
    with pytest.raises(DomainError) as exc:
        q_nu_mu(0.0, 1.0, 2.0)  # decay 1 - |Re mu| = 0
    assert "Re(nu + 1) > |Re(mu)|" in exc.value.condition
    with pytest.raises(DomainError) as exc:
        q_nu_mu(-0.5, -0.75, 2.0)
    assert "Re(nu + mu) > -1" in exc.value.condition
    with pytest.raises(DomainError):
        q_nu_mu(-2.0, 0.0, 2.0)


# ----------------------------------------------------------- imaginary order

def _q_alone(nu, mu, z):
    """Q_nu^mu(z) one point at a time, with every kernel parameter a Python
    complex: the window through integrate_semi_infinite, plus its tail."""
    nu, mu, z = complex(nu), complex(mu), complex(z)
    pref = cmath.exp(1j * math.pi * mu + log_gamma(nu + 1.0) - log_gamma(nu - mu + 1.0))
    w = sqrt_cut(z)
    rho = max(abs(z + 1.0), abs(z - 1.0)) / abs(w)
    cut = math.log(4.0 * rho * max(1.0, abs(nu + 1.0)))
    tail = _gegenbauer_tail(nu, mu, z, w, cut)
    if pref == 0.0:
        return 0j

    def f(t):
        e = _rx(np.exp, t)
        log_bare = (-nu - 1.0) * np.log(z + 0.5 * w * (e + 1.0 / e))
        return 0.5 * (np.exp(log_bare - mu * t) + np.exp(log_bare + mu * t))

    return pref * integrate_semi_infinite(f, cut, tail, osc_freq=mu.imag).value


# Real and complex degrees, orders and arguments; windows that converge on
# their initial panels and ones that bisect many times (fast cos(tau t), z
# near the cut at 1); an underflowed prefactor that skips its window.
_Q_GRID = [
    (0.0, 0.0, 2.0), (1.0, 0.5j, 1.5), (2.0, 1.0j, 5.0), (0.5 + 0.3j, 0.4 - 0.2j, 1.5 + 0.5j),
    (3.0, 2.5, 1.0 + 1e-5), (1.0, 6.0j, 1.2), (40.0 - 5.0j, 1.0 + 2.0j, 3.0 - 1.0j),
    (0.0, 1e4j, 2.0), (-0.3, 0.2, 1.0 + 1e-3j), (2.0, 0.0, 1.0 + 1e-6),
]


def test_q_grid_is_each_point_alone():
    # One lockstep pass over the grid, each node with its own point's
    # parameters, gives each point the bits of its own scalar kernel.
    got = q_nu_mu_grid(_Q_GRID)
    want = [_q_alone(*point) for point in _Q_GRID]
    assert [repr(v) for v in got] == [repr(v) for v in want]
    assert got[7] == 0j  # the underflowed prefactor


@pytest.mark.parametrize("nu, tau", [(5.0, math.nan), (5.0, math.inf), (5.0, -math.inf),
                                     (complex(5.0, math.nan), 1.0), (math.inf, 1.0)])
def test_large_nu_forms_reject_non_finite_arguments(nu, tau):
    # A NaN tau, or a NaN imaginary part of nu, gave explicit=(nan+nanj).
    with pytest.raises(DomainError) as exc:
        asymptotic_large_nu(nu, tau, 2.0)
    assert exc.value.condition in ("finite nu", "finite tau")


def test_itau_reduces_at_tau_zero():
    for (nu, z) in [(0.0, 2.0), (2.0, 5.0)]:
        a = q_nu_itau_direct(nu, 0.0, z)
        b = q_nu(nu, z)
        assert abs(a - b) <= 1e-10 * abs(b)


def test_itau_matches_mpmath():
    for (nu, tau, z) in [(1.0, 0.5, 2.0), (0.0, 1.0, 3.0), (2.0, 0.25, 1.5)]:
        want = complex(mpmath.legenq(nu, mpmath.mpc(0, tau), z, type=3))
        got = q_nu_itau_direct(nu, tau, z)
        assert abs(got - want) <= 1e-9 * abs(want)


def test_itau_modulus_bound():
    # |prefactor| * integral of the plain kernel bounds the oscillatory value.
    val = q_nu_itau_direct(0.0, 1.0, 2.0)
    bound = (math.exp(-math.pi) * abs(1.0 / gamma(1.0 - 1j))
             * abs(q_nu(0.0, 2.0)))
    assert abs(val) <= bound * (1.0 + 1e-10)


def test_underflowed_prefactor_skips_the_window(monkeypatch):
    # At tau = 1e4 the prefactor e^(-pi tau) / Gamma(1 - i tau) is about
    # 1e-6822, so mpmath's modulus bound |prefactor| Q_0(2) rounds to 0 in
    # double precision; the window is not integrated at all.
    tau = 1e4
    bound = (mpmath.exp(-mpmath.pi * tau) / abs(mpmath.gamma(mpmath.mpc(1, -tau)))
             * abs(mpmath.legenq(0, 0, 2, type=3)))
    assert float(bound) == 0.0
    monkeypatch.setattr(legendre, "integrate_batch", None)  # a call raises
    assert q_nu_itau_direct(0.0, tau, 2.0) == 0j


def test_itau_conjugation_identity():
    # cos is even in tau, so only the prefactor changes sign structure:
    # value(-tau) = e^{2 pi tau} conj(value(tau)) for real nu, z > 1.
    for (nu, tau, z) in [(1.0, 0.5, 2.0), (0.5, 1.0, 3.0)]:
        a = q_nu_itau_direct(nu, -tau, z)
        b = math.exp(2.0 * math.pi * tau) * q_nu_itau_direct(nu, tau, z).conjugate()
        assert abs(a - b) <= 1e-9 * abs(a)


def test_truncation_stability():
    # The window plus its Gegenbauer tail, cut at T and at 2 T.
    nu, mu, z = 1.0 + 0j, 0.5j, 2.0 + 0j
    from weaklim.legendre import _gegenbauer_tail
    f = lambda ts: np.cos(0.5 * ts) * (2.0 + math.sqrt(3.0) * np.cosh(ts)) ** -2.0
    r1, r2 = (integrate_semi_infinite(
        f, cut, _gegenbauer_tail(nu, mu, z, sqrt_cut(z), cut), osc_freq=mu.imag)
        for cut in (2.5, 5.0))
    assert abs(r1.value - r2.value) <= 1e-13 * abs(r1.value)


# ---------------------------------------------------------------- eta solver

def test_eta_at_nu_zero_tau_one():
    sol = solve_eta(0.0, 1.0)
    oracle = math.pi / math.sinh(math.pi)  # |Gamma(1+i)|^2 via reflection
    assert abs(sol.cos_value - oracle) <= 1e-10
    assert abs(sol.eta - math.acos(oracle)) <= 1e-10
    assert sol.branch_index == 0 and not sol.degenerate


def test_eta_large_nu_tends_to_zero():
    sol = solve_eta(1000.0, 1.0)
    assert abs(sol.cos_value - 1.0) <= 1e-3
    assert 0.0 <= sol.eta <= 0.05


def test_eta_small_tau_continuity():
    sol = solve_eta(0.0, 1e-6)
    assert abs(sol.cos_value - 1.0) <= 1e-9
    assert sol.eta <= 2.0  # acos(1 - x) / tau stays bounded as tau -> 0


def test_eta_degenerate_and_bounds():
    sol = solve_eta(0.0, 0.0)
    assert sol.degenerate and sol.eta == 0.0 and sol.cos_value == 1.0
    for nu in (-0.9, 0.0, 0.5, 3.0, 40.0):
        for tau in (0.1, 1.0, 5.0):
            assert 0.0 < solve_eta(nu, tau).cos_value <= 1.0


# ------------------------------------------------------------ relation sides

def test_relation_rhs_reduces_at_tau_zero():
    a = relation_rhs(1.0, 0.0, 2.0)
    b = q_nu(1.0, 2.0)
    assert abs(a - b) <= 1e-12 * abs(b)


def test_relation_rhs_components():
    got = relation_rhs(0.0, 1.0, 2.0)
    want = math.exp(-math.pi) * gamma(1.0 + 1j) * q0_exact(2.0)
    assert abs(got - want) <= 1e-8 * abs(want)


def test_relation_rhs_near_one_consistency_band():
    # Against the imaginary-order logarithmic law at z = 1.01; the law drops
    # an O(1) constant, so the agreement is a band, not digits (the exact
    # Q_1 closed form puts the ratio near 0.73 here).
    rhs = relation_rhs(1.0, 0.5, 1.01)
    law = near_one_laws(1.0, 1.01, tau=0.5, kind="log_itau")
    ratio = abs(rhs) / abs(law)
    assert 0.6 <= ratio <= 0.9


def relation_verdict(nu, tau, z):
    """The relation's verdict at one (nu, tau, z): the claims' row, judged as
    the REPORT claim E47-legendre-relation judges it."""
    [row] = claims._relation_rows([(nu, tau, z)])
    return claims._judge(claims._BY_ID["E47-legendre-relation"], RunConfig(), row)


def test_adjudication_tau_zero_grid():
    for nu in (0.0, 1.0, 2.0):
        for z in (2.0, 5.0):
            v = relation_verdict(nu, 0.0, z)
            assert v.status == "REPORTED"
            assert v.deviation <= 1e-8


def test_adjudication_reports_finite_deviations():
    v = relation_verdict(0.0, 1.0, 1.5)
    assert v.status == "REPORTED"
    assert 0.0 < v.deviation < 1.0
    assert v.extra is not None and "lhs_re" in v.extra


# ------------------------------------------------------------ large-nu forms

def test_gamma_ratio_against_power():
    # Gamma(nu+1+i tau)/Gamma(nu+1) vs nu^{i tau} at nu = 1e3, through
    # log-gamma so the individual factorials never overflow.
    from weaklim.complexfn import log_gamma
    nu, tau = 1e3, 1.0
    ratio = cmath.exp(log_gamma(nu + 1.0 + 1j * tau) - log_gamma(nu + 1.0))
    power = cmath.exp(1j * tau * math.log(nu))
    assert abs(ratio - power) / abs(power) <= 1e-3


def test_explicit_asymptote_at_nu_50():
    # The explicit large-degree form carries no kernel-width constant, so its
    # ratio to the quadrature value tends to sqrt(pi / (2 sinh xi)) ~ 0.9523
    # at z = 2, and sits near 0.9449 at nu = 50.  Frozen measured band.
    got = asymptotic_large_nu(50.0, 0.0, 2.0, with_quadrature=True)
    ratio = abs(q_nu(50.0, 2.0) / got.explicit)
    assert 0.935 <= ratio <= 0.955
    assert abs(got.via_q_nu - q_nu(50.0, 2.0)) <= 1e-9 * abs(got.via_q_nu)


@pytest.mark.parametrize("tau", [0.5, 1.0])
def test_quadrature_large_nu_form_carries_the_phase(tau):
    # via_q_nu is exp(-pi tau) nu^(i tau) Q_nu(z); at tau != 0 the phase
    # nu^(i tau) is not 1, so its exponent i tau ln nu shows.
    got = asymptotic_large_nu(50.0, tau, 2.0, with_quadrature=True).via_q_nu
    want = math.exp(-math.pi * tau) * 50.0 ** (1j * tau)
    assert abs(got / q_nu(50.0, 2.0) - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("call", [
    lambda: q_nu_mu(700.0, 700.0, 700.0),
    lambda: q_nu_itau_direct(0.5, -1e300, 2.0),
    lambda: relation_rhs(0.5, -1e300, 2.0),
    lambda: asymptotic_large_nu(10.0, -1e300, 2.0),
], ids=["q_nu_mu", "q_nu_itau_direct", "relation_rhs", "asymptotic_large_nu"])
def test_prefactor_past_double_range_is_a_domain_error(call):
    # Gamma(nu + 1) / Gamma(nu - mu + 1) at nu = mu = 700, or exp(-pi tau)
    # at tau = -1e300, leaves double range: each raised a bare OverflowError.
    with pytest.raises(DomainError) as exc:
        call()
    assert exc.value.condition.endswith("within double range")


def test_explicit_asymptote_modulus_tau_independence():
    # |nu^{i tau}| = 1 for real nu: the modulus only feels exp(-pi tau).
    base = asymptotic_large_nu(50.0, 0.0, 2.0).explicit
    shifted = asymptotic_large_nu(50.0, 1.0, 2.0).explicit
    assert abs(abs(shifted) - math.exp(-math.pi) * abs(base)) <= 1e-12 * abs(base)


def test_large_nu_ratio_trend():
    vals = []
    for nu in (10.0, 50.0, 250.0):
        vals.append(abs(q_nu(nu, 2.0)
                        / asymptotic_large_nu(nu, 0.0, 2.0).explicit))
    limit = math.sqrt(math.pi / (2.0 * math.sinh(math.acosh(2.0))))
    assert abs(vals[-1] - limit) < abs(vals[0] - limit)


# -------------------------------------------------------------- near-1 laws

def test_near_one_log_law_value():
    z = 1.0 + 1e-6
    law = near_one_laws(0.0, z, kind="log")
    oracle = -math.log(z - 1.0) / 2.0  # ~6.9078 at the representable z
    assert abs(law - oracle) <= 1e-12 * abs(law)


def test_near_one_log_ratio_frozen():
    # Exact closed forms: Q_0 ratio 0.952226, Q_1 ratio 1.104475 at 1e-6.
    for nu, frozen in ((0.0, 0.952226), (1.0, 1.104475)):
        law = near_one_laws(nu, 1.0 + 1e-6, kind="log")
        ratio = abs(law / q_nu(nu, 1.0 + 1e-6))
        assert abs(ratio - frozen) <= 1e-3, nu


def test_near_one_logarithmic_not_power():
    # Constant-free log signature: Q(1+d') - Q(1+d) = (1/2) ln(d/d').
    diff = (q_nu(0.0, 1.0 + 1e-8) - q_nu(0.0, 1.0 + 1e-4)).real
    assert abs(diff - 0.5 * math.log(1e4)) <= 1e-3


def test_near_one_power_slopes():
    deltas = (1e-3, 1e-4, 1e-5)
    for nu, mu in ((0.0, 0.5), (1.0, 1.0)):
        xs, ys = [], []
        for d in deltas:
            xs.append(math.log(d))
            ys.append(math.log(abs(q_nu_mu(nu, mu, 1.0 + d))))
        mx = sum(xs) / 3.0
        my = sum(ys) / 3.0
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) \
            / sum((x - mx) ** 2 for x in xs)
        assert abs(slope + 0.5 * mu) <= 0.02, (nu, mu)


@pytest.mark.parametrize("nu, mu, bound", [(0.0, 0.5, 1e-3), (1.0, 1.0, 3e-5),
                                           (2.0, 1.5, 1e-5)])
def test_near_one_power_law(nu, mu, bound):
    # DLMF 14.8.12 with 14.3.10: Q_nu^mu(z) ~ (1/2) e^{i mu pi} 2^{mu/2}
    # Gamma(mu) (z-1)^{-mu/2}; measured 7.1e-4, 1.4e-5, 5.6e-6 at z-1 = 1e-6.
    def dev(d):
        law = near_one_laws(nu, 1.0 + d, mu=mu, kind="power")
        return abs(law / q_nu_mu(nu, mu, 1.0 + d) - 1.0)

    assert dev(1e-6) <= bound
    assert dev(1e-6) < dev(1e-4)


# Companions of the red criteria 14b and 15a: the laws that do hold, with
# bands set by the measured deviations.

@pytest.mark.parametrize("nu, bound", [(0.0, 1e-7), (1.0, 5e-6), (2.5, 2e-5)])
def test_near_one_law_with_constant(nu, bound):
    # DLMF 14.8.9: Q_nu(z) = -ln((z-1)/2) / 2 - gamma - psi(nu+1) + O(z-1).
    z = 1.0 + 1e-6
    law = -0.5 * math.log((z - 1.0) / 2.0) - EULER_GAMMA - digamma(nu + 1.0).real
    assert abs(q_nu(nu, z) - law) <= bound * abs(law)


@pytest.mark.parametrize("nu", [10.0, 50.0, 250.0])
def test_large_degree_deviation_is_order_one_over_nu(nu):
    # DLMF 14.15.13 at z = cosh xi = 2: the leading term is off by ~0.39 / nu.
    xi = math.acosh(2.0)
    lead = (math.sqrt(math.pi / (2.0 * nu * math.sinh(xi)))
            * math.exp(-(nu + 0.5) * xi))
    scaled = nu * abs(q_nu(nu, 2.0) / lead - 1.0)
    assert 0.35 <= scaled <= 0.42


def test_near_one_power_law_requires_positive_order():
    with pytest.raises(DomainError):
        near_one_laws(0.0, 1.001, mu=0.5j, kind="power")
    with pytest.raises(DomainError):
        near_one_laws(0.0, 1.001, kind="power")


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, complex(math.nan, 1.0),
                               complex(2.0, math.inf)],
                         ids=["nan", "inf", "-inf", "nan+1j", "2+infj"])
@pytest.mark.parametrize("call", [
    lambda z: q_nu(0.0, z),
    lambda z: q_nu_mu(1.0, 0.5, z),
    lambda z: asymptotic_large_nu(10.0, 0.0, z),
    lambda z: near_one_laws(1.0, z),
], ids=["q_nu", "q_nu_mu", "asymptotic_large_nu", "near_one_laws"])
def test_non_finite_z_is_a_domain_error(call, z):
    # NaN fails every comparison, so the cut test alone would let it through.
    with pytest.raises(DomainError) as exc:
        call(z)
    assert exc.value.condition == "finite z"
