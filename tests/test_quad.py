"""Adaptive quadrature against antiderivatives and gamma closed forms."""

import math

import numpy as np
import pytest

from weaklim.complexfn import DomainError, gamma
from weaklim.quad import (
    ConvergenceError,
    EndpointExponents,
    IntegralResult,
    QuadratureSpec,
    _breakpoints,
    integrate_finite,
    integrate_pairing,
    integrate_semi_infinite,
)


def omega(eps):
    return lambda x: (eps / math.pi) / (eps * eps + x * x)


# ------------------------------------------------------------------- finite

def test_inverse_sqrt_singularity():
    res = integrate_finite(lambda t: t ** -0.5, 0.0, 1.0,
                           EndpointExponents(left_p=0.5))
    assert abs(res.value - 2.0) <= 1e-11
    assert res.error_estimate >= 0.0
    assert res.evaluations >= 31


def test_constant_one():
    res = integrate_finite(lambda t: np.ones_like(t), 0.0, 1.0)
    assert abs(res.value - 1.0) <= 1e-13


def test_complex_beta_integrand():
    # Euler integral with complex exponents against the gamma closed form.
    al, be = 0.3 + 0.4j, 0.7 - 0.4j
    f = lambda t: t ** (al - 1.0) * (1.0 - t) ** (be - 1.0)
    res = integrate_finite(f, 0.0, 1.0, EndpointExponents(al, be))
    oracle = gamma(al) * gamma(be) / gamma(al + be)
    assert abs(res.value - oracle) <= 1e-9 * abs(oracle)


def test_finite_rejects_bad_interval():
    with pytest.raises(DomainError):
        integrate_finite(lambda t: t, 1.0, 0.0)


def test_endpoint_exponent_validation():
    with pytest.raises(DomainError):
        EndpointExponents(left_p=-0.5)


# ------------------------------------------------------------ semi-infinite

def test_exponential_decay():
    res = integrate_semi_infinite(lambda t: np.exp(-t), 1.0)
    assert abs(res.value - 1.0) <= 1e-11
    assert res.truncation_point is not None and res.truncation_point > 5.0


def test_legendre_kernel_closed_form():
    # integral of (2 + sqrt(3) cosh t)^(-2) over [0, inf) equals ln 3 - 1.
    w = math.sqrt(3.0)
    f = lambda t: (2.0 + w * np.cosh(t)) ** -2.0
    res = integrate_semi_infinite(f, 2.0)
    assert abs(res.value - (math.log(3.0) - 1.0)) <= 1e-10


def test_decay_rate_rejected():
    with pytest.raises(DomainError):
        integrate_semi_infinite(lambda t: np.exp(-t), 0.0)


def test_truncation_soundness():
    f = lambda t: np.exp(-1.5 * t) * np.cos(t)
    base = integrate_semi_infinite(f, 1.5)
    doubled = integrate_semi_infinite(f, 1.5, force_truncation=2 * base.truncation_point)
    spec = QuadratureSpec()
    assert abs(base.value - doubled.value) <= 10 * spec.truncation_tail_tol


# ------------------------------------------------------------------ pairing

def test_pairing_interior_peak():
    eps = 1e-3
    res = integrate_pairing(lambda t: np.ones_like(t), omega(eps), -1.0, 1.0,
                            origin_scale=eps / 4)
    oracle = (2.0 / math.pi) * math.atan(1.0 / eps)
    assert abs(res.value - oracle) <= 1e-10


def test_pairing_endpoint_half_mass():
    eps = 1e-3
    full = integrate_pairing(lambda t: np.ones_like(t), omega(eps), -1.0, 1.0,
                             origin_scale=eps / 4)
    half = integrate_pairing(lambda t: np.ones_like(t), omega(eps), 0.0, 1.0,
                             origin_scale=eps / 4)
    assert abs(half.value - 0.5 * full.value) <= 1e-10


def test_pairing_origin_excluded():
    eps = 1e-3
    res = integrate_pairing(lambda t: np.ones_like(t), omega(eps), 1.0, 2.0)
    oracle = (math.atan(2.0 / eps) - math.atan(1.0 / eps)) / math.pi
    assert abs(res.value - oracle) <= 1e-12
    assert abs(res.value) <= 1e-3


def test_pairing_linearity():
    eps = 1e-2
    phi1 = lambda t: np.exp(-t * t)
    phi2 = lambda t: 1.0 / (1.0 + t * t)
    both = lambda t: phi1(t) + phi2(t)
    r1 = integrate_pairing(phi1, omega(eps), -1.0, 1.0, origin_scale=eps / 4)
    r2 = integrate_pairing(phi2, omega(eps), -1.0, 1.0, origin_scale=eps / 4)
    r12 = integrate_pairing(both, omega(eps), -1.0, 1.0, origin_scale=eps / 4)
    budget = 2.0 * (r1.error_estimate + r2.error_estimate + r12.error_estimate)
    assert abs(r12.value - (r1.value + r2.value)) <= max(budget, 1e-12)


# ------------------------------------------------------------- diagnostics

def test_error_estimate_honesty_catalog():
    spec = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-8)
    cases = []  # (result, true value)
    cases.append((integrate_finite(lambda t: np.ones_like(t), 0.0, 1.0, None, spec), 1.0))
    cases.append((integrate_finite(lambda t: t ** 3, 0.0, 1.0, None, spec), 0.25))
    cases.append((integrate_finite(lambda t: np.exp(t), 0.0, 1.0, None, spec),
                  math.e - 1.0))
    cases.append((integrate_finite(lambda t: np.sin(t), 0.0, math.pi, None, spec), 2.0))
    cases.append((integrate_finite(lambda t: t ** -0.5, 0.0, 1.0,
                                   EndpointExponents(left_p=0.5), spec), 2.0))
    cases.append((integrate_finite(lambda t: np.log(t), 1e-30 + 0.0, 1.0, None, spec),
                  -1.0))
    cases.append((integrate_finite(lambda t: 1.0 / (1.0 + 25 * t * t), -1.0, 1.0,
                                   None, spec), 0.4 * math.atan(5.0)))
    cases.append((integrate_semi_infinite(lambda t: np.exp(-t), 1.0, spec), 1.0))
    cases.append((integrate_semi_infinite(lambda t: np.exp(-2 * t) * np.cos(t), 2.0,
                                          spec), 0.4))
    cases.append((integrate_pairing(lambda t: np.ones_like(t), omega(0.1),
                                    -1.0, 1.0, spec, origin_scale=0.025),
                  (2.0 / math.pi) * math.atan(10.0)))
    honest = sum(
        1 for res, truth in cases
        if abs(res.value - truth) <= 5.0 * max(res.error_estimate, 1e-16)
    )
    assert honest >= 9, f"only {honest}/10 error estimates were honest"


def test_convergence_error_carries_best_estimate():
    tiny = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=3)
    with pytest.raises(ConvergenceError) as exc:
        integrate_finite(lambda t: np.abs(t - 1 / math.pi) ** 0.1, 0.0, 1.0, None, tiny)
    best = exc.value.best
    assert isinstance(best, IntegralResult)
    assert best.evaluations > 0
    assert math.isfinite(abs(best.value))


def test_non_finite_integrand_raises():
    # A NaN panel makes the error estimate NaN, which ends the bisection loop
    # as if it had converged.
    nan_right = lambda t: np.where(t > 0.5, np.nan, 1.0)
    with pytest.raises(ConvergenceError, match="non-finite"):
        integrate_finite(nan_right, 0.0, 1.0)
    with pytest.raises(ConvergenceError, match="non-finite"):
        integrate_semi_infinite(lambda t: np.exp(-t) * nan_right(t), 1.0)


def test_breakpoints_partition():
    assert _breakpoints(0.0, 1.0) == [0.0, 1.0]
    # Origin clustering at +-4 / 4^k down to 0.2, 0 itself, and an edge every
    # half period from a.
    assert _breakpoints(-1.0, 3.0, 0.2, 2.0) == [-1.0, -0.25, 0.0, 0.25, 1.0, 2.0, 3.0]
    # No clustering when the origin is outside [a, b].
    assert _breakpoints(1.0, 2.0, 1e-3) == [1.0, 2.0]


def test_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureSpec(max_subdivisions=0)
