"""Gamma-family scalars against independent closed forms and mpmath."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaklim.complexfn import (
    EULER_GAMMA,
    AccuracyContract,
    DomainError,
    PoleError,
    digamma,
    duplication_residual,
    gamma,
    log_gamma,
    trigamma,
)

mpmath.mp.dps = 30


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------- log_gamma

def test_log_gamma_at_one_is_zero():
    assert abs(log_gamma(1.0)) <= 1e-14


def test_log_gamma_at_half():
    assert rel(log_gamma(0.5), math.log(math.sqrt(math.pi))) <= 1e-13


def test_gamma_one_plus_i_modulus():
    # |Gamma(1+iy)|^2 = pi y / sinh(pi y), evaluated independently at y = 1.
    oracle = math.sqrt(math.pi / math.sinh(math.pi))
    assert rel(abs(gamma(1 + 1j)), oracle) <= 1e-12


@pytest.mark.parametrize("z", [0.25 + 0j, -0.5 + 0j, -2.5 + 0.5j, -7.3 - 2.2j,
                               0.1 + 9j, -0.4 - 0.01j, -49.5 + 1e-3j])
def test_log_gamma_matches_mpmath(z):
    want = complex(mpmath.loggamma(mpmath.mpc(z)))
    assert abs(log_gamma(z) - want) <= 1e-11 * max(1.0, abs(want))


def test_log_gamma_real_on_reflected_positive_axis():
    # (0, 1/2) goes through the reflection formula, whose imaginary parts
    # cancel only up to rounding.
    xs = [0.02, *np.linspace(0.0, 0.5, 2002)[1:-1].tolist()]
    assert [x for x in xs if log_gamma(x).imag != 0.0] == []


def test_log_gamma_principal_branch_continuity():
    # Walking a half circle around the origin at radius 2.5 must not jump.
    prev = None
    for k in range(201):
        theta = math.pi * (0.01 + 0.98 * k / 200)
        val = log_gamma(2.5 * cmath.exp(1j * theta))
        if prev is not None:
            assert abs(val - prev) < 0.5
        prev = val


# -------------------------------------------------------------------- gamma

def test_gamma_factorial():
    assert rel(gamma(5.0), 24.0) <= 1e-13


def test_gamma_half():
    assert rel(gamma(0.5), math.sqrt(math.pi)) <= 1e-13


@pytest.mark.parametrize("z", [0.0, -1.0, -7.0, -3 + 0j])
def test_gamma_pole_error(z):
    with pytest.raises(PoleError) as exc:
        gamma(z)
    assert exc.value.pole == round(complex(z).real)


def test_pole_tolerance_window():
    with pytest.raises(PoleError):
        gamma(-2.0 + 1e-15j)
    # Just outside the window the value is huge but finite.
    v = gamma(-2.0 + 1e-10j)
    assert abs(v) > 1e8


def test_gamma_overflow_rejected():
    with pytest.raises(DomainError):
        gamma(180.0)


# --------------------------------------------------------- digamma/trigamma

def test_digamma_known_values():
    assert rel(digamma(1.0), -EULER_GAMMA) <= 1e-12
    assert rel(digamma(2.0), 1.0 - EULER_GAMMA) <= 1e-12
    # Duplication value, cross-checked by finite differences below.
    assert rel(digamma(0.5), -EULER_GAMMA - 2.0 * math.log(2.0)) <= 1e-12


def test_digamma_vs_log_gamma_difference():
    h = 1e-5
    for z in (0.5, 1.7 + 0.3j, -2.3 + 1j, 4 - 9j):
        fd = (log_gamma(z + h) - log_gamma(z - h)) / (2 * h)
        assert abs(fd - digamma(z)) <= 1e-6 * max(1.0, abs(digamma(z)))


def test_trigamma_known_values():
    assert rel(trigamma(1.0), math.pi ** 2 / 6.0) <= 1e-10
    assert rel(trigamma(2.0), math.pi ** 2 / 6.0 - 1.0) <= 1e-10


def test_trigamma_vs_digamma_difference():
    h = 1e-5
    z = 1 + 1j
    fd = (digamma(z + h) - digamma(z - h)) / (2 * h)
    assert abs(fd - trigamma(z)) <= 1e-6 * abs(trigamma(z))


@pytest.mark.parametrize("z", [0.3 + 0.7j, -1.4 + 2j, 12 - 3j, -0.2 - 0.6j])
def test_psi_functions_match_mpmath(z):
    assert abs(digamma(z) - complex(mpmath.psi(0, mpmath.mpc(z)))) <= 1e-10
    assert abs(trigamma(z) - complex(mpmath.psi(1, mpmath.mpc(z)))) <= 1e-8


# -------------------------------------------------------------- duplication

def test_duplication_residual_examples():
    assert duplication_residual(1.0) <= 1e-12
    assert duplication_residual(0.3 + 0.7j) <= 1e-10
    assert duplication_residual(5.0) <= 1e-10  # Gamma(10) = 362880 regime


def test_duplication_residual_pole_propagates():
    with pytest.raises(PoleError):
        duplication_residual(-0.5)  # 2z = -1 is a pole


def test_duplication_residual_grid():
    for re in (0.2, 0.85, 2.1, 4.7):
        for im in (-6.0, -1.0, 0.0, 0.5, 3.0):
            assert duplication_residual(complex(re, im)) <= 1e-10


# ----------------------------------------------------------- invariant grid

def _grid(re_lo, re_hi, im_lo, im_hi, n_re=7, n_im=5):
    for i in range(n_re):
        for j in range(n_im):
            re = re_lo + (re_hi - re_lo) * i / (n_re - 1)
            im = im_lo + (im_hi - im_lo) * j / (n_im - 1)
            yield complex(re + 0.437, im)  # offset keeps us off poles/integers


def test_recurrence_grid():
    for z in _grid(-5, 10, -10, 10):
        g1 = gamma(z + 1)
        assert abs(g1 - z * gamma(z)) <= 1e-10 * abs(g1)


def test_reflection_grid():
    for z in _grid(-5, 10, -10, 10):
        lhs = gamma(z) * gamma(1 - z) * cmath.sin(math.pi * z) / math.pi
        assert abs(lhs - 1.0) <= 1e-10


def test_conjugate_symmetry_grid():
    for z in _grid(-5, 10, -10, 10):
        a = gamma(z.conjugate())
        b = gamma(z).conjugate()
        assert abs(a - b) <= 2e-14 * abs(b)


@settings(max_examples=60, deadline=None)
@given(
    re=st.floats(min_value=-20.0, max_value=50.0),
    im=st.floats(min_value=-50.0, max_value=50.0),
)
def test_recurrence_property(re, im):
    z = complex(re, im)
    n = round(z.real)
    if n <= 1 and abs(z - n) < 1e-3:
        z += 0.01  # stay clear of poles of z and z+1
        if abs(z - round(z.real)) < 1e-3 and round(z.real) <= 1:
            return
    g1 = gamma(z + 1)
    assert abs(g1 - z * gamma(z)) <= 1e-9 * abs(g1)


def test_accuracy_contract_validation():
    with pytest.raises(DomainError):
        AccuracyContract(target_rel_err=0.0)
    assert AccuracyContract().target_rel_err == 1e-12
