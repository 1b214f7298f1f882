"""Gamma-family scalars against independent closed forms and mpmath."""

import cmath
import math
import warnings
from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaklim import complexfn
from weaklim.complexfn import (
    EULER_GAMMA,
    GAMMA_CONTRACT,
    AccuracyContract,
    DomainError,
    PoleError,
    _log_gamma_right,
    _log_gamma_right_array,
    digamma,
    duplication_residual,
    gamma,
    log_gamma,
    trigamma,
)
from weaklim.distrib import beta_reg
from weaklim.hyper import f_factor, family_closed_form
from weaklim.legendre import q_nu

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
    # (0, 1/2) takes the recurrence, which sums logs of positive reals, so
    # the value is real by construction; through the reflection formula the
    # imaginary parts would cancel only up to rounding.
    xs = [0.02, *np.linspace(0.0, 0.5, 2002)[1:-1].tolist()]
    assert [x for x in xs if log_gamma(x).imag != 0.0] == []


# The strip 0 < Re z < 1/2 holds every pairing-kernel node eps +- i tau.
_strip = st.builds(
    complex,
    st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True),
    st.floats(min_value=-100.0, max_value=100.0),
)


@settings(max_examples=200, deadline=None)
@given(z=_strip)
def test_log_gamma_strip_matches_mpmath(z):
    if abs(z) <= 1e-14:  # the pole window at 0
        with pytest.raises(PoleError):
            log_gamma(z)
        return
    got = log_gamma(z)
    want = complex(mpmath.loggamma(mpmath.mpc(z)))
    assert cmath.isfinite(got)
    assert abs(got - want) <= GAMMA_CONTRACT.target_rel_err


@settings(max_examples=200, deadline=None)
@given(z=_strip.filter(lambda z: abs(z) > 1e-14))
def test_log_gamma_strip_conjugate_symmetry_exact(z):
    # beta_reg and family_closed_form take lg(eps - i tau) as the conjugate
    # of lg(eps + i tau); that is exact, not merely accurate.
    assert log_gamma(z.conjugate()) == log_gamma(z).conjugate()


def test_log_gamma_principal_branch_continuity():
    # Walking a half circle around the origin at radius 2.5 must not jump.
    prev = None
    for k in range(201):
        theta = math.pi * (0.01 + 0.98 * k / 200)
        val = log_gamma(2.5 * cmath.exp(1j * theta))
        if prev is not None:
            assert abs(val - prev) < 0.5
        prev = val


# ---------------------------------------------------------- array log_gamma

def _kernel_batches(n: int, seed: int):
    """Batches (x, ts) of the pairing kernels' log-gamma: eps + i t and
    2 eps + 2 i t for eps in [1e-5, 8] and |t| <= 130, then the square
    max(|Re z|, |Im z|) < 2 with Re z > 0; n batches of each."""
    rng = np.random.default_rng(seed)
    eps = 10.0 ** rng.uniform(-5.0, math.log10(8.0), n)
    ts = [rng.uniform(-130.0, 130.0, k) for k in rng.integers(1, 100, n)]
    square = [(2.0 - rng.uniform(0.0, 2.0), rng.uniform(-2.0, 2.0, k))
              for k in rng.integers(1, 100, n)]
    return ([(e, t) for e, t in zip(eps.tolist(), ts)]
            + [(2.0 * e, 2.0 * t) for e, t in zip(eps.tolist(), ts)] + square)


def test_log_gamma_array_matches_scalar_bit_for_bit():
    batches = _kernel_batches(700, 31)
    got = np.concatenate([_log_gamma_right_array(x, ts) for x, ts in batches])
    want = [_log_gamma_right(complex(x, t)) for x, ts in batches for t in ts.tolist()]
    assert got.size == len(want) >= 100_000
    bad = np.flatnonzero((got.real != np.real(want)) | (got.imag != np.imag(want)))
    assert bad.size == 0, [(got[i], want[i]) for i in bad[:5]]


def test_log_gamma_array_takes_the_scalar_route_past_the_overflow():
    # Past |t| = 1e305, t ln t overflows.  CPython's complex ops give inf
    # silently, where numpy's would warn, so the array form hands those t to
    # the scalar routine; Beta's value there is 0 on both routes.
    ts = np.array([0.5, 1e305, -3e305, 1e306, 1e307, -1.7e308, np.finfo(float).max])
    for x in (1e-3, 0.7, 12.0):
        got = _log_gamma_right_array(x, ts)
        assert list(map(repr, got.tolist())) == \
            [repr(_log_gamma_right(complex(x, t))) for t in ts.tolist()]
    assert beta_reg(ts, 0.1).tolist() == [beta_reg(t, 0.1) for t in ts.tolist()]


def _shift_count(x: float) -> int:
    """The `z += 1.0` steps the scalar recurrence takes from Re z = x."""
    n = 0
    while x < 10.0:
        x += 1.0
        n += 1
    return n


def test_log_gamma_array_at_one_x_per_node_matches_scalar_bit_for_bit():
    # x over 1e-5..12 takes every shift count from 10 down to 0 (x >= 10
    # takes none) in one call; t = 0 and |t| > 1e305 take the scalar route
    # in place, and a non-finite t raises as it does.
    rng = np.random.default_rng(43)
    n = 30_000
    xs = 10.0 ** rng.uniform(-5.0, math.log10(12.0), n)
    ts = rng.uniform(-130.0, 130.0, n)
    ts[rng.choice(n, 6, replace=False)] = [0.0, -0.0, 3e-15, 2e305, -1e306, 1.7e308]
    assert {_shift_count(x) for x in xs.tolist()} == set(range(11))
    got = _log_gamma_right_array(xs, ts)
    want = np.array([_log_gamma_right(complex(x, t)) for x, t in zip(xs.tolist(), ts.tolist())])
    bad = np.flatnonzero((got.real != want.real) | (got.imag != want.imag))
    assert bad.size == 0, [(xs[i], ts[i], got[i], want[i]) for i in bad[:5]]
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="not finite"):
            _log_gamma_right_array(xs[:3], [0.5, t, 1.0])


def _kernel_nodes() -> np.ndarray:
    """The array kernels' nodes in the dispatch-level children (conftest.py)."""
    rng = np.random.default_rng(41)
    return np.concatenate([rng.uniform(-2.0, 2.0, 1000), rng.uniform(-130.0, 130.0, 1000)])


def kernel_payload(data: bytes) -> bytes:
    """The array kernels' bytes at the nodes ts in data: log-gamma at four x and
    at one x per node over 1e-5..12, then beta_reg and family_closed_form at
    eps = 1e-3 and at one eps per node, the default ladder's in turn."""
    import numpy as np
    from weaklim.complexfn import _log_gamma_right_array
    from weaklim.distrib import EpsilonLadder, beta_reg
    from weaklim.hyper import family_closed_form
    ts = np.frombuffer(data)
    xs = 1e-5 + 12.0 / ts.size * np.arange(ts.size)  # the same bits at every level
    eps = np.resize(EpsilonLadder.default().values, ts.size)
    return b"".join(v.tobytes() for v in (
        *(_log_gamma_right_array(x, ts) for x in (1e-5, 0.3, 1.5, 7.0)),
        _log_gamma_right_array(xs, ts), beta_reg(ts, 1e-3), family_closed_form(ts, 1e-3),
        beta_reg(ts, eps), family_closed_form(ts, eps)))


def test_array_kernels_give_the_same_bytes_at_every_dispatch_level(dispatch_children):
    # Each numpy SIMD level this host can emulate, from all dispatch targets
    # off to only the highest one off, must give the bytes of this process.
    want = kernel_payload(_kernel_nodes().tobytes())
    for config, child in dispatch_children.items():
        assert child.returncode == 0, (config, child.stderr)
        assert child.kernels == want, f"bytes differ with {config} disabled"


# ---------------------------------------------------- CPython-exact array kit

def _kit_operands():
    """Seeded parts (ar, ai, br, bi) on which the kit must round as CPython.

    1e5 pairs over +-10 decades in each part (both of Smith's branches), then
    ties |Re b| = |Im b| of either sign, signed zeros, and Re b ~ 10 with
    Im b = +-1e305, where the first branch's bi * ratio would overflow.
    """
    rng = np.random.default_rng(15)
    n = 100_000
    ar, ai, br, bi = rng.choice((-1.0, 1.0), (4, n)) * 10.0 ** rng.uniform(-10.0, 10.0, (4, n))
    tie = rng.choice((-1.0, 1.0), (2, 1000)) * 10.0 ** rng.uniform(-10.0, 10.0, 1000)
    zeros = np.array([p for p in product((0.0, -0.0, 1.5, -2.5), repeat=4) if any(p[2:])]).T
    huge = (rng.choice((-1.0, 1.0), (2, 1000)) * 10.0 ** rng.uniform(-10.0, 1.0, (2, 1000)),
            10.0 + rng.uniform(-1.0, 1.0, 1000), rng.choice((-1e305, 1e305), 1000))
    return tuple(np.concatenate(parts) for parts in zip(
        (ar, ai, br, bi), (ar[:1000], ai[:1000], *tie), zeros, (*huge[0], *huge[1:])))


def test_kit_rounds_as_cpython():
    # complexfn._cmul and _cdiv against Python's complex * and /, bit for bit
    # up to the sign of zero (== equates the two zeros), with no warning.
    ar, ai, br, bi = _kit_operands()
    a = [complex(x, y) for x, y in zip(ar.tolist(), ai.tolist())]
    b = [complex(x, y) for x, y in zip(br.tolist(), bi.tolist())]
    assert len(a) > 100_000 and 0 < np.count_nonzero(np.abs(bi) > np.abs(br)) < len(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = complexfn._cmul(ar, ai, br, bi), complexfn._cdiv(ar, ai, br, bi)
    for (re, im), want, op in zip(got, ([x * y for x, y in zip(a, b)],
                                        [x / y for x, y in zip(a, b)]), "*/"):
        want = np.array(want)
        bad = np.flatnonzero((re != want.real) | (im != want.imag))
        assert bad.size == 0, [(op, a[i], b[i], complex(re[i], im[i]), want[i]) for i in bad[:3]]


def _rx_operands() -> np.ndarray:
    """Seeded reals: 20,000 over [-40, 40], and 20,000 of either sign over 1e-10..1e2."""
    rng = np.random.default_rng(16)
    return np.concatenate([rng.uniform(-40.0, 40.0, 20_000), rng.choice((-1.0, 1.0), 20_000)
                           * 10.0 ** rng.uniform(-10.0, 2.0, 20_000)])


def test_rx_rounds_as_libm():
    # complexfn._rx takes a real through numpy's complex loop, which calls
    # libm: exp and expm1 as math.exp and math.expm1, bit for bit, where the
    # real-dtype loops are SIMD code whose last bits move with the level.
    xs = _rx_operands()
    for f, ref in ((np.exp, math.exp), (np.expm1, math.expm1)):
        got, want = complexfn._rx(f, xs), np.array([ref(x) for x in xs.tolist()])
        bad = np.flatnonzero(got != want)
        assert bad.size == 0, [(f.__name__, xs[i], got[i], want[i]) for i in bad[:3]]


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


_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize("call", [
    lambda: log_gamma(_NAN),
    lambda: gamma(_NAN),
    lambda: digamma(_NAN),
    lambda: trigamma(_NAN),
    lambda: log_gamma(_INF),
    lambda: log_gamma(complex(1.0, _INF)),
    lambda: digamma(complex(_NAN, 1.0)),
    lambda: f_factor(_NAN, 0.5),
    lambda: q_nu(_NAN, 2.0),
    lambda: beta_reg(_NAN, 0.1),
    lambda: family_closed_form(_NAN, 0.1),
    lambda: beta_reg(np.array([0.1, _NAN]), 0.1),
    lambda: beta_reg(np.array([0.1, _INF]), 0.1),
    lambda: family_closed_form(np.array([0.1, _NAN]), 0.1),
    lambda: family_closed_form(np.array([0.1, _INF]), 0.1),
], ids=["log_gamma-nan", "gamma-nan", "digamma-nan", "trigamma-nan",
        "log_gamma-inf", "log_gamma-inf-imag", "digamma-nan-real",
        "f_factor-nan", "q_nu-nan", "beta_reg-nan", "family_closed_form-nan",
        "beta_reg-array-nan", "beta_reg-array-inf",
        "family_closed_form-array-nan", "family_closed_form-array-inf"])
def test_non_finite_argument_is_a_domain_error(call):
    # round(nan) raised a bare ValueError, and inf or NaN arguments off the
    # pole test returned NaN.
    with pytest.raises(DomainError, match="not finite") as exc:
        call()
    assert exc.value.condition == "finite argument"


def test_kernel_arrays_hit_the_pole_as_the_scalar_route():
    # eps + i tau within 1e-14 of 0 is log_gamma's pole at 0, array or not.
    for kernel, tau in ((beta_reg, 0.0), (family_closed_form, 5e-324)):
        with pytest.raises(PoleError, match="hits the pole at 0"):
            kernel(tau, 1e-14)
        with pytest.raises(PoleError, match="hits the pole at 0"):
            kernel(np.array([0.5, tau]), 1e-14)


def test_pole_tolerance_window():
    with pytest.raises(PoleError):
        gamma(-2.0 + 1e-15j)
    # Just outside the window the value is huge but finite.
    v = gamma(-2.0 + 1e-10j)
    assert abs(v) > 1e8


def test_gamma_overflow_rejected():
    with pytest.raises(DomainError):
        gamma(180.0)


def test_expm1c_matches_mpmath_at_small_argument():
    # The reflection's e^(2 pi i (z - n)) - 1 near a pole: |w| from 1e-15 to
    # 0.5 in every direction, and on both sides of the switch at |w| = 0.5.
    rng = np.random.default_rng(31)
    ws = 10.0 ** rng.uniform(-15.0, math.log10(0.5), 400) \
        * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, 400))
    for w in ws.tolist() + [0.5, -0.5j, 0.5 + 1e-3j]:
        want = complex(mpmath.expm1(mpmath.mpc(w)))
        assert abs(complexfn._expm1c(w) - want) <= 2e-15 * abs(want), w


def test_series_coefficients_are_the_bernoulli_ratios():
    # Each is one int / int from B_2n = p / q, so bit for bit these values.
    assert complexfn._LG_COEFF == (
        1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
        -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0,
        43867.0 / 244188.0, -174611.0 / 125400.0,
    )
    assert complexfn._DG_COEFF == (
        1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0,
        1.0 / 132.0, -691.0 / 32760.0, 1.0 / 12.0, -3617.0 / 8160.0,
    )
    assert complexfn._TG_COEFF == (
        1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0,
        5.0 / 66.0, -691.0 / 2730.0, 7.0 / 6.0, -3617.0 / 510.0,
    )


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
