"""Delta approximants, regularized Beta, and the Mellin pair."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from weaklim import claims, distrib, hyper, legendre, quad
from weaklim.complexfn import DomainError
from weaklim.distrib import (
    PROBES,
    EpsilonLadder,
    _fit_sweep,
    beta,
    beta_reg,
    beta_semi_infinite,
    delta_claim_sweep,
    delta_target,
    mellin_forward_sweep,
    mellin_inverse_check,
    mellin_inverse_sweep,
    mellin_reg_forward,
    _binomial_tail,
    _mellin_forward_grid,
    omega_eps,
)
from weaklim.quad import (
    ConvergenceError,
    QuadratureSpec,
    integrate_pairing,
    integrate_semi_infinite,
)

TWO_PI = 2.0 * math.pi


# ------------------------------------------------------------------- kernel

def test_omega_peak_value():
    assert abs(omega_eps(0.0, 0.01) - 100.0 / math.pi) <= 1e-10


def test_omega_unit_scale():
    assert abs(omega_eps(1.0, 1.0) - 1.0 / TWO_PI) <= 1e-15


def test_omega_rejects_nonpositive_eps():
    with pytest.raises(DomainError):
        omega_eps(0.0, 0.0)


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_omega_rejects_non_finite_eps(eps):
    with pytest.raises(DomainError) as exc:
        omega_eps(0.0, eps)
    assert exc.value.condition == "0 < eps < inf"


def test_omega_rejects_nan_x():
    for x in (math.nan, np.array([0.0, math.nan, 1.0])):
        with pytest.raises(DomainError) as exc:
            omega_eps(x, 0.1)
        assert exc.value.condition == "x not NaN"


def test_omega_infinite_x_is_its_limit():
    assert omega_eps(math.inf, 0.1) == 0.0
    assert omega_eps(-math.inf, 0.1) == 0.0
    got = omega_eps(np.array([-math.inf, 0.0, math.inf]), 0.1)
    assert got[0] == got[2] == 0.0 and got[1] == omega_eps(0.0, 0.1)


def test_omega_where_its_denominator_underflows():
    # eps^2 + x^2 underflows to 0 at x = eps = 1e-300, where the kernel is
    # 1 / (2 pi eps), about 1.6e299 (it returned inf, with a RuntimeWarning);
    # a node whose denominator does not underflow keeps its bits.
    got = omega_eps(np.array([1e-300, 1.0]), 1e-300)
    want = float(1 / (2 * mpmath.pi * mpmath.mpf(1e-300)))
    assert abs(got[0] - want) <= 1e-15 * want
    assert omega_eps(1e-300, 1e-300) == got[0]
    assert got[1] == (1e-300 / math.pi) / 1.0


def test_omega_past_double_range_is_a_domain_error():
    # At x = 0 the kernel is 1 / (pi eps): 3.18e307 at eps = 1e-308, past
    # double range at eps = 5e-324 (it returned inf, with a RuntimeWarning).
    assert omega_eps(0.0, 1e-308) == (1.0 / math.pi) / 1e-308
    for x in (0.0, np.array([1.0, 0.0])):
        with pytest.raises(DomainError) as exc:
            omega_eps(x, 5e-324)
        assert exc.value.condition == "omega_eps within double range"


# Edge inputs that leaked a RuntimeWarning before a value or a named error:
# (function, arguments, the DomainError condition, or the mpmath value and
# the absolute error allowed on it).
_WARNING_LEAKS = {
    # s = a + b rounds 1 - s to 1: the binomial tail's first ratio was 0.
    "mellin-forward-tiny-eps": (distrib.mellin_reg_forward, (0.5, 1e-17),
                                (5.46055560264686219943682658906e-17, 1e-9)),
    "beta-semi-infinite-tiny": (distrib.beta_semi_infinite, (1e-17, 1e-17),
                                (2e17, 1e-10 * 2e17)),
    # eps^2 underflows to 0, and the kernel divided by 0 at x = 0.
    "mellin-inverse-tiny-eps": (distrib.mellin_inverse_check, (2.0, 1e-300), "eps^2 > 0"),
    # eps^2 + x^2 overflows where the kernel is 0 (2.2e-598), 3.18e-251 or 3.18e-301.
    "omega-far-x": (omega_eps, (1e300, 700.0), (0.0, 0.0)),
    "omega-far-x-wide-eps": (omega_eps, (1e200, 1e150), (3.1830988618379066e-251, 1e-266)),
    "omega-huge-eps": (omega_eps, (0.0, 1e300), (3.183098861837907e-301, 1e-316)),
    # z + w cosh t overflows on the window (they returned 0j).
    "q-nu-far": (legendre.q_nu, (1e300, 1e300), "Q_nu^mu kernel within double range"),
    "q-nu-mu-far": (legendre.q_nu_mu, (1e300, 0.5, 1e300), "Q_nu^mu kernel within double range"),
    "q-nu-itau-far": (legendre.q_nu_itau_direct, (1e300, 1.0, 1e300),
                      "Q_nu^mu kernel within double range"),
}


@pytest.mark.parametrize("fn, args, want", _WARNING_LEAKS.values(), ids=_WARNING_LEAKS)
def test_edge_inputs_keep_the_contract_without_a_warning(fn, args, want):
    # The suite turns a RuntimeWarning into an error, so a leak fails here.
    if isinstance(want, str):
        with pytest.raises(DomainError) as exc:
            fn(*args)
        assert exc.value.condition == want
    else:
        value, allowed = want
        assert abs(fn(*args) - value) <= allowed


def test_omega_normalization_by_quadrature():
    eps = 0.1
    X = 1e8
    spec = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10, max_subdivisions=4000)
    res = integrate_pairing(lambda x: np.ones_like(x),
                            lambda x: omega_eps(x, eps),
                            -X, X, spec, origin_scale=eps / 4.0)
    tail = 2.0 * math.atan2(eps, X) / math.pi
    assert abs(res.value + tail - 1.0) <= 1e-8


def test_omega_scaling_law():
    xs = np.linspace(-3.0, 3.0, 41)
    for eps in (0.5, 0.03, 1e-4):
        lhs = omega_eps(xs, eps)
        rhs = omega_eps(xs / eps, 1.0) / eps
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))


# ------------------------------------------------------------------- probes

def test_probe_catalog_values_at_zero():
    assert PROBES["gaussian"].value_at_zero == 1.0
    assert PROBES["cauchy"].value_at_zero == 1.0
    assert abs(PROBES["bump"].value_at_zero - math.exp(-1.0)) <= 1e-15
    assert PROBES["const"].value_at_zero == 1.0
    for p in PROBES.values():
        assert abs(p(0.0) - p.value_at_zero) <= 1e-12


_PROBE_GRID = np.linspace(-8.0, 8.0, 160001)  # step 1e-4


def test_probe_continuity_spot_check():
    for p in PROBES.values():
        assert np.max(np.abs(np.diff(p(_PROBE_GRID)))) <= 1.0


def test_probe_boundedness():
    for p in PROBES.values():
        assert np.max(np.abs(p(_PROBE_GRID))) <= 1.0 + 1e-12


# ------------------------------------------------------------------- ladder

def test_default_ladder_shape():
    lad = EpsilonLadder.default()
    assert len(lad.values) == 9
    assert abs(lad.values[0] - 0.1) <= 1e-15
    assert abs(lad.values[-1] - 1e-5) <= 1e-18
    for a, b in zip(lad.values[:-1], lad.values[1:]):
        assert abs(b / a - 10.0 ** -0.5) <= 1e-12


def test_ladder_validation():
    with pytest.raises(DomainError, match="ladder strictly decreasing"):
        EpsilonLadder((0.1, 0.2))
    with pytest.raises(DomainError, match="ladder values positive"):
        EpsilonLadder((0.1, -0.2))
    with pytest.raises(DomainError, match="ladder values positive"):
        EpsilonLadder((math.nan, 1e-2))
    # An infinite value used to pass and surface as a non-finite quadrature.
    with pytest.raises(DomainError, match="ladder values finite"):
        EpsilonLadder((math.inf, 1e-2, 1e-3))


def test_fit_sweep_recovers_synthetic_power_law():
    eps = [10.0 ** (-1.0 - 0.5 * k) for k in range(9)]
    L, C, q = TWO_PI, 3.0, 1.5
    vals = [L + C * e ** q for e in eps]
    errs = [1e-14] * len(eps)
    limit, order = _fit_sweep(eps, vals, errs)
    assert abs(limit - L) <= 1e-9
    assert abs(order - q) <= 1e-3


# -------------------------------------------------------------- beta family

def test_beta_trivial_values():
    assert abs(beta(2.0, 3.0) - 1.0 / 12.0) <= 1e-13
    assert abs(beta(0.5, 0.5) - math.pi) <= 1e-12


def test_beta_semi_infinite_examples():
    assert abs(beta_semi_infinite(1.0, 1.0) - 1.0) <= 1e-11
    assert abs(beta_semi_infinite(2.0, 3.0) - 1.0 / 12.0) <= 1e-11
    a = 0.5 + 0.5j
    b = 0.5 - 0.5j
    want = beta(a, b)
    assert abs(beta_semi_infinite(a, b) - want) <= 1e-9 * abs(want)


def test_beta_semi_infinite_is_cosh_reciprocal():
    # The half-line integrand u^(a-1)/(1+u) with a = 1/2 + i/2 has the
    # reflection-formula value |Gamma(1/2 + i/2)|^2 = pi / cosh(pi/2).
    got = beta_semi_infinite(0.5 + 0.5j, 0.5 - 0.5j)
    oracle = math.pi / math.cosh(math.pi / 2.0)
    assert abs(got - oracle) <= 1e-10


def test_beta_semi_infinite_fast_oscillation_slow_decay(monkeypatch):
    # The a-half decays at rate 0.03 and oscillates at frequency 3.5.  Most of
    # it lies in the binomial tail beyond T = ln(4 |a + b|), so the window
    # stays short: 4 panels.
    a, b = 0.03 - 3.5j, 0.5 - 0.2j
    nodes = []

    def counted(*args, **kwargs):
        res = integrate_semi_infinite(*args, **kwargs)
        nodes.append(res.evaluations)
        return res

    monkeypatch.setattr(distrib, "integrate_semi_infinite", counted)
    want = beta(a, b)
    assert abs(beta_semi_infinite(a, b) - want) <= 2e-10 * abs(want)
    assert nodes == [124]


# (a, b) at the edges of the half-line route: decay Re a or Re b down to
# 0.02, fast oscillation, and halves that cancel to a tiny Beta value.
_BETA_EDGES = [
    (0.02, 0.02), (0.02 + 4.0j, 0.02 - 4.0j), (0.02 - 3.0j, 1.5), (5.0, 0.02 + 1.0j),
    (0.03 - 3.5j, 0.5 - 0.2j), (4.0 + 4.0j, 5.0 - 4.0j), (0.5 + 0.5j, 0.5 - 0.5j),
    (10.0, 10.0), (0.02, 5.0), (3.0 - 4.0j, 0.05 + 4.0j), (50.0, 50.0),
]


@pytest.mark.parametrize("a, b", _BETA_EDGES)
def test_beta_semi_infinite_matches_mpmath_at_the_edges(a, b):
    # The bench contract: two integrals, each 1e-10 relative or 1e-12 absolute.
    got = beta_semi_infinite(a, b)
    assert cmath.isfinite(got)
    want = complex(mpmath.beta(a, b))
    assert abs(got - want) <= 2.0 * max(1e-12, 1e-10 * abs(want))


def test_beta_semi_infinite_rejects_bad_domain():
    with pytest.raises(DomainError):
        beta_semi_infinite(-0.5, 1.0)


@pytest.mark.parametrize("a, b", [(math.inf, 0.5), (1e300, math.inf)])
def test_beta_semi_infinite_rejects_non_finite_arguments(a, b):
    # Each raised numpy's ValueError "cannot convert float NaN to integer".
    with pytest.raises(DomainError) as exc:
        beta_semi_infinite(a, b)
    assert exc.value.condition == "finite alpha and beta"


def test_beta_reg_values():
    assert abs(beta_reg(0.0, 1.0) - 1.0) <= 1e-13
    oracle = math.pi / math.cosh(math.pi)  # |Gamma(1/2 + i)|^2
    assert abs(beta_reg(1.0, 0.5) - oracle) <= 1e-12 * oracle


def test_beta_reg_conjugate_symmetry():
    for tau in (0.3, 1.7, 4.2):
        for eps in (1e-3, 0.05, 0.4):
            assert abs(beta_reg(-tau, eps) - beta_reg(tau, eps).conjugate()) \
                <= 1e-13 * abs(beta_reg(tau, eps))


def test_beta_reg_array_matches_scalar():
    rng = np.random.default_rng(3)
    taus = np.concatenate([[0.0, -0.0], rng.uniform(-50.0, 50.0, 200)])
    for eps in (1e-5, 0.01, 0.3, 0.5, 7.0):
        arr = beta_reg(taus, eps)
        assert arr.shape == taus.shape
        for t, v in zip(taus, arr):
            got = beta_reg(float(t), eps)
            assert type(got) is complex
            assert got.real == v.real and got.imag == v.imag
        grid = beta_reg(taus.reshape(2, -1), eps)
        assert grid.shape == (2, taus.size // 2)
        assert np.array_equal(grid.ravel(), arr)


def test_beta_reg_is_real_and_equals_euler_beta():
    # |Gamma(eps + i tau)|^2 / Gamma(2 eps): exactly real, and its real part
    # is Euler's Beta at the conjugate pair bit for bit.  The three-log-gamma
    # route leaves up to 4.4e-16 relative of spurious imaginary part.
    for eps in EpsilonLadder.default().values + (0.3, 0.5, 2.0):
        assert beta_reg(0.0, eps).imag == 0.0
        for tau in np.linspace(-3.0, 3.0, 13):
            got = beta_reg(float(tau), eps)
            euler = beta(complex(eps, tau), complex(eps, -tau))
            assert got.imag == 0.0
            assert got.real == euler.real
            assert abs(euler.imag) <= 4.5e-16 * abs(euler)


def test_beta_reg_log_gamma_count(monkeypatch):
    # An array tau: one array log-gamma over the distinct |tau|, at eps on
    # every node, and one scalar log-gamma for Gamma(2 eps).
    calls, arrays = [], []
    inner, inner_array = distrib.log_gamma, distrib._log_gamma_right_array
    monkeypatch.setattr(distrib, "log_gamma",
                        lambda z: calls.append(z) or inner(z))
    monkeypatch.setattr(distrib, "_log_gamma_right_array",
                        lambda x, y: arrays.append((x, y)) or inner_array(x, y))
    for n in (1, 7, 31):
        ts = np.linspace(0.0, 1.0, n)
        for tau in (ts, np.concatenate([-ts[::-1], ts, ts])):
            calls.clear()
            arrays.clear()
            beta_reg(tau, 0.01)
            assert calls == [complex(0.02)]
            assert len(arrays) == 1 and np.array_equal(arrays[0][0], np.full(n, 0.01))
            assert np.array_equal(arrays[0][1], ts)
    calls.clear()
    arrays.clear()
    beta_reg(np.array([-1.0, -0.0, 0.0, 1.0]), 0.01)
    assert calls == [complex(0.02)]
    assert len(arrays) == 1 and np.array_equal(arrays[0][1], [0.0, 1.0])
    calls.clear()
    arrays.clear()
    beta_reg(-0.5, 0.01)  # a scalar evaluates at tau itself
    assert calls == [complex(0.02), complex(0.01, -0.5)]
    assert arrays == []


@pytest.mark.parametrize("claim_id, module, kernel, calls, nodes, arrays", [
    ("E12-beta-delta", distrib, "beta_reg", 1, 3410, 1),
    ("E31-weak-limit-2f1", hyper, "family_closed_form", 1, 2356, 2),
])
def test_pairing_claims_take_one_kernel_call_per_ladder(monkeypatch, claim_id, module,
                                                        kernel, calls, nodes, arrays):
    # No rung the claim reads bisects, and all of its ladders are one batch,
    # so the claim is one kernel call over every rung's initial panels, with
    # each node's eps: one array log-gamma for beta_reg, two for the family.
    sizes, logs = [], []
    inner, inner_array = getattr(module, kernel), module._log_gamma_right_array
    monkeypatch.setattr(module, kernel,
                        lambda ts, eps: sizes.append(np.size(ts)) or inner(ts, eps))
    monkeypatch.setattr(module, "_log_gamma_right_array",
                        lambda x, y: logs.append(np.ndim(x)) or inner_array(x, y))
    claims.run_claim(claim_id)
    assert (len(sizes), sum(sizes), len(logs)) == (calls, nodes, arrays)
    assert all(logs)


# The pairing kernels, each as a function of (tau, eps).
_KERNELS = {
    "beta_reg": beta_reg,
    "family": hyper.family_closed_form,
    "mellin-grid": lambda ts, eps: _mellin_forward_grid(ts, eps, 3.0),
}


@pytest.mark.parametrize("kernel", list(_KERNELS))
def test_kernels_take_a_float_eps_as_that_eps_at_every_node(kernel):
    # _even_in_tau spreads a float eps over the nodes, so a float eps and the
    # same eps repeated per node give the same bits, signs of zero included.
    # Past |tau| = 1e305 the log-gammas take their scalar edge route.
    taus = [np.array([]), np.zeros(4), np.array([0.0, -0.0, 0.5, -0.5, 0.5, 2.0, 2.0]),
            np.array([[0.3, -1.0, -0.0], [0.0, 0.3, 4.0]]), np.array([2e305, -1e306, 0.7, -0.7])]
    for tau in taus:
        for eps in (1e-5, 1e-2, 0.3):
            got = _KERNELS[kernel](tau, eps)
            want = _KERNELS[kernel](tau, np.full(tau.shape, eps))
            assert got.shape == want.shape == tau.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (tau, eps)


@pytest.mark.parametrize("kernel", list(_KERNELS))
def test_kernels_at_one_eps_per_node_match_each_eps_alone(kernel):
    # Nodes of several eps in one call, as a pairing ladder's seed makes
    # them: each node's value is its eps's alone, bit for bit.
    rng = np.random.default_rng(29)
    taus = np.concatenate([[0.0, -0.0, 1.0, -1.0], rng.uniform(-3.0, 3.0, 60)])
    eps = rng.choice([1e-1, 1e-3, 1e-5], taus.size)
    got = _KERNELS[kernel](taus, eps)
    for e in np.unique(eps).tolist():
        at = eps == e
        assert got[at].tobytes() == _KERNELS[kernel](taus[at], e).tobytes(), e


@pytest.mark.parametrize("kernel", list(_KERNELS))
def test_kernels_name_an_eps_that_does_not_fit_tau(kernel):
    for tau, eps in ((np.ones(3), np.array([0.1, 0.2])),
                     (np.ones((2, 3)), np.full((3, 2), 0.1)),
                     (np.ones(2), np.full((2, 1), 0.1))):
        with pytest.raises(DomainError) as info:
            _KERNELS[kernel](tau, eps)
        assert info.value.condition == "eps a float or one per tau"


def test_beta_reg_is_even_bit_for_bit():
    rng = np.random.default_rng(13)
    taus = rng.uniform(0.0, 50.0, 500)
    for eps in (1e-5, 1e-2, 0.3, 7.0):
        for t in taus.tolist():
            plus, minus = beta_reg(t, eps), beta_reg(-t, eps)
            assert minus.real == plus.real and minus.imag == plus.imag, (t, eps)


def test_beta_reg_vs_quadrature_grid():
    # Euler-formula route against the direct quadrature of the regularized
    # Beta integral (log-split form), moderate eps.
    for eps in (1e-3, 1e-2, 0.1):
        for tau in (0.0, 0.5, 2.0, 5.0):
            closed = beta_reg(tau, eps)
            quad = mellin_reg_forward(tau, eps)
            assert abs(quad - closed) <= 1e-7 * max(1.0, abs(closed))
    # Spot point at full tightness.
    assert abs(mellin_reg_forward(0.5, 0.01) - beta_reg(0.5, 0.01)) <= 1e-8


# ----------------------------------------------------------- delta pairings

@pytest.fixture(scope="module")
def gaussian_interior_sweep():
    return delta_claim_sweep(PROBES["gaussian"], (-1.0, 1.0))


def test_delta_sweep_interior(gaussian_interior_sweep):
    sweep = gaussian_interior_sweep
    assert abs(sweep.extrapolated_limit - TWO_PI) <= 0.01 * TWO_PI
    assert sweep.fitted_order > 0.0


def test_delta_sweep_endpoint():
    sweep = delta_claim_sweep(PROBES["gaussian"], (0.0, 1.0))
    assert abs(sweep.extrapolated_limit - math.pi) <= 0.01 * math.pi


def test_delta_sweep_origin_excluded():
    sweep = delta_claim_sweep(PROBES["gaussian"], (1.0, 2.0))
    assert abs(sweep.extrapolated_limit) <= 0.01


def test_delta_targets():
    g = PROBES["gaussian"]
    assert delta_target(g, -1.0, 1.0) == TWO_PI
    assert delta_target(g, 0.0, 1.0) == math.pi
    assert delta_target(g, 1.0, 2.0) == 0.0
    b = PROBES["bump"]
    assert abs(delta_target(b, -1.0, 1.0) - TWO_PI * math.exp(-1.0)) <= 1e-12


def test_delta_sweep_deviations_decrease_for_all_probes():
    for name, probe in PROBES.items():
        sweep = delta_claim_sweep(probe, (-1.0, 1.0))
        target = delta_target(probe, -1.0, 1.0)
        devs = [abs(v - target) for v in sweep.values]
        tail = devs[-3:]
        assert tail[0] > tail[1] > tail[2], f"{name}: {devs}"
        assert sweep.fitted_order > 0.0, name


# ------------------------------------------------------- regularized Mellin

def test_mellin_forward_matches_closed_form():
    for tau, eps in ((0.5, 0.05), (2.0, 0.1)):
        got = mellin_reg_forward(tau, eps)
        want = beta_reg(tau, eps)
        assert abs(got - want) <= 1e-7 * max(1.0, abs(want))


@pytest.fixture
def quad_calls(monkeypatch):
    """(name, result) of each quad entry distrib calls and of each adaptive
    pass, in the order they return."""
    calls = []

    def recorded(name, entry):
        def call(*args, **kw):
            calls.append((name, entry(*args, **kw)))
            return calls[-1][1]
        return call

    monkeypatch.setattr(quad, "_adaptive", recorded("_adaptive", quad._adaptive))
    for name in ("integrate_batch", "integrate_semi_infinite"):
        monkeypatch.setattr(distrib, name, recorded(name, getattr(distrib, name)))
    return calls


def test_mellin_forward_is_one_half_line_integral(quad_calls):
    mellin_reg_forward(0.5, 0.05)
    assert [name for name, _ in quad_calls] == ["_adaptive", "integrate_semi_infinite"]


def test_mellin_forward_domain():
    with pytest.raises(DomainError):
        mellin_reg_forward(0.5, 0.7)
    with pytest.raises(DomainError):
        mellin_reg_forward(0.5, 0.0)


def test_mellin_grid_matches_scalar():
    taus = np.array([0.0, 0.3, -0.9, 2.5])
    for eps in (0.2, 1e-2, 1e-4):
        grid = _mellin_forward_grid(taus, eps, 3.0)
        for t, g in zip(taus, grid):
            want = mellin_reg_forward(float(t), eps)
            assert abs(g - want) <= 1e-9 * max(1.0, abs(want))


def test_mellin_grid_is_even_bit_for_bit():
    taus = np.concatenate([[0.0], np.random.default_rng(19).uniform(0.0, 3.0, 60)])
    for eps in (1e-1, 1e-3, 1e-5):
        plus = _mellin_forward_grid(taus, eps, 3.0)
        assert np.array_equal(_mellin_forward_grid(-taus, eps, 3.0), plus)
        mixed = np.where(np.arange(taus.size) % 2 == 0, taus, -taus)
        assert np.array_equal(_mellin_forward_grid(mixed, eps, 3.0), plus)


def test_mellin_grid_value_does_not_depend_on_the_batch():
    # Up to |tau| = 1.5 the rule keeps its widest panels, so a tau's value
    # must be the same alone, in a 31-node panel or in a whole batch: the
    # matrix-vector product must not round a row by its position.
    taus = np.random.default_rng(23).uniform(-1.5, 1.5, 124)
    for eps in (1e-1, 1e-3, 1e-5):
        whole = _mellin_forward_grid(taus, eps, 1.5)
        alone = [_mellin_forward_grid(taus[i:i + 1], eps, 1.5)[0] for i in range(124)]
        panels = np.concatenate([_mellin_forward_grid(taus[i:i + 31], eps, 1.5)
                                 for i in range(0, 124, 31)])
        assert np.array_equal(whole, alone)
        assert np.array_equal(whole, panels)


def test_mellin_grid_cosine_blocks_are_bounded(monkeypatch):
    shapes = []
    cos = np.cos
    monkeypatch.setattr(np, "cos", lambda x: shapes.append(np.shape(x)) or cos(x))
    taus = np.linspace(0.01, 1.0, 620)
    grid = _mellin_forward_grid(np.concatenate([-taus, taus]), 0.01, 1.0)
    assert grid.shape == (1240,)
    # 620 distinct |tau| in blocks of at most 32 rows, one block at a time,
    # over 2 panels of 21 nodes on [0, ln 4].
    assert len(shapes) == 20
    assert all(rows <= distrib._MELLIN_ROWS == 32 and nodes == 42 for rows, nodes in shapes)


def test_mellin_sweep_value_does_not_depend_on_the_batch(monkeypatch):
    # On (-4, 3) the rule narrows below its widest panels.  The sweep takes
    # it from the window, not from the batch, so a tau's value is the same
    # alone and in a batch.
    kernels = []
    monkeypatch.setattr(distrib, "_pairing_ladder",
                        lambda kernel, *rest: kernels.append(kernel) or [None])
    mellin_forward_sweep(PROBES["gaussian"], (-4.0, 3.0))
    (kernel,) = kernels
    taus = np.random.default_rng(29).uniform(-4.0, 3.0, 62)
    for eps in (1e-1, 1e-3):
        whole = kernel(taus, eps)
        alone = [kernel(taus[i:i + 1], eps)[0] for i in range(taus.size)]
        assert np.array_equal(whole, alone)


def _half_tail(a: complex, s: complex, sign: float, u0: float) -> complex:
    """Reference: e^(-a u) (1 + sign e^-u)^(s-1) integrated beyond u0, term by term."""
    acc = 0j
    bk = 1.0 + 0j
    for k in range(40):
        term = bk * cmath.exp(-(a + k) * u0) / (a + k)
        acc += term
        if abs(term) <= 1e-18 * max(abs(acc), 1e-30):
            break
        bk = bk * (k + 1 - s) / (-sign * (k + 1))
    return acc


def test_mellin_grid_matches_mpmath_on_ladder():
    # E16's window and ladder: at the smallest eps the values fall to 5e-6
    # against O(1) nodes, so the rounding floor sets the relative error.
    taus = np.linspace(-1.0, 1.0, 41)
    with mpmath.workdps(30):
        for eps in EpsilonLadder.default().values:
            grid = _mellin_forward_grid(taus, eps, 1.0)
            want = np.array([float(mpmath.beta(mpmath.mpc(eps, t), mpmath.mpc(eps, -t)).real)
                             for t in taus.tolist()])
            assert np.all(np.abs(grid - want) <= 3e-10 * want), eps


# (a, b) with Re in [0.05, 4] and Im in [-4, 4], as the bench draws them.
_TAIL_PAIRS = np.random.default_rng(29).uniform([0.05, -4.0], [4.0, 4.0], (600, 2)) \
    .view(complex).reshape(-1, 2)


def _beta_tails(a: complex, b: complex) -> np.ndarray:
    """beta_semi_infinite's two tails."""
    return _binomial_tail(np.array([a, b]), 1.0 - (a + b),
                          math.log(4.0 * max(1.0, abs(a + b))))


def test_beta_tails_match_the_term_by_term_sum():
    for a, b in _TAIL_PAIRS.tolist():
        cut = math.log(4.0 * max(1.0, abs(a + b)))
        for x, got in zip((a, b), _beta_tails(a, b).tolist()):
            want = _half_tail(x, 1.0 - (a + b), 1.0, cut)
            assert abs(got - want) <= 1e-14 * abs(want), (a, b)


def tail_payload(data: bytes) -> bytes:
    """The bytes of _beta_tails at each (a, b) pair in data."""
    pairs = np.frombuffer(data, dtype=complex).reshape(-1, 2).tolist()
    return np.concatenate([_beta_tails(a, b) for a, b in pairs]).tobytes()


def test_binomial_tail_bytes_at_every_dispatch_level(dispatch_children):
    # The Beta tails of the 300 pairs in a child at each numpy SIMD level
    # below this process's (at the host's own level, if this process runs
    # with all of them off): the bytes of this process.
    want = tail_payload(_TAIL_PAIRS.tobytes())
    for config, child in dispatch_children.items():
        assert child.returncode == 0, (config, child.stderr)
        assert child.tails == want, f"bytes differ with {config} disabled"


def test_mellin_routes_match_beta_reg_on_ladder():
    # Both quadrature routes against the closed form over E16's grid.
    taus = np.linspace(-1.0, 1.0, 41)
    for eps in EpsilonLadder.default().values:
        closed = beta_reg(taus, eps).real
        grid = _mellin_forward_grid(taus, eps, 1.0)
        assert grid.dtype == float
        assert np.all(np.abs(grid - closed) <= 2e-9 * np.abs(closed)), eps
        for t, want in zip(taus, closed):
            got = mellin_reg_forward(float(t), eps)
            assert abs(got - want) <= max(1e-12, 1e-11 * abs(want)), (t, eps)


def test_mellin_forward_fast_oscillation():
    # The window adapts to a period finer than the initial partition can
    # afford.
    for tau, eps in ((100.0, 0.1), (300.0, 1e-5), (1000.0, 0.1)):
        want = beta_reg(tau, eps).real
        got = mellin_reg_forward(tau, eps)
        assert abs(got - want) <= max(1e-12, 1e-11 * abs(want)), (tau, eps)


def test_mellin_forward_past_the_subdivision_budget_raises():
    with pytest.raises(ConvergenceError):
        mellin_reg_forward(1e4, 0.1)


def test_mellin_forward_sweep_reaches_two_pi():
    sweep = mellin_forward_sweep(PROBES["gaussian"], (-1.0, 1.0))
    assert abs(sweep.extrapolated_limit - TWO_PI) <= 0.01 * TWO_PI


# --------------------------------------------------------- mollified inverse

def test_mellin_inverse_at_t_one():
    for eps in (0.5, 1e-2, 1e-4):
        assert abs(mellin_inverse_check(1.0, eps) - 1.0) <= 1e-9


@pytest.mark.parametrize("t", [math.inf, math.nan, 0.0, -1.0])
def test_mellin_inverse_rejects_t_outside_the_half_line(t):
    with pytest.raises(DomainError) as exc:
        mellin_inverse_check(t, 0.1)
    assert exc.value.condition == "0 < t < inf"


def test_mellin_inverse_characteristic_value():
    got = mellin_inverse_check(math.e, 0.1)
    assert abs(got - math.exp(-0.1)) <= 1e-8


def test_mellin_inverse_matches_closed_form_along_ladder():
    for eps in EpsilonLadder.default().values:
        got = mellin_inverse_check(math.e, eps)
        assert abs(got - math.exp(-eps)) <= 1e-8, eps


def test_mellin_inverse_sweep_limit_is_one():
    sweep = mellin_inverse_sweep(math.e)
    assert abs(sweep.extrapolated_limit - 1.0) <= 1e-4
    assert abs(mellin_inverse_check(math.e, 1e-4) - 1.0) <= 1e-4


@pytest.mark.parametrize("t", [1.0, math.e, 0.25])
def test_mellin_inverse_is_one_pairing(quad_calls, t):
    mellin_inverse_check(t, 1e-3)
    assert [name for name, _ in quad_calls] == ["_adaptive", "integrate_batch"]


def test_mellin_inverse_sweep_reports_its_own_estimates(quad_calls):
    # Twice the window's estimate plus the tail's: the 2.5e-10 budget of the
    # integrations by parts, or nothing for the exact arctan tail at t = 1.
    ladder = EpsilonLadder((1e-1, 1e-2, 1e-3))
    for t, budget in ((math.e, 2.5e-10), (1.0, 0.0)):
        quad_calls.clear()
        sweep = mellin_inverse_sweep(t, ladder)
        (windows,) = [out for name, out in quad_calls if name == "integrate_batch"]
        assert [err for _, _, err in sweep.points] \
            == [2.0 * (w.error_estimate + budget) for w in windows]
        for eps, value, err in sweep.points:
            assert abs(value - math.exp(-eps * abs(math.log(t)))) <= err, (t, eps)


def test_mellin_inverse_ladder_is_one_batch_of_the_pairings(monkeypatch):
    # The ladder and a second eps = 1e-4 (E17's check, on a ladder without
    # that rung) in one batch: each eps gets the value and estimate it gets
    # alone, and each window is the pairing integrate_pairing gives at that
    # eps plus the window's closed-form tail, bit for bit.
    batches = []
    batch = distrib.integrate_batch

    def recorded(g, windows, spec):
        batches.append((g, windows, spec, batch(g, windows, spec)))
        return batches[-1][3]

    monkeypatch.setattr(distrib, "integrate_batch", recorded)
    eps = (*EpsilonLadder.default().values, 1e-4)
    for t in (math.e, 1.0, 0.25):
        batches.clear()
        together = distrib._mellin_inverse(t, eps)
        assert together == [distrib._mellin_inverse(t, [e])[0] for e in eps]
        g, windows, spec, results = batches[0]
        for window, res in zip(windows, results):
            pairing = integrate_pairing(
                PROBES["const"], lambda x: g(x, window.key), window.a, window.b, spec,
                origin_scale=window.origin_scale, osc_freq=window.osc_freq)
            pairing.value += window.tail
            assert res == pairing, (t, window.key)


@pytest.mark.parametrize("t, eps, condition", [
    (2.0, 1e100, "finite closed-form tail"),
    (2.0, 1e200, "eps^2 + X^2 finite"),
    (2.0, math.inf, "eps^2 + X^2 finite"),
    (1.0, 1e200, "eps^2 + X^2 finite"),
    (1.0, math.inf, "eps^2 + X^2 finite"),
])
def test_mellin_inverse_rejects_an_eps_past_double_range(t, eps, condition):
    # eps = 1e100 overflowed in the tail by parts, 1e200 returned NaN (at
    # t = 1, the value of a window where omega_eps underflows to 0) and inf
    # failed in math.sin.
    with pytest.raises(DomainError) as exc:
        mellin_inverse_check(t, eps)
    assert exc.value.condition == condition


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
def test_mellin_forward_rejects_a_non_finite_tau(tau):
    # Before its ConvergenceError the quadrature leaked numpy RuntimeWarnings.
    with pytest.raises(DomainError) as exc:
        mellin_reg_forward(tau, 0.1)
    assert exc.value.condition == "finite tau"


def test_mellin_grid_takes_each_cosine_once_over_the_ladder(monkeypatch):
    # E16's ladder is one kernel call over 1,922 distinct (eps, |tau|) but
    # only 496 distinct |tau|: one cosine row each, in blocks of at most 32.
    rows = []
    cos = np.cos
    monkeypatch.setattr(np, "cos", lambda x: rows.append(np.shape(x)[0]) or cos(x))
    mellin_forward_sweep(PROBES["gaussian"], (-1.0, 1.0))
    assert sum(rows) == 496 and max(rows) <= distrib._MELLIN_ROWS == 32


def test_mellin_inverse_domain():
    with pytest.raises(DomainError):
        mellin_inverse_check(-1.0, 0.1)
    with pytest.raises(DomainError):
        mellin_inverse_check(2.0, 0.0)
