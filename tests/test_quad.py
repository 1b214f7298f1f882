"""Adaptive quadrature against antiderivatives and gamma closed forms."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from weaklim.complexfn import DomainError, gamma
from weaklim.distrib import (PROBES, _SWEEP_SPEC, EpsilonLadder, _binomial_tail,
                             _mellin_forward_grid, beta_reg)
from weaklim.hyper import family_closed_form
from weaklim.legendre import _gegenbauer_tail
from weaklim.quad import (
    _NODES,
    _WEIGHTS,
    DEFAULT_SPEC,
    ConvergenceError,
    EndpointExponents,
    IntegralResult,
    QuadratureSpec,
    _adaptive,
    _breakpoints,
    _end_weights,
    _panels,
    _seed,
    _window,
    integrate_finite,
    integrate_pairing,
    integrate_pairings,
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
    # Past Re p = 100 the end weights would overflow.
    with pytest.raises(DomainError, match=r"0 < Re\(right_p\) <= 100"):
        EndpointExponents(right_p=100.5)
    res = integrate_finite(lambda t: t ** 99, 0.0, 1.0, EndpointExponents(left_p=100.0))
    assert abs(res.value - 0.01) <= 1e-15


# ------------------------------------------------------------ semi-infinite

def _exp_tail(rate: complex, cut: float) -> complex:
    """Integral of exp(-rate t) over [cut, inf)."""
    return cmath.exp(-rate * cut) / rate


def test_exponential_decay():
    # The window [0, T] plus the exact tail, at T and at 2 T.
    for cut in (2.0, 4.0):
        res = integrate_semi_infinite(lambda t: np.exp(-t), cut, _exp_tail(1.0, cut))
        assert abs(res.value - 1.0) <= 1e-11


def test_legendre_kernel_closed_form():
    # integral of (2 + sqrt(3) cosh t)^(-2) over [0, inf) equals ln 3 - 1;
    # the tail beyond the cut is the Gegenbauer series of Q_1(2).
    w = math.sqrt(3.0)
    f = lambda t: (2.0 + w * np.cosh(t)) ** -2.0
    for cut in (2.0, 4.0):
        tail = _gegenbauer_tail(1.0 + 0j, 0j, 2.0 + 0j, complex(w), cut)
        res = integrate_semi_infinite(f, cut, tail)
        assert abs(res.value - (math.log(3.0) - 1.0)) <= 1e-10


def test_cut_rejected():
    for cut in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            integrate_semi_infinite(lambda t: np.exp(-t), cut, 0j)


def test_non_finite_tail_raises():
    with pytest.raises(ConvergenceError, match="tail is not finite"):
        integrate_semi_infinite(lambda t: np.exp(-t), 1.0, complex(math.nan, 0.0))


def test_truncation_soundness():
    # Window plus tail does not depend on where the window is cut.
    f = lambda t: np.exp(-1.5 * t) * np.cos(t)
    tail = lambda cut: _exp_tail(1.5 - 1j, cut).real
    base = integrate_semi_infinite(f, 3.0, tail(3.0))
    doubled = integrate_semi_infinite(f, 6.0, tail(6.0))
    assert abs(base.value - doubled.value) <= 1e-13
    assert abs(base.value - 1.5 / 3.25) <= 1e-13


def _q_itau(ts):  # Q_1^{i/2}(2) kernel: frequency 1/2
    return np.cos(0.5 * ts) * (2.0 + math.sqrt(3.0) * np.cosh(ts)) ** -2.0


def _q_itau_tail(cut):
    return _gegenbauer_tail(1.0 + 0j, 0.5j, 2.0 + 0j, complex(math.sqrt(3.0)), cut)


def _beta_half(vs):  # Beta half at p = 0.3 + 2i, a + b = 0.8 + 1.5i
    return np.exp(-(0.3 + 2j) * vs) * (1.0 + np.exp(-vs)) ** (-(0.8 + 1.5j))


def _beta_half_tail(cut):
    return complex(_binomial_tail(0.3 + 2j, 1.0 - (0.8 + 1.5j), 1.0, cut))


@pytest.mark.parametrize("f, tail, freq", [(_q_itau, _q_itau_tail, 0.5),
                                           (_beta_half, _beta_half_tail, 2.0)],
                         ids=["q-kernel", "beta-half"])
def test_semi_infinite_is_the_window_to_truncation(f, tail, freq):
    # The window [0, T] plus the tail, bit for bit; the window to 2 T plus
    # the tail there gives the same integral.
    res = integrate_semi_infinite(f, 2.0, tail(2.0), osc_freq=freq)
    win = _window(f, 0.0, 2.0, DEFAULT_SPEC, None, freq)
    assert (res.value, res.error_estimate, res.evaluations) \
        == (win.value + tail(2.0), win.error_estimate, win.evaluations)
    doubled = integrate_semi_infinite(f, 4.0, tail(4.0), osc_freq=freq)
    assert abs(res.value - doubled.value) <= 1e-12 * abs(res.value)


@pytest.mark.parametrize("shape", ["semi-infinite", "finite", "pairing"])
def test_absolute_floor_scales_with_integrand(shape):
    # A fixed 1e-12 floor would accept any value of these 1e-20-sized
    # integrals; the floor tied to the first-pass scale keeps them relative.
    wave = lambda t: 1e-20 * np.cos(40 * t)
    if shape == "semi-infinite":
        res = integrate_semi_infinite(lambda t: np.exp(-t) * wave(t), 1.0,
                                      1e-20 * _exp_tail(1.0 - 40j, 1.0).real)
        want = 1e-20 / 1601
    elif shape == "finite":
        res = integrate_finite(wave, 0.0, 3.0)
        want = 1e-20 * math.sin(120.0) / 40
    else:
        res = integrate_pairing(np.ones_like, wave, -3.0, 3.0)
        want = 2e-20 * math.sin(120.0) / 40
    assert abs(res.value - want) <= 1e-8 * abs(want)


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


def test_pairing_probe_is_a_plain_callable():
    probe = PROBES["gaussian"]
    kernel = lambda t: np.cos(3.0 * t) + 1j * omega(1e-2)(t)
    as_probe = integrate_pairing(probe, kernel, -1.0, 1.0, origin_scale=2.5e-3)
    as_fn = integrate_pairing(probe.fn, kernel, -1.0, 1.0, origin_scale=2.5e-3)
    assert as_probe == as_fn


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
    cases.append((integrate_semi_infinite(lambda t: np.exp(-t), 4.0,
                                          _exp_tail(1.0, 4.0), spec), 1.0))
    cases.append((integrate_semi_infinite(lambda t: np.exp(-2 * t) * np.cos(t), 4.0,
                                          _exp_tail(2.0 - 1j, 4.0).real, spec), 0.4))
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
        integrate_semi_infinite(lambda t: np.exp(-t) * nan_right(t), 1.0, _exp_tail(1.0, 1.0))


@pytest.mark.parametrize("scale", [-1e-3, 0.0, -math.inf, math.nan])
def test_origin_scale_must_be_positive(scale):
    # A negative scale used to hang the partition builder; 0 fell back to
    # the default.
    with pytest.raises(DomainError, match="origin_scale > 0"):
        integrate_pairing(np.ones_like, lambda t: np.exp(-t * t), -1.0, 1.0,
                          origin_scale=scale)


@pytest.mark.parametrize("side", ["left", "right"])
def test_singular_end_without_edge(side):
    # [1, 2] keeps the singular end away from 0, where end +- u rounds to
    # the end itself once the distance u drops below ~1e-16.
    def run(p, declared):
        if side == "left":
            return integrate_finite(lambda t: (t - 1.0) ** (p - 1.0), 1.0, 2.0,
                                    EndpointExponents(declared, 1.0))
        return integrate_finite(lambda t: (2.0 - t) ** (p - 1.0), 1.0, 2.0,
                                EndpointExponents(1.0, declared))

    # A declared exponent is integrated exactly: one panel at each end.
    for p in (0.8, 0.5):
        res = run(p, p)
        assert abs(res.value - 1.0 / p) <= 1e-12
        assert res.evaluations == 62
    # Declared smooth, the end is bisected until a distance rounds onto it.
    with pytest.raises(DomainError, match=f"pass {side}_edge") as exc:
        run(0.5, 1.0)
    assert exc.value.condition == f"{side}_edge"


def test_breakpoints_partition():
    assert _breakpoints(0.0, 1.0) == [0.0, 1.0]
    # Origin clustering at +-4 / 4^k down to 0.2, 0 itself, and an edge every
    # half period pi / |freq| from a.
    assert _breakpoints(-1.0, 3.0, 0.2, -math.pi) \
        == [-1.0, -0.25, 0.0, 0.25, 1.0, 2.0, 3.0]
    # No clustering when the origin is outside [a, b].
    assert _breakpoints(1.0, 2.0, 1e-3) == [1.0, 2.0]
    # Half periods count against max_edges; one too many drops them all.
    assert _breakpoints(0.0, 1.0, None, 4 * math.pi, 5) == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert _breakpoints(0.0, 1.0, None, 4 * math.pi, 4) == [0.0, 1.0]
    assert _breakpoints(0.0, 1.0, None, 1e4, DEFAULT_SPEC.max_subdivisions // 2) \
        == [0.0, 1.0]
    # A non-finite frequency has no half period to cut at.
    assert _breakpoints(0.0, 1.0, None, math.inf) == [0.0, 1.0]
    assert _breakpoints(0.0, 1.0, None, math.nan) == [0.0, 1.0]


def test_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureSpec(max_subdivisions=0)


# ------------------------------------------------------ batched evaluation

def _per_panel(f):
    """f called on one 31-node panel at a time, the unbatched evaluation."""
    def g(x):
        return np.concatenate([np.asarray(f(x[i:i + 31]), dtype=complex)
                               for i in range(0, x.size, 31)])
    return g


def test_adaptive_calls_the_integrand_once_per_batch():
    sizes = []

    def f(x):
        sizes.append(x.size)
        return PROBES["gaussian"](x) * beta_reg(x, 1e-3)

    spec = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-9)
    pts = _breakpoints(-1.0, 1.0, 0.1)  # coarse: the peak needs bisection
    res = _adaptive(_seed([(f, pts, _WEIGHTS)]), spec)
    # The initial partition in one call, then each split's two children.
    assert sizes[0] == 31 * (len(pts) - 1)
    assert len(sizes) > 1 and set(sizes[1:]) == {62}
    assert res.evaluations == sum(sizes)
    assert res == _adaptive(_seed([(_per_panel(f), pts, _WEIGHTS)]), spec)

    # Two pieces share one heap: one call per piece for its initial
    # partition, then calls of 62 nodes, each to its own panel's integrand.
    shifted_sizes = []

    def shifted(x):
        shifted_sizes.append(x.size)
        return PROBES["gaussian"](x - 3.0) * beta_reg(x - 3.0, 1e-3)

    sizes.clear()
    far = [p + 3.0 for p in pts]
    both = _adaptive(_seed([(f, pts, _WEIGHTS), (shifted, far, _WEIGHTS)]), spec)
    for calls in (sizes, shifted_sizes):
        assert calls[0] == 31 * (len(pts) - 1)
        assert len(calls) > 1 and set(calls[1:]) == {62}
    assert both.evaluations == sum(sizes) + sum(shifted_sizes)
    assert abs(both.value - 2.0 * res.value) <= 2e-9 * abs(res.value)
    assert both == _adaptive(_seed([(_per_panel(f), pts, _WEIGHTS),
                                    (_per_panel(shifted), far, _WEIGHTS)]), spec)


@pytest.mark.parametrize("run", [
    lambda w: integrate_pairing(w(PROBES["gaussian"]),
                                w(lambda t: beta_reg(t, 1e-4)), -1.0, 1.0,
                                origin_scale=2.5e-5),
    lambda w: integrate_pairing(w(PROBES["bump"]),
                                w(lambda t: family_closed_form(t, 1e-3)), -1.0, 1.0,
                                origin_scale=2.5e-4),
    lambda w: integrate_pairing(w(PROBES["cauchy"]),
                                w(lambda t: _mellin_forward_grid(t, 1e-3, 1.0)), -1.0, 1.0,
                                QuadratureSpec(abs_tol=1e-9, rel_tol=1e-8),
                                origin_scale=2.5e-4),
    lambda w: integrate_finite(w(lambda t: t ** (-0.5 + 2j) * np.cos(t)), 0.0, 1.0,
                               EndpointExponents(0.5 + 2j, 1.0)),
    lambda w: integrate_semi_infinite(w(lambda t: np.exp(-(0.5 + 7j) * t)), 4.0,
                                      _exp_tail(0.5 + 7j, 4.0), osc_freq=7.0),
], ids=["beta-pairing", "family-pairing", "mellin-pairing", "finite", "semi-infinite"])
def test_batched_panels_match_per_panel_evaluation(run):
    # Bit for bit: the same values, error estimates and evaluation counts.
    batched = run(lambda f: f)
    assert batched == run(_per_panel)


# The ladder kernels as their sweeps pair them: (kernel(ts, eps, interval), spec).
_LADDER_KERNELS = {
    "beta_reg": (lambda ts, eps, _: beta_reg(ts, eps), _SWEEP_SPEC),
    "family": (lambda ts, eps, _: family_closed_form(ts, eps), _SWEEP_SPEC),
    "mellin-grid": (lambda ts, eps, iv: _mellin_forward_grid(ts, eps, max(map(abs, iv))),
                    QuadratureSpec(abs_tol=1e-9, rel_tol=1e-8)),
}


@pytest.mark.parametrize("probe, interval", [("gaussian", (-1.0, 1.0)), ("bump", (-1.0, 1.0)),
                                             ("bump", (-3.0, 2.0))])
@pytest.mark.parametrize("kernel", list(_LADDER_KERNELS))
def test_ladder_rungs_are_the_pairings_at_each_eps(kernel, probe, interval):
    # Each rung's value, error estimate and evaluations are integrate_pairing's
    # at its eps, bit for bit: one kernel call with each node's eps seeds all
    # rungs, and on the bump probe the rungs then bisect, each with its own eps.
    kernel, spec = _LADDER_KERNELS[kernel]
    eps = EpsilonLadder.default().values
    calls = []

    def counted(ts, e):
        calls.append(np.ndim(e))
        return kernel(ts, e, interval)

    rungs = integrate_pairings(PROBES[probe], counted, *interval,
                               [(e, e / 4.0) for e in eps], spec)
    assert calls[0] == 1 and not any(calls[1:])
    assert (len(calls) > 1) == (probe == "bump")
    for e, got in zip(eps, rungs):
        want = integrate_pairing(PROBES[probe], lambda ts: kernel(ts, e, interval), *interval,
                                 spec, origin_scale=e / 4.0)
        assert got == want, e


# ------------------------------------------------------------ end panels

# The bench's Beta domain (Re p in [0.05, 4], Im p in [-3, 3]), and exponents
# whose ends oscillate like u^(i 38.6) and u^(-i 60.5), or barely integrate.
_END_EXPONENTS = [
    complex(0.05 * 80.0 ** x, y) for x, y in
    np.random.default_rng(17).uniform([0.0, -3.0], [1.0, 3.0], (30, 2))
] + [0.1 + 38.6165j, 0.3 - 60.47j, 0.05 + 0j]


@pytest.mark.parametrize("p", _END_EXPONENTS)
def test_end_rule_is_exact_on_powers(p):
    # On [0, 2], where the nodes are 1 + x: the 21-point end rule integrates
    # u^(p-1+k) for k <= 20, and the 10-point rule for k <= 9.
    w, u = _end_weights(p), 1.0 + _NODES
    for rule, n in ((slice(0, 21), 21), (slice(21, 31), 10)):
        for k in range(n):
            want = 2.0 ** (p + k) / (p + k)
            got = (w[rule] * u[rule] ** (p - 1.0 + k)).sum()
            assert abs(got - want) <= 1e-12 * abs(want), (n, k)


def test_end_weights_at_one_are_the_plain_weights():
    w = _end_weights(1.0)
    assert w.real.tobytes() == _WEIGHTS.tobytes()
    assert not w.imag.any()


def test_panel_rules_are_row_sums_of_cpython_products():
    # End panels and plain ones in one batch: each rule is numpy's row sum of
    # f times the weights, each product rounded as CPython's complex *, so no
    # SIMD level or BLAS kernel moves a bit.
    spans = [(0.0, 0.5 ** (i % 8), _end_weights(p)) for i, p in enumerate(_END_EXPONENTS)]
    spans += [(0.5, 1.0, _WEIGHTS), (0.25, 0.5, _WEIGHTS)]
    seen = []

    def f(x):
        seen.append(np.exp((0.7 - 9.0j) * x) / (1.1 - x))
        return seen[-1]

    got = list(_panels(f, spans))
    for (a, b, row), y, (value, err) in zip(spans, seen[0].reshape(-1, 31), got):
        products = [complex(v) * complex(w) for v, w in zip(y.tolist(), row.tolist())]
        hi, lo = (0.5 * (b - a) * s for s in np.add.reduceat(products, [0, 21]).tolist())
        assert (value, err) == (hi, abs(hi - lo))


# ----------------------------------------------------- log-oscillating ends

# Euler Beta integrals.  In the first seven the two ends cancel: each end is
# 0.2 to 0.5 and |B| is 4e-3 to 8e-3.  In the last, Re b = 0.088, so the
# right end is nearly 1/u, oscillating in log u.
_BETA_AGAINST_MPMATH = [
    (0.32473011397532947 + 2.565789169193911j, 0.47492707214170926 - 2.070751002171081j),
    (0.08597415634190059 - 1.6446562272801317j, 0.11010724229674765 + 2.0774429651883537j),
    (0.08664702609168268 - 1.595147657661527j, 0.11145277112472528 + 2.088621356816307j),
    (0.3272715878301977 + 2.615297738812516j, 0.4807307600138607 - 2.0595726105431282j),
    (0.331891388647302 + 2.5747095335405428j, 0.4800113587835917 - 2.0414780859734174j),
    (0.08787014480049557 - 1.6357358629335004j, 0.11128598491644995 + 2.106715881386018j),
    (1.0721455776068802 - 2.068273028666461j, 0.1603774241671968 + 2.5548159043976426j),
    (0.29204111739870975 - 1.9687342238321348j, 0.08782390684392576 - 2.4476531052560357j),
]


@pytest.mark.parametrize("al, be", _BETA_AGAINST_MPMATH)
def test_beta_integral_matches_mpmath(al, be):
    f = lambda t: t ** (al - 1.0) * (1.0 - t) ** (be - 1.0)
    left = lambda u: u ** (al - 1.0) * (1.0 - u) ** (be - 1.0)
    right = lambda u: (1.0 - u) ** (al - 1.0) * u ** (be - 1.0)
    res = integrate_finite(f, 0.0, 1.0, EndpointExponents(al, be),
                           left_edge=left, right_edge=right)
    with mpmath.workdps(30):
        want = complex(mpmath.beta(mpmath.mpc(al), mpmath.mpc(be)))
    bound = max(DEFAULT_SPEC.abs_tol, DEFAULT_SPEC.rel_tol * abs(want))
    assert abs(res.value - want) <= bound


@pytest.mark.parametrize("re_p", [1.0, 0.1])
@pytest.mark.parametrize("omega", [27.9, 38.6165, 60.47])
def test_log_oscillating_end_meets_the_contract(omega, re_p):
    # t^(p - 1) with Im p / min(Re p, 1) = omega: an end that oscillates in
    # log t at every scale.  Near omega = 38.6 and 60.5 the 21- and 10-point
    # Gauss-Legendre rules agree on such an end far more closely than either
    # is right; the end rule integrates its weight exactly.
    p = complex(re_p, omega * min(re_p, 1.0))
    res = integrate_finite(lambda t: t ** (p - 1.0), 0.0, 1.0, EndpointExponents(p, 1.0))
    assert abs(res.value - 1.0 / p) <= DEFAULT_SPEC.rel_tol * abs(1.0 / p)
