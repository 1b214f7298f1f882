"""Hypergeometric series, unit-argument closed forms, and weak-limit sweeps."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from weaklim import claims, hyper
from weaklim.complexfn import DomainError, PoleError, _check_pole, gamma, log_gamma
from weaklim.distrib import _SWEEP_SPEC, PROBES, omega_eps
from weaklim.hyper import (
    SeriesError,
    f_derivatives,
    f_factor,
    family_closed_form,
    family_duplication_form,
    family_weak_limit_sweep,
    gauss_sum,
    hyp2f1,
    oscillatory_limit_sweep,
)
from weaklim.quad import integrate_pairing

mpmath.mp.dps = 30
SQRT_PI = math.sqrt(math.pi)


# ------------------------------------------------------------------- series

def test_series_at_zero():
    assert hyp2f1(0.3 + 1j, -2.5, 4.0, 0.0) == 1.0


@pytest.mark.parametrize("z", [0.0, -0.0, 0j, complex(-0.0, -0.0)])
def test_series_at_zero_is_exactly_one(z):
    # As the per-term reference, whatever a and b: with a = b = 1e200 the
    # first ratio (a + n)(b + n) overflows, and inf * 0 would be NaN.  The
    # argument checks still come first.
    for a, b, c in ((1e200, 1e200, 1.0), (1e200 + 1j, -1e200, 0.5j), (0.3 + 1j, -2.5, 4.0)):
        assert repr(hyp2f1(a, b, c, z)) == repr(_loop_hyp2f1(a, b, c, z)) == "(1+0j)"
    with pytest.raises(PoleError):
        hyp2f1(1e200, 1e200, -3.0, z)
    for args, kwargs, condition in (((math.inf, 1e200, 1.0, z), {}, "finite a"),
                                    ((1e200, 1e200, 1.0, z), {"rel_tol": 0.0}, "0 < rel_tol < 1")):
        with pytest.raises(DomainError) as exc:
            hyp2f1(*args, **kwargs)
        assert exc.value.condition == condition


def test_series_binomial_case():
    # b = c collapses the series to (1 - z)^(-a).
    got = hyp2f1(0.5, 1.5, 1.5, 0.25)
    assert abs(got - 0.75 ** -0.5) <= 1e-12


def test_series_log_case():
    # 2F1(1, 1; 2; z) = -ln(1 - z)/z.
    got = hyp2f1(1.0, 1.0, 2.0, 0.5)
    assert abs(got - 2.0 * math.log(2.0)) <= 1e-12


def test_series_symmetry_in_a_b():
    a, b, c, z = 0.3 + 0.9j, -1.2 + 0.4j, 2.5, 0.6 - 0.2j
    assert hyp2f1(a, b, c, z) == hyp2f1(b, a, c, z)


def test_series_matches_mpmath():
    for (a, b, c, z) in [
        (0.5, 0.25, 2.0, 0.9),
        (2j, 0.1 + 0.7j, 0.2 + 1.4j, 0.5),
        (-1.5, 2.0, 3.3, -0.8),
    ]:
        want = complex(mpmath.hyp2f1(a, b, c, z))
        assert abs(hyp2f1(a, b, c, z) - want) <= 1e-10 * max(1.0, abs(want))


@pytest.mark.parametrize("b", [80.0, 60.0])
def test_series_waits_out_a_quiet_stretch(b):
    # a + 3 = 2^-50 nearly ends the series after its fourth term: the terms
    # after it stay below rel_tol |sum| for 6 (b = 80) or 10 (b = 60) terms,
    # then grow with b before they settle.  A stop rule that gives up inside
    # that stretch returns the cubic and misses 1.4e-7 or 5.2e-11 of the value.
    a = -3.0 + 2.0 ** -50
    want = complex(mpmath.hyp2f1(a, b, 1.0, 0.4))
    assert abs(hyp2f1(a, b, 1.0, 0.4) - want) <= 1e-13 * abs(want)


def test_series_polynomial_termination():
    # a a negative integer terminates the series exactly.
    got = hyp2f1(-2.0, 1.0, 1.0, 0.7)
    assert abs(got - (1 - 0.7) ** 2) <= 1e-14


def test_series_rejects_c_pole():
    with pytest.raises(PoleError):
        hyp2f1(1.0, 1.0, -3.0, 0.5)


def test_series_rejects_near_unit_argument():
    with pytest.raises(DomainError):
        hyp2f1(1.0, 1.0, 3.0, 0.99999)


def test_series_budget_exhaustion_flagged(monkeypatch):
    monkeypatch.setattr(hyper, "_MAX_TERMS", 10)
    with pytest.raises(SeriesError) as exc:
        hyp2f1(0.5, 0.25, 2.0, 0.995)
    assert exc.value.terms == 10
    assert abs(exc.value.partial) > 0.0


def test_series_overflow_raises():
    # The terms overflow to inf; an infinite sum must not come back as a value.
    with pytest.raises(SeriesError):
        hyp2f1(60.0, 60.0, 1.0, 0.9999)


def test_series_stops_at_first_non_finite_term():
    with pytest.raises(SeriesError) as exc:
        hyp2f1(1000j, 1.0, 1.0, 0.9)
    assert exc.value.terms < 10_000


@pytest.mark.parametrize("args, kwargs, condition", [
    ((math.nan, 1.0, 2.0, 0.5), {}, "finite a"),
    ((1.0, complex(1.0, math.inf), 2.0, 0.5), {}, "finite b"),
    ((1.0, 1.0, complex(2.0, math.nan), 0.5), {}, "finite c"),
    ((1.0, 1.0, 2.0, math.nan), {}, "finite z"),
    ((1.0, 1.0, 2.0, complex(0.0, -math.inf)), {}, "finite z"),
    ((1.0, 1.0, 2.0, 0.5), {"rel_tol": math.nan}, "0 < rel_tol < 1"),
    ((1.0, 1.0, 2.0, 0.5), {"rel_tol": 0.0}, "0 < rel_tol < 1"),
    ((1.0, 1.0, 2.0, 0.5), {"rel_tol": -1e-13}, "0 < rel_tol < 1"),
    ((1.0, 1.0, 2.0, 0.5), {"rel_tol": 1.0}, "0 < rel_tol < 1"),
    # Finite, but abs(z) overflows.
    ((1.0, 1.0, 2.0, complex(1.5e308, 1.5e308)), {}, "|z| <= 1 - 1e-4"),
], ids=["nan-a", "inf-b", "nan-c", "nan-z", "inf-z", "nan-tol", "zero-tol",
        "negative-tol", "unit-tol", "huge-z"])
def test_series_rejects_bad_arguments_before_summing(monkeypatch, args, kwargs,
                                                     condition):
    # A named DomainError, raised before the first term is summed.
    monkeypatch.setattr(hyper, "_ratios", lambda *a: pytest.fail("summed a term"))
    with pytest.raises(DomainError) as exc:
        hyp2f1(*args, **kwargs)
    assert exc.value.condition == condition


# ------------------------------------------- chunked series vs the scalar loop

def _loop_hyp2f1(a, b, c, z, *, rel_tol: float = 1e-13) -> complex:
    """The per-term loop the chunked sum replaced, kept as its reference."""
    a = complex(a)
    b = complex(b)
    c = complex(c)
    z = complex(z)
    _check_pole(c)
    if abs(z) > hyper._MAX_ABS_Z:
        raise DomainError("|z| <= 1 - 1e-4",
                          f"|z| = {abs(z):.6f} is too close to the unit circle")
    if z == 0:
        return 1.0 + 0j
    total = 1.0 + 0j
    term = 1.0 + 0j
    small = 0
    for n in range(hyper._MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if abs(term) > rel_tol * abs(total):
            small = 0
        else:  # settled, or non-finite: NaN and inf > inf compare false
            if not cmath.isfinite(total):
                raise SeriesError("hypergeometric series is not finite",
                                  total, n + 1)
            small += 1
            if small >= hyper._CONSECUTIVE_SMALL:
                return total
    raise SeriesError("hypergeometric series did not converge", total,
                      hyper._MAX_TERMS)


def _outcome(f, *args):
    """Exact text of a value, or the error with its partial sum and count."""
    try:
        return repr(f(*args))
    except SeriesError as exc:
        return (str(exc), repr(exc.partial), exc.terms)


def test_chunked_series_matches_loop_over_bench_domain():
    # The benchmark's scalar_eval domain, where the series also cancels.
    rng = np.random.default_rng(20)
    draws = rng.uniform(size=(2000, 8))
    for row in draws:
        ar, ai, br, bi, cr, ci, r, t = row
        args = (complex(-60.0 + 120.0 * ar, -5.0 + 10.0 * ai),
                complex(-10.0 + 20.0 * br, -5.0 + 10.0 * bi),
                complex(0.25 + 19.75 * cr, -5.0 + 10.0 * ci),
                cmath.rect(0.9 * math.sqrt(r), math.pi * (2.0 * t - 1.0)))
        assert _outcome(hyp2f1, *args) == _outcome(_loop_hyp2f1, *args), args


def test_real_series_matches_loop():
    # Real a, b, c and z sum in float64 chunks.  The draws: negative a and b,
    # every eighth series terminating (a a non-positive integer), c in
    # (0.25, 20], and z of either sign with |z| up to 1 - 1e-4 (one draw in
    # 50 within 0.1 of 1, and z = -(1 - 1e-4)).  Then the overflows: a term
    # that overflows is (inf, +-0) in CPython's complex arithmetic, as in
    # float64, while a ratio that overflows (a product, a quotient by a small
    # c, or after a zero term) turns the loop's term to (nan, nan), as inf * 0
    # lands in its imaginary part.
    rng = np.random.default_rng(21)
    draws = []
    for i, (ar, br, cr, r, s) in enumerate(rng.uniform(size=(2000, 5))):
        a = -60.0 + 120.0 * ar if i % 8 else -float(int(40.0 * ar))
        mag = 1.0 - 10.0 ** (-1.0 - 3.0 * r) if i % 50 == 0 else 0.9 * math.sqrt(r)
        draws.append((a, -10.0 + 20.0 * br, 20.0 - 19.75 * cr, math.copysign(mag, s - 0.5)))
    draws.append((-3.5, 1.5, 12.0, -(1.0 - 1e-4)))
    for args in draws + [(200.0, 200.0, 1.0, 0.9), (1e200, 1e200, 1.0, 0.5),
                         (1e150, -1e150, -1e-9, -0.5), (-2.0, 1e307, 1.0, 1e-300)]:
        assert _outcome(hyp2f1, *args) == _outcome(_loop_hyp2f1, *args), args


@pytest.mark.parametrize("args, dtype", [
    ((0.5, 0.25, 2.0, 0.9), float),
    ((0.5, 0.25, 2.0, 0.6 + 0.6j), complex),
    ((0.5 + 1e-9j, 0.25, 2.0, 0.9), complex),
    ((0.5, 0.25 - 1e-9j, 2.0, 0.9), complex),
    ((0.5, 0.25, 2.0 + 1e-9j, 0.9), complex),
    ((0.5, 0.25, 2.0, 0.9 - 1e-9j), complex),
], ids=["real", "complex-z", "imag-a", "imag-b", "imag-c", "imag-z"])
def test_series_dtype_follows_the_arguments(args, dtype):
    # Only all-zero imaginary parts take the float64 chunks; one non-zero
    # part, however small, keeps the complex chunks.  The spy goes in by a
    # MonkeyPatch context, as the mutation catalog calls this test directly.
    seen = set()

    def spy(*a):
        out = ratios(*a)
        seen.add(out.dtype)
        return out

    ratios = hyper._ratios
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hyper, "_ratios", spy)
        got = _outcome(hyp2f1, *args)
    assert seen == {np.dtype(dtype)}
    assert got == _outcome(_loop_hyp2f1, *args)


@pytest.mark.parametrize("args", [
    (1.5 + 0.5j, -2.25 + 1j, 0.5 + 20j, 0.7 + 0.2j),
    (3.0 + 1j, 2.0 - 1j, -30.5 + 2j, -0.6 + 0.5j),
    (-7.0, 1.5 + 0.5j, 2.25, 0.8 - 0.3j),
    (200.0, 200.0, 1.0, 0.9),
    (200.0 + 1e-9j, 200.0, 1.0, 0.9),
    (complex(-3.0, -0.0), complex(2.5, -0.0), complex(-2.5, -0.0), complex(-0.5, -0.0)),
    (0.3 + 1j, -2.5, 4.0, complex(-0.0, -0.0)),
    *[(a, b, c, 1 - 1e-4) for a, b, c in
      [(1, 1, 3), (0.5, 0.25, 2), (2, 1, 4.5), (0.5, 1, 3), (1.5, 0.5, 3.25)]],
], ids=["smith-imag-branch", "smith-imag-branch-mid-chunk", "terminating",
        "non-finite-in-second-chunk", "non-finite-in-second-chunk-complex",
        "signed-zeros", "zero-z", "e18-1", "e18-2", "e18-3", "e18-4", "e18-5"])
def test_chunked_series_matches_loop(args):
    # Smith's |Im d| > |Re d| branch holds for n < 19.5 with c = 0.5 + 20i,
    # and for 28.5 < n < 32.5 with c = -30.5 + 2i.  Signs of zero never
    # reach a partial sum, whose zero parts are +0.0.
    assert _outcome(hyp2f1, *args) == _outcome(_loop_hyp2f1, *args)


def test_non_finite_sum_inside_the_second_chunk():
    with pytest.raises(SeriesError, match="not finite") as exc:
        hyp2f1(200.0, 200.0, 1.0, 0.9)
    assert hyper._FIRST_CHUNK < exc.value.terms <= 3 * hyper._FIRST_CHUNK


def test_quiet_run_straddling_the_first_chunk_edge(monkeypatch):
    # The terms fall like 0.89^n, so the 50 quiet terms that stop the sum
    # are n = 237 .. 286, across the 256-term edge: with a budget of 287
    # terms the sum settles, with 286 it does not.
    args = (1.0, 2.5, 2.5, 0.89)
    settled = _outcome(hyp2f1, *args)
    assert settled == _outcome(_loop_hyp2f1, *args)
    monkeypatch.setattr(hyper, "_MAX_TERMS", 287)
    assert _outcome(hyp2f1, *args) == settled
    monkeypatch.setattr(hyper, "_MAX_TERMS", 286)
    unsettled = _outcome(hyp2f1, *args)
    assert unsettled == _outcome(_loop_hyp2f1, *args)
    assert unsettled[2] == 286


def _running_max_stop(loud, last):
    """The stop index as a running maximum over every term finds it."""
    n = np.arange(len(loud))
    lasts = np.maximum.accumulate(np.where(loud, n, last))
    stop = np.flatnonzero(n - lasts >= hyper._CONSECUTIVE_SMALL)
    return stop[0] if stop.size else -1


def test_stop_index_matches_running_maximum():
    rng = np.random.default_rng(24)
    for size in range(1, 301):
        for density in (0.0, 0.005, 0.02, 0.05, 0.2, 0.5, 0.9, 0.99, 1.0):
            loud = rng.uniform(size=size) < density
            last = int(rng.integers(-60, 0))
            got = hyper._stop_index(loud.nonzero()[0], last, size)
            assert got == _running_max_stop(loud, last), (size, density, last)


def _pattern(size, *indices):
    loud = np.zeros(size, dtype=bool)
    loud[list(indices)] = True
    return loud


# (loud pattern of a chunk, carried last, stop index) by name.
STOP_CASES = {
    "no-loud": (_pattern(256), -1, 49),
    "no-loud-short-chunk": (_pattern(40), -1, -1),
    "all-loud": (np.ones(256, dtype=bool), -1, -1),
    "gap-49": (_pattern(150, 10, 59), -1, 109),
    "gap-50": (_pattern(150, 10, 60), -1, 110),
    "gap-51": (_pattern(150, 10, 61), -1, 60),
    "run-ends-at-chunk-end": (_pattern(256, *range(0, 201, 40), 205), -1, 255),
    "run-passes-chunk-end": (_pattern(256, *range(0, 201, 40), 206), -1, -1),
    "carried-last-stops": (_pattern(256, 25, 30), -30, 20),
    "carried-last-reaches-a-loud-term": (_pattern(256, 20, 30), -30, 80),
}


@pytest.mark.parametrize("loud, last, want", STOP_CASES.values(), ids=STOP_CASES)
def test_stop_index_cases(loud, last, want):
    # A gap of g between loud indices leaves g - 1 quiet terms: the 50th quiet
    # term after a loud one stops the sum only when g > 50.
    assert hyper._stop_index(loud.nonzero()[0], last, len(loud)) == want
    assert _running_max_stop(loud, last) == want


def test_e18_series_counts(monkeypatch):
    # E18's ten sums near z = 1, counted at the chunk loop: deterministic, so
    # a change of chunk sizes or stop rule shows here exactly.
    chunks = []
    ratios = hyper._ratios
    monkeypatch.setattr(hyper, "_ratios", lambda *a: chunks.append(a[-1]) or ratios(*a))
    claims.run_claim("E18-gauss-summation")
    assert sum(n[0] == 0 for n in chunks) == 10
    assert len(chunks) == 108
    assert sum(map(len, chunks)) == 316_928


@pytest.mark.parametrize("budget", [10, 300])
def test_chunked_series_budget_matches_loop(monkeypatch, budget):
    # 300 terms end inside the second chunk.
    monkeypatch.setattr(hyper, "_MAX_TERMS", budget)
    args = (0.5, 0.25, 2.0, 0.995)
    got = _outcome(hyp2f1, *args)
    assert got == _outcome(_loop_hyp2f1, *args)
    assert got[2] == budget


def test_modulus_overflow_is_a_series_error():
    # |term| overflows while both its parts are finite.  abs() in the scalar
    # loop raises a bare OverflowError; the chunked sum goes on to the first
    # non-finite partial sum and raises the named SeriesError there.
    args = (205.98844049314562 - 45.33553371737718j,
            -5.838539226222239 - 6.537710084743278j, 18.437483751336185,
            -0.81903582326945 + 0.5609134584308988j)
    with pytest.raises(OverflowError):
        _loop_hyp2f1(*args)
    with pytest.raises(SeriesError, match="not finite"):
        hyp2f1(*args)


# ------------------------------------------------------------ gauss summation

def test_gauss_sum_values():
    assert abs(gauss_sum(1.0, 1.0, 3.0) - 2.0) <= 1e-13
    assert gauss_sum(0.0, 0.5, 2.0) == 1.0 or \
        abs(gauss_sum(0.0, 0.5, 2.0) - 1.0) <= 1e-13
    want = gamma(2.0) * gamma(1.25) / (gamma(1.5) * gamma(1.75))
    assert abs(gauss_sum(0.5, 0.25, 2.0) - want) <= 1e-13 * abs(want)


def test_gauss_sum_named_precondition_failures():
    with pytest.raises(DomainError) as exc:
        gauss_sum(1.0, 3.0, 2.0)
    assert "Re(c) > Re(b)" in exc.value.condition
    with pytest.raises(DomainError) as exc:
        gauss_sum(1.0, -1.0, 2.0)
    assert "Re(b) > 0" in exc.value.condition
    with pytest.raises(DomainError) as exc:
        gauss_sum(2.0, 1.0, 2.5)
    assert "Re(c - a - b) > 0" in exc.value.condition


def test_gauss_sum_vs_series_five_sets():
    sets = [(1, 1, 3), (0.5, 0.25, 2), (2, 1, 4.5), (0.5, 1, 3),
            (1.5, 0.5, 3.25)]
    for (a, b, c) in sets:
        cf = gauss_sum(a, b, c)
        near = hyp2f1(a, b, c, 1 - 1e-3)
        nearer = hyp2f1(a, b, c, 1 - 1e-4)
        assert abs(near - cf) <= 1e-2 * abs(cf), (a, b, c)
        assert abs(nearer - cf) < abs(near - cf), (a, b, c)


# ----------------------------------------------------------------- family

def test_family_collapses_at_tau_zero():
    # eps = 1e-15 puts Gamma(2 eps) on the pole tolerance; tau = 0 never
    # evaluates it.
    for eps in (1e-15, 1e-3, 0.05, 0.7):
        assert family_closed_form(0.0, eps) == 1.0 + 0j


def test_family_array_matches_scalar():
    rng = np.random.default_rng(5)
    taus = np.concatenate([[0.0, -0.0], rng.uniform(-30.0, 30.0, 200)])
    for eps in (1e-5, 0.01, 0.3, 0.5, 7.0):
        arr = family_closed_form(taus, eps)
        assert arr.shape == taus.shape
        assert arr[0] == arr[1] == 1.0 + 0j
        for t, v in zip(taus, arr):
            got = family_closed_form(float(t), eps)
            assert type(got) is complex
            assert got.real == v.real and got.imag == v.imag
        grid = family_closed_form(taus.reshape(2, -1), eps)
        assert np.array_equal(grid.ravel(), arr)


def test_family_equals_gauss_sum_bit_for_bit():
    # Conjugate symmetry of log_gamma makes the two-log-gamma form exact.
    rng = np.random.default_rng(11)
    taus = rng.uniform(-50.0, 50.0, 2000)
    epss = 10.0 ** rng.uniform(-5.0, 1.0, 2000)
    for tau, eps in zip(taus, epss):
        tau, eps = float(tau), float(eps)
        got = family_closed_form(tau, eps)
        want = gauss_sum(2j * tau, complex(eps, tau), complex(2 * eps, 2 * tau))
        assert got.real == want.real and got.imag == want.imag, (tau, eps)


def test_family_log_gamma_count(monkeypatch):
    # An array tau: two array log-gammas over the distinct nonzero |tau|, at
    # eps + i t and 2 eps + 2 i t with eps on every node, and one scalar
    # log-gamma for Gamma(2 eps) when any tau is nonzero.
    calls, arrays = [], []
    inner, inner_array = hyper.log_gamma, hyper._log_gamma_right_array
    monkeypatch.setattr(hyper, "log_gamma",
                        lambda z: calls.append(z) or inner(z))
    monkeypatch.setattr(hyper, "_log_gamma_right_array",
                        lambda x, y: arrays.append((x, y)) or inner_array(x, y))

    def count(tau):
        calls.clear()
        arrays.clear()
        family_closed_form(tau, 0.01)
        for (x, y), e in zip(arrays, (0.01, 0.02)):  # x is e at every node
            assert np.shape(x) == np.shape(y) and np.all(np.equal(x, e))
        return len(arrays), [list(y) for _, y in arrays]

    for n in (1, 6, 31):
        ts = np.linspace(0.1, 2.0, n)
        for tau in (ts, np.concatenate([-ts, ts, ts[::-1]])):
            assert count(tau) == (2, [list(ts), list(2 * ts)])
            assert calls == [complex(0.02)]
    assert count(np.array([-1.0, 0.0, 1.0])) == (2, [[1.0], [2.0]])
    assert calls == [complex(0.02)]
    assert count(np.zeros(4)) == (2, [[], []])
    assert calls == []
    assert count(-0.5) == (0, [])  # a scalar evaluates at tau itself
    assert calls == [complex(0.02), complex(0.01, -0.5), complex(0.02, -1.0)]


def test_family_is_conjugate_even_bit_for_bit():
    rng = np.random.default_rng(17)
    taus = rng.uniform(0.0, 50.0, 500)
    for eps in (1e-5, 1e-2, 0.3, 7.0):
        for t in taus.tolist():
            plus = family_closed_form(t, eps)
            minus = family_closed_form(-t, eps)
            assert minus.real == plus.real and minus.imag == -plus.imag, (t, eps)


@pytest.mark.parametrize("tau", [5e305, 1e307, 1.7e308])
def test_family_beyond_1e305_is_the_underflowed_zero(tau):
    # Both routes give the 0 that 1e305 already gives: no NaN, no error, and
    # no RuntimeWarning (pytest turns those into errors).
    for t in (tau, -tau):
        got = family_closed_form(t, 0.1)
        assert isinstance(got, complex) and got == 0
    arr = family_closed_form(np.array([tau, -tau, 1e305, 1.0]), 0.1)
    assert np.array_equal(arr, [0, 0, 0, family_closed_form(1.0, 0.1)])
    with pytest.raises(DomainError, match="not finite"):
        family_closed_form(np.array([tau, math.nan]), 0.1)


def test_family_dual_route():
    # Gamma-product route against the duplication route, point by point.
    val = family_closed_form(1.0, 0.5)
    want = (gamma(1 + 2j) * gamma(0.5 - 1j)) / (gamma(1.0) * gamma(0.5 + 1j))
    assert abs(val - want) <= 1e-12 * abs(want)
    assert abs(val - family_duplication_form(1.0, 0.5)) <= 1e-12 * abs(val)


def test_family_duplication_grid():
    for eps in (1e-3, 1e-2, 0.1, 0.5):
        for tau in (0.1, 0.5, 1.0, 2.0):
            a = family_closed_form(tau, eps)
            b = family_duplication_form(tau, eps)
            assert abs(a - b) <= 1e-10 * abs(a)


def test_family_factorization_grid():
    for eps in (1e-3, 1e-2, 0.1, 0.5):
        for tau in (0.1, 0.5, 1.0, 2.0):
            lhs = family_closed_form(tau, eps)
            rhs = f_factor(eps, tau) * complex(eps, tau) * omega_eps(tau, eps)
            assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_family_vs_series_connection_oracle():
    # Near the unit argument the series splits into the closed-form value
    # plus a slowly vanishing (1-z)^(eps - i tau) correction; check the series
    # against the full two-term combination, then check that the correction
    # term really is the measured gap (the family converges only weakly, so
    # the gap at z = 0.999 is order |B| |1-z|^eps, not small).
    eps, tau = 0.1, 0.7
    a, b, c = 2j * tau, complex(eps, tau), complex(2 * eps, 2 * tau)
    z = 0.999
    A = family_closed_form(tau, eps)
    B = cmath.exp(log_gamma(c) + log_gamma(a + b - c)
                  - log_gamma(a) - log_gamma(b))
    series = hyp2f1(a, b, c, z)
    f1 = hyp2f1(a, b, a + b - c + 1, 1 - z)
    f2 = hyp2f1(c - a, c - b, c - a - b + 1, 1 - z)
    conn = A * f1 + B * (1 - z) ** (c - a - b) * f2
    assert abs(series - conn) <= 1e-8 * abs(series)
    gap = abs(series - A)
    envelope = abs(B * (1 - z) ** (c - a - b) * f2)
    assert 0.5 * envelope <= gap <= 1.5 * envelope + 1e-3


# ------------------------------------------------------------- f and Taylor

def test_f_factor_normalization():
    # Factorization-consistent normalization: f(eps, 0) = pi identically.
    assert abs(f_factor(0.0, 0.0) - math.pi) <= 1e-13
    assert abs(f_factor(0.37, 0.0) - math.pi) <= 1e-12


def test_f_factor_at_eps_zero_formula():
    for tau in (0.3, 1.0, 2.0):
        want = SQRT_PI * 4.0 ** (1j * tau) * gamma(0.5 + 1j * tau) \
            * gamma(1.0 - 1j * tau)
        assert abs(f_factor(0.0, tau) - want) <= 1e-12 * abs(want)


def test_f_derivative_zero_at_origin():
    fp, _ = f_derivatives(0.0, 0.0)
    assert abs(fp) <= 1e-12


def test_f_derivatives_vs_finite_differences():
    h = 1e-5
    fp, _ = f_derivatives(0.0, 1.0)
    fd = (f_factor(h, 1.0) - f_factor(-h, 1.0)) / (2 * h)
    assert abs(fp - fd) <= 1e-5 * abs(fp)

    h = 1e-4
    _, fpp = f_derivatives(0.2, 0.7)
    fd2 = (f_factor(0.2 + h, 0.7) - 2 * f_factor(0.2, 0.7)
           + f_factor(0.2 - h, 0.7)) / (h * h)
    assert abs(fpp - fd2) <= 1e-4 * abs(fpp)


def test_taylor_remainder_bound():
    # |f(eps, tau) - f(0, tau) - f'(0, tau) eps| <= (M/2) eps^2 with M a
    # sampled maximum of |f''| over (0, eps] plus 10% headroom.
    for tau in (-2.0, -0.5, 0.0, 0.7, 2.0):
        f0 = f_factor(0.0, tau)
        fp0, _ = f_derivatives(0.0, tau)
        for eps in (0.01, 0.05, 0.1):
            xs = [eps * k / 8.0 for k in range(1, 9)]
            m = 1.1 * max(abs(f_derivatives(x, tau)[1]) for x in xs)
            lhs = abs(f_factor(eps, tau) - f0 - fp0 * eps)
            floor = 1e-12 * abs(f0)  # machine noise when f is flat in eps
            assert lhs <= 0.5 * m * eps * eps + floor, (tau, eps)


# ------------------------------------------------------------------- sweeps

def test_family_weak_limit_gaussian():
    sweep = family_weak_limit_sweep(PROBES["gaussian"], (-1.0, 1.0))
    mags = sweep.magnitudes()
    assert abs(sweep.extrapolated_limit) <= 1e-3
    assert mags[-3] > mags[-2] > mags[-1]
    assert mags[6] <= 1e-2  # the eps = 1e-4 ladder entry


def test_family_weak_limit_origin_excluded():
    sweep = family_weak_limit_sweep(PROBES["const"], (1.0, 2.0))
    assert abs(sweep.extrapolated_limit) <= 1e-3
    assert sweep.magnitudes()[-1] < sweep.magnitudes()[0]


def test_family_pairing_decreases_for_catalog():
    for name, probe in PROBES.items():
        sweep = family_weak_limit_sweep(probe, (-1.0, 1.0))
        mags = sweep.magnitudes()
        assert mags[-3] > mags[-2] > mags[-1], name


def test_oscillatory_cos_gaussian_fourier():
    ladder = tuple(math.exp(-k) for k in (5.0, 10.0, 20.0))
    sweep = oscillatory_limit_sweep(PROBES["gaussian"], "cos", ladder,
                                    interval=(-5.0, 5.0))
    for (d, v, _), k in zip(sweep.points, (5.0, 10.0, 20.0)):
        oracle = SQRT_PI * math.exp(-k * k / 4.0)
        assert abs(v - oracle) <= 1e-6, k
    mags = sweep.magnitudes()
    assert mags[0] > mags[1] > mags[2]


def test_oscillatory_power_modulus_identity():
    ladder = tuple(math.exp(-k) for k in (5.0, 8.0))
    cos_s = oscillatory_limit_sweep(PROBES["gaussian"], "cos", ladder,
                                    interval=(-5.0, 5.0))
    sin_s = oscillatory_limit_sweep(PROBES["gaussian"], "sin", ladder,
                                    interval=(-5.0, 5.0))
    pow_s = oscillatory_limit_sweep(PROBES["gaussian"], "power", ladder,
                                    interval=(-5.0, 5.0))
    for (pc, ps, pp) in zip(cos_s.values, sin_s.values, pow_s.values):
        assert abs(abs(pp) - math.hypot(abs(pc), abs(ps))) <= 1e-9


def test_oscillatory_constant_probe_antiderivative():
    k = 20.0
    sweep = oscillatory_limit_sweep(PROBES["const"], "cos",
                                    (math.exp(-k),), interval=(-1.0, 1.0))
    val = sweep.values[0]
    oracle = 2.0 * math.sin(k) / k
    assert abs(val - oracle) <= 1e-9
    assert abs(val) <= 0.1


@pytest.mark.parametrize("kind, kernel", [
    ("cos", lambda L: lambda ts: np.cos(L * ts)),
    ("sin", lambda L: lambda ts: np.sin(L * ts)),
    ("power", lambda L: lambda ts: np.exp(-1j * L * ts)),
])
def test_oscillatory_sweep_is_each_pairing_alone(kind, kernel):
    # One batch keyed by L = ln d gives each d the pairing integrate_pairing
    # gives alone, with its own half periods, bit for bit.
    ladder = tuple(math.exp(-k) for k in (3.0, 7.0, 12.0))
    sweep = oscillatory_limit_sweep(PROBES["gaussian"], kind, ladder, interval=(-5.0, 5.0))
    for d, value, err in sweep.points:
        L = math.log(d)
        alone = integrate_pairing(PROBES["gaussian"], kernel(L), -5.0, 5.0, _SWEEP_SPEC,
                                  osc_freq=L)
        assert (value, err) == (alone.value, alone.error_estimate), (kind, d)


def test_oscillatory_rejects_bad_ladder():
    with pytest.raises(DomainError, match="ladder strictly decreasing"):
        oscillatory_limit_sweep(PROBES["gaussian"], "cos", (0.1, 0.2), (-5.0, 5.0))
    with pytest.raises(DomainError):
        oscillatory_limit_sweep(PROBES["gaussian"], "tan", (0.1,), (-5.0, 5.0))
    # The z ladder is validated as an EpsilonLadder.
    with pytest.raises(DomainError, match="ladder values positive"):
        oscillatory_limit_sweep(PROBES["gaussian"], "cos", (0.1, -0.1), (-5.0, 5.0))
    with pytest.raises(DomainError, match="ladder values positive"):
        oscillatory_limit_sweep(PROBES["gaussian"], "cos", (), (-5.0, 5.0))
