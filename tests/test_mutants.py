"""Mutation catalog: each planted defect fails a named, targeted test.

A row plants one mutant in place of a library function or constant, by a
copy of its source with one edit or by a stand-in, and runs only the test
that must kill it: never the verify-all digest pin, which every legitimate
last-digit change re-pins.  A kill is a failed assertion, or a
RuntimeWarning, which the suite treats as an error.

Equivalent mutants give the same bits and are left out: _cdiv's tie rule
written ``>=`` (a tie's ratio is +-1 on either branch), and _cmul's
``ar * bi + ai * br`` with its operands swapped (IEEE addition commutes).
A mutant that is equivalent on some hosts only is skipped on those.
"""

import functools
import inspect
import math

import numpy as np
import pytest

import test_complexfn
import test_distrib
import test_harness
import test_hyper
import test_legendre
import test_quad
from weaklim import claims, complexfn, distrib, hyper, legendre, quad, report


def edited(module, name: str, old: str, new: str):
    """module.name recompiled from its source with ``old`` (found once) as ``new``."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1, f"{name} no longer reads {old!r}"
    scope = {}
    exec(source.replace(old, new), vars(module), scope)
    return scope[name]


def numpy_mul(ar, ai, br, bi):
    p = (ar + 1j * ai) * (br + 1j * bi)
    return p.real, p.imag


def numpy_div(ar, ai, br, bi):
    q = (ar + 1j * ai) / (br + 1j * bi)
    return q.real, q.imag


def scaled(f, factor: float):
    return lambda *args: factor * f(*args)


def real_ufunc(f, x, *args):
    return f(np.asarray(x, float), *args)


def numpy_mul_is_cpython() -> bool:
    """numpy's complex * rounds as the kit on the kit's operands (no FMA here)."""
    ops = test_complexfn._kit_operands()
    return all(map(np.array_equal, numpy_mul(*ops), complexfn._cmul(*ops)))


def real_ufuncs_are_libm() -> bool:
    """numpy's real exp and expm1 round as libm's on _rx's operands (no SIMD loop here)."""
    xs = test_complexfn._rx_operands()
    return all(np.array_equal(f(xs), [ref(x) for x in xs.tolist()])
               for f, ref in ((np.exp, math.exp), (np.expm1, math.expm1)))


def gemv_rounds_rows_alone() -> bool:
    """This host's BLAS matrix-vector product rounds each row as that row alone."""
    m = np.random.default_rng(24).standard_normal((8, 4000))
    m, v = m[:7], m[7]
    return np.array_equal(m @ v, [m[i:i + 1] @ v for i in range(7)])


# (id, owning module, function, mutant factory, targeted test)
MUTANTS = [
    ("cdiv-numpy", complexfn, "_cdiv", lambda: numpy_div,
     test_complexfn.test_kit_rounds_as_cpython),
    ("cdiv-branch-inverted", complexfn, "_cdiv",
     lambda: edited(complexfn, "_cdiv", "np.abs(bi) > np.abs(br)", "np.abs(bi) <= np.abs(br)"),
     # its smith-imag-branch-mid-chunk case: |Im d| > |Re d| for 28.5 < n < 32.5
     functools.partial(test_hyper.test_chunked_series_matches_loop,
                       (3.0 + 1j, 2.0 - 1j, -30.5 + 2j, -0.6 + 0.5j))),
    ("cdiv-swap-not-negated", complexfn, "_cdiv",
     lambda: edited(complexfn, "_cdiv", "np.negative(im, out=im, where=swap)", "im"),
     # its smith-imag-branch case: |Im d| > |Re d| for n < 19.5
     functools.partial(test_hyper.test_chunked_series_matches_loop,
                       (1.5 + 0.5j, -2.25 + 1j, 0.5 + 20j, 0.7 + 0.2j))),
    ("cmul-numpy", complexfn, "_cmul", lambda: numpy_mul,
     test_complexfn.test_kit_rounds_as_cpython),
    ("rx-real-ufunc", complexfn, "_rx", lambda: real_ufunc,
     test_complexfn.test_rx_rounds_as_libm),
    ("mellin-grid-gemv", distrib, "_mellin_forward_grid",
     lambda: edited(distrib, "_mellin_forward_grid", " * rows[at_eps[at]]).sum(axis=1)",
                    " @ rows[0])"),
     test_distrib.test_mellin_grid_value_does_not_depend_on_the_batch),
    ("mellin-grid-tail-at-36", distrib, "_mellin_forward_grid",
     lambda: edited(distrib, "_mellin_forward_grid", "1.0 - 2.0 * eps, 1.0, cut)",
                    "1.0 - 2.0 * eps, 1.0, 36.0)"),
     test_distrib.test_mellin_grid_matches_mpmath_on_ladder),
    ("tail-numpy-mul", distrib, "_binomial_tail",
     lambda: edited(distrib, "_binomial_tail", "_times(np.exp(-a * cut), terms.sum(axis=-1))",
                    "np.exp(-a * cut) * terms.sum(axis=-1)"),
     test_distrib.test_binomial_tail_bytes_at_every_dispatch_level),
    ("end-moment-ratio", quad, "_end_weights",
     lambda: edited(quad, "_end_weights", "(p - 1 - k)", "(p - k)"),
     functools.partial(test_quad.test_end_rule_is_exact_on_powers, 0.3 - 60.47j)),
    ("end-fold-dropped", quad, "_end_weights",
     lambda: edited(quad, "_end_weights", "_times(sums, np.exp(exponent))", "sums"),
     functools.partial(test_quad.test_end_rule_is_exact_on_powers, 0.05 + 0j)),
    ("panel-numpy-mul", quad, "_panels",
     lambda: edited(quad, "_panels", "_times(ys, np.array(rows))", "ys * np.array(rows)"),
     test_quad.test_panel_rules_are_row_sums_of_cpython_products),
    ("panel-row-sum-gemm", quad, "_panels",
     lambda: edited(quad, "_panels", "np.add.reduceat(products, [0, 21], axis=1)",
                    "products @ np.equal.outer(np.arange(31) >= 21, [False, True])"),
     test_quad.test_panel_rules_are_row_sums_of_cpython_products),
    ("stirling-3-terms", complexfn, "_LG_COEFF", lambda: complexfn._LG_COEFF[:3],
     functools.partial(test_complexfn.test_log_gamma_matches_mpmath, 0.25 + 0j)),
    ("beta-reg-scaled", distrib, "beta_reg", lambda: scaled(distrib.beta_reg, 1.005),
     test_distrib.test_beta_reg_values),
    ("mellin-tail-dropped", distrib, "beta_semi_infinite",
     lambda: edited(distrib, "beta_semi_infinite", "cut, tail, spec", "cut, 0.0, spec"),
     test_distrib.test_mellin_forward_matches_closed_form),
    # The per-term loop reference reads _CONSECUTIVE_SMALL too, so the stop
    # rule is checked against mpmath instead.
    ("hyp2f1-stop-3-quiet", hyper, "_CONSECUTIVE_SMALL", lambda: 3,
     functools.partial(test_hyper.test_series_waits_out_a_quiet_stretch, 80.0)),
    ("hyp2f1-real-route-ignores-z-imag", hyper, "hyp2f1",
     lambda: edited(hyper, "hyp2f1", "or c.imag or z.imag", "or c.imag"),
     functools.partial(test_hyper.test_series_dtype_follows_the_arguments,
                       (0.5, 0.25, 2.0, 0.9 - 1e-9j), complex)),
    ("hyp2f1-real-ratio-reordered", hyper, "_ratios",
     lambda: edited(hyper, "_ratios", "(a + n) * (b + n) / ((c + n) * m) * z",
                    "(a + n) / (c + n) * (b + n) / m * z"),
     test_hyper.test_real_series_matches_loop),
    # A gap of exactly 50 loud indices holds 49 quiet terms, not 50.
    ("hyp2f1-stop-gap-off-by-one", hyper, "_stop_index",
     lambda: edited(hyper, "_stop_index", "loud[:-1] > _CONSECUTIVE_SMALL",
                    "loud[:-1] >= _CONSECUTIVE_SMALL"),
     functools.partial(test_hyper.test_stop_index_cases, *test_hyper.STOP_CASES["gap-50"])),
    ("hyp2f1-stop-drops-carried-last", hyper, "hyp2f1",
     lambda: edited(hyper, "hyp2f1", "last = (loud[-1] if loud.size else last) - len(n)",
                    "last = -1"),
     test_hyper.test_quiet_run_straddling_the_first_chunk_edge),
    ("hyp2f1-rel-tol-1e-6", hyper, "hyp2f1",
     lambda: edited(hyper, "hyp2f1", "rel_tol: float = 1e-13", "rel_tol: float = 1e-6"),
     test_hyper.test_series_matches_mpmath),
    # Every window keyed by the first rung: the first eps everywhere.
    ("pairings-first-eps-everywhere", distrib, "_pairing_ladder",
     lambda: edited(distrib, "_pairing_ladder", "[Window(k, ", "[Window(0, "),
     functools.partial(test_quad.test_ladder_rungs_are_the_pairings_at_each_eps,
                       "beta_reg", "gaussian", (-1.0, 1.0))),
    # Every node of a kernel call handed the call's first distinct eps.
    ("even-in-tau-first-eps", distrib, "_even_in_tau",
     lambda: edited(distrib, "_even_in_tau", "node(keys.real, keys.imag)",
                    "node(np.repeat(keys.real[:1], keys.size), keys.imag)"),
     functools.partial(test_distrib.test_kernels_at_one_eps_per_node_match_each_eps_alone,
                       "beta_reg")),
    # verify's ladder claims fit one rung short of _fit_sweep's window.
    ("fit-rungs-off-by-one", claims, "_fit_rungs",
     lambda: edited(claims, "_fit_rungs", "[-distrib._FIT_RUNGS:]",
                    "[-distrib._FIT_RUNGS + 1:]"),
     functools.partial(test_harness.test_read_rungs_give_the_full_ladder_verdicts, None)),
    # The judge lets the tolerance override reach a boolean check.
    ("judge-override-on-checks", claims, "_judge",
     lambda: edited(claims, "_judge", 'row.measured if row.form == "check" else dev <= ',
                    "dev <= "),
     test_harness.test_tolerance_override_cannot_pass_a_failed_boolean_check),
    # The ratio form read as absolute: E45's Q values at z = 1000 are 1e-3
    # and below, so ten tolerances of them stay inside one tolerance.
    ("judge-ratio-read-as-absolute", report, "_deviation",
     lambda: edited(report, "_deviation", "abs(m / r - 1.0)", "abs(m - r)"),
     test_harness.test_every_assert_claim_fails_on_a_planted_defect),
    # The quadrature route's phase nu^(i tau) taken as exp(i tau / ln nu).
    ("large-nu-phase-over-log", legendre, "asymptotic_large_nu",
     lambda: edited(legendre, "asymptotic_large_nu", "1j * t * log_nu", "1j * t / log_nu"),
     functools.partial(test_legendre.test_quadrature_large_nu_form_carries_the_phase, 0.5)),
    ("finite-edges-swapped", quad, "integrate_finite",
     lambda: edited(quad, "integrate_finite", "edges[sides](u)", "edges[1 - sides](u)"),
     test_quad.test_finite_is_one_ends_plan_seeded_in_one_call),
    # The lockstep pass (_adaptive): each integral's halves go back to its own heap,
    # every integral is bisected until it converges, and the first failure in
    # input order is the one raised.
    ("lockstep-halves-to-the-wrong-heap", quad, "_adaptive",
     lambda: edited(quad, "_adaptive", "zip(split, outs[::2], outs[1::2])",
                    "zip(split[::-1], outs[::2], outs[1::2])"),
     test_quad.test_batch_results_are_each_integral_alone),
    ("lockstep-stops-when-one-converges", quad, "_adaptive",
     lambda: edited(quad, "_adaptive", "live = [run for run, _, _ in split]",
                    "live = [run for run, _, _ in split] if len(split) == len(live) else []"),
     test_quad.test_batch_results_are_each_integral_alone),
    ("lockstep-raises-the-last-failure", quad, "_adaptive",
     lambda: edited(quad, "_adaptive", "for run in runs:\n        if run.failure",
                    "for run in runs[::-1]:\n        if run.failure"),
     test_quad.test_batch_raises_the_first_failure_in_input_order),
    # A node whose scalar twin has stopped keeps multiplying by its last z.
    ("log-gamma-one-shift-count", complexfn, "_log_gamma_right_array",
     lambda: edited(complexfn, "_log_gamma_right_array",
                    "np.copyto(pr, qr, where=live)\n            np.copyto(pi, qi, where=live)",
                    "pr, pi = qr, qi"),
     test_complexfn.test_log_gamma_array_at_one_x_per_node_matches_scalar_bit_for_bit),
    ("log-gamma-no-turns", complexfn, "_log_gamma_right",
     lambda: edited(complexfn, "_log_gamma_right", "acc.imag + math.tau * turns", "acc.imag"),
     test_complexfn.test_log_gamma_at_the_product_wrap_points_matches_mpmath),
    ("log-gamma-shift-ignores-imag", complexfn, "_log_gamma_right_array",
     lambda: edited(complexfn, "_log_gamma_right_array",
                    "(x < _SERIES_EDGE) & (np.abs(y) < _SERIES_EDGE)", "x < _SERIES_EDGE"),
     test_complexfn.test_log_gamma_past_the_shift_band_matches_mpmath),
    ("digamma-reflect-unreduced", complexfn, "digamma",
     lambda: edited(complexfn, "digamma", "_expm1c(_two_pi_i_frac(z))",
                    "_expm1c(2j * math.pi * z)"),
     functools.partial(test_complexfn.test_psi_functions_reflect_far_left, -1e17 + 0.5j)),
]

NUMPY_MUL_IS_CPYTHON = (numpy_mul_is_cpython, "numpy's complex * uses no FMA at this "
                        "dispatch level (as at the x86 baseline): it rounds as CPython's")
# Mutants that round as the original on some hosts: (equivalent here?, why).
EQUIVALENT_ON_SOME_HOSTS = {
    "cmul-numpy": NUMPY_MUL_IS_CPYTHON,
    "tail-numpy-mul": NUMPY_MUL_IS_CPYTHON,
    "panel-numpy-mul": NUMPY_MUL_IS_CPYTHON,
    "rx-real-ufunc": (real_ufuncs_are_libm, "numpy's real exp and expm1 call libm at this "
                      "dispatch level (as at X86_V3 and the x86 baseline)"),
    "mellin-grid-gemv": (gemv_rounds_rows_alone, "this host's BLAS kernel rounds a "
                         "matrix-vector row as that row alone, as a row sum does"),
}

# Every module that imported a mutated function or constant by name.
IMPORTERS = (complexfn, hyper, claims, distrib, legendre, quad, report,
             test_complexfn, test_distrib, test_hyper, test_legendre, test_quad)


@pytest.mark.parametrize("row", MUTANTS, ids=[row[0] for row in MUTANTS])
def test_mutant_is_killed_by_its_targeted_test(monkeypatch, request, row):
    mutant_id, owner, name, mutant, target = row
    equivalent, why = EQUIVALENT_ON_SOME_HOSTS.get(mutant_id, (lambda: False, ""))
    if equivalent():
        pytest.skip(f"equivalent here: {why}")
    # A targeted test's fixtures (the dispatch-level children) come unmutated.
    fixtures = {arg: request.getfixturevalue(arg) for arg in inspect.signature(target).parameters}
    original = getattr(owner, name)
    mutant = mutant()
    for module in IMPORTERS:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, mutant)
    with pytest.raises((AssertionError, RuntimeWarning)):
        target(**fixtures)
