"""Mutation catalog: each planted defect fails a named, targeted test.

A row plants one mutant in place of a library function, by a copy of its
source with one edit or by a stand-in, and runs only the test that must kill
it: never the verify-all digest pin, which every legitimate last-digit change
re-pins.  A kill is a failed assertion, or a RuntimeWarning, which the suite
treats as an error.

Equivalent mutants give the same bits and are left out: _cdiv's tie rule
written ``>=`` (a tie's ratio is +-1 on either branch), and _cmul's
``ar * bi + ai * br`` with its operands swapped (IEEE addition commutes).
"""

import functools
import inspect

import numpy as np
import pytest

import test_complexfn
import test_hyper
from weaklim import complexfn, hyper


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


def numpy_mul_is_cpython() -> bool:
    """numpy's complex * rounds as the kit on the kit's operands (no FMA here)."""
    ops = test_complexfn._kit_operands()
    return all(map(np.array_equal, numpy_mul(*ops), complexfn._cmul(*ops)))


# (id, kit function, mutant factory, targeted test)
MUTANTS = [
    ("cdiv-numpy", "_cdiv", lambda: numpy_div, test_complexfn.test_kit_rounds_as_cpython),
    ("cdiv-branch-inverted", "_cdiv",
     lambda: edited(complexfn, "_cdiv", "np.abs(bi) > np.abs(br)", "np.abs(bi) <= np.abs(br)"),
     # its smith-imag-branch-mid-chunk case: |Im d| > |Re d| for 28.5 < n < 32.5
     functools.partial(test_hyper.test_chunked_series_matches_loop,
                       (3.0 + 1j, 2.0 - 1j, -30.5 + 2j, -0.6 + 0.5j))),
    ("cdiv-swap-not-negated", "_cdiv",
     lambda: edited(complexfn, "_cdiv", "np.negative(im, out=im, where=swap)", "im"),
     # its smith-imag-branch case: |Im d| > |Re d| for n < 19.5
     functools.partial(test_hyper.test_chunked_series_matches_loop,
                       (1.5 + 0.5j, -2.25 + 1j, 0.5 + 20j, 0.7 + 0.2j))),
    ("cmul-numpy", "_cmul", lambda: numpy_mul, test_complexfn.test_kit_rounds_as_cpython),
]


@pytest.mark.parametrize("name, mutant, target", [row[1:] for row in MUTANTS],
                         ids=[row[0] for row in MUTANTS])
def test_mutant_is_killed_by_its_targeted_test(monkeypatch, name, mutant, target):
    if name == "_cmul" and numpy_mul_is_cpython():
        pytest.skip("numpy's complex * uses no FMA at this dispatch level (as at "
                    "the x86 baseline): it rounds as CPython's, so the mutant is equivalent")
    original = getattr(complexfn, name)
    mutant = mutant()
    for module in (complexfn, hyper):  # hyper imported the kit by name
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, mutant)
    with pytest.raises((AssertionError, RuntimeWarning)):
        target()
