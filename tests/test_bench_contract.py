"""The benchmark's instrumentation still reaches the library names it patches.

``bench/spans.py`` finds its targets by name: the ``integrate_*`` entry
points, ``hyper.hyp2f1``, ``Claim.run`` and each layer module's ``__all__``.
A renamed or deleted name would make a traced run count nothing.
"""

from pathlib import Path

import pytest

from weaklim import claims

BENCH = Path(__file__).resolve().parent.parent / "bench"
CLAIM = "E03-beta-substitution"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans as module
    return module


def test_tracer_counts_layer_calls(spans):
    tracer = spans.Tracer()
    with tracer.installed():
        verdicts = claims.run_claim(CLAIM)
    counts = tracer.summary([CLAIM])["counts"]
    assert verdicts
    assert counts["quad.integrals"] > 0
    assert counts["quad.integrand_calls"] > 0
    assert counts["complexfn.calls"] > 0
    assert [s[4] for s in tracer.spans if s[3] == "claim"] == [CLAIM]


def test_checkpoints_mark_integrands_and_claims(spans):
    marks = spans.Checkpoints()
    with marks.installed():
        claims.run_claim(CLAIM)
    # One mark per integrand call and one for Claim.run at least.
    assert len(marks.marks) > 1



def _marks(spans, run) -> int:
    marks = spans.Checkpoints()
    with marks.installed():
        run()
    return len(marks.marks)


def test_checkpoint_marks_of_a_verify_all_pass(spans):
    # The segmented verify_all latency is summed over these marks: 18 Claim.run,
    # 10 hyp2f1 (E18's) and 6 integrand calls (E03's) per run_all() pass.
    assert _marks(spans, claims.run_all) == 34
    per_claim = {c: _marks(spans, lambda: claims.run_claim(c)) for c in claims.claim_ids()}
    assert {c: n for c, n in per_claim.items() if n > 1} == {
        "E03-beta-substitution": 1 + 6, "E18-gauss-summation": 1 + 10}
    assert len(per_claim) == 18


def test_checkpoint_marks_of_a_finite_integral(spans):
    # One mark per edge call of the bench's Beta integral: the seed calls each
    # edge once, then each round of bisection calls one of them.
    import workloads
    assert _marks(spans, lambda: workloads._beta_integral(0.5 + 1j, 1.5 - 0.5j)) == 3
    assert _marks(spans, lambda: workloads._beta_integral(1.0 + 0j, 1.0 + 0j)) == 2
