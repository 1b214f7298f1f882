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
