"""Claim registry, CLI, config handling, and output determinism."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from weaklim import claims, cli, distrib, hyper, quad
from weaklim.claims import (
    _DELTA_INTERVALS,
    _GAUSS_SETS,
    REGISTRY,
    claim_ids,
    run_all,
    run_claim,
    sweep,
    sweep_choices,
)
from weaklim.complexfn import DomainError
from weaklim.config import RunConfig, build_run_config, load_config_file
from weaklim.distrib import PROBES, TWO_PI, EpsilonLadder
from weaklim.quad import QuadratureSpec
from weaklim.report import relation_grid_csv, verdicts_to_csv, verdicts_to_json

CLI = [sys.executable, "-m", "weaklim"]
SRC = Path(__file__).resolve().parent.parent / "src"
# The CLI child imports this checkout's weaklim, installed or not.
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
EXPECTED_VERIFY_ALL = (Path(__file__).resolve().parent.parent
                       / "bench" / "expected_verify_all.json")
# sha256 of the default verify-all JSON per numpy version.  The claim paths
# round through complexfn's kit (no real-dtype SIMD transcendental, no BLAS
# call), so the digest holds at every SIMD dispatch level and BLAS kernel of
# a numpy version and libm.  The (claim, point, status) triples are shared
# with the benchmark's record; the digest is pinned here, since the Mellin
# kernel's cosine form (E16), log_gamma's recurrence on the whole right half
# plane (E12, E21, E22, E25, E31), the closed-form tails of the half-line
# integrals (E03, E45, E47, E49, E53, E54), the end rule of the Euler
# integral (E04), the binomial tails summed over all terms at once (E03, E16),
# the kit's routes, the Mellin grid's move to the half-line Beta form on
# [0, ln 4] (E16) and log-gamma's one log of the shifted arguments' product
# (E03, E04, E12, E18, E21, E22, E25, E31, E45, E46, E47, E53, E54) moved
# last digits after that record was taken.
VERIFY_ALL_SHA256 = {
    "2.4.6": "d7dc4c0edf97ef7bbc300755066d9709e358dab85e1cde1f0c50e855e256b82f",
}
# OpenBLAS kernels other than this host's, one per level child in turn; the
# child at the lowest dispatched level (X86_V3 with numpy 2.4) takes Haswell,
# as on an AVX2-only host.
BLAS_CORETYPES = ("Haswell", "Sandybridge", "Prescott")


def dispatch_targets() -> list[str]:
    """numpy's SIMD dispatch targets that this process uses, lowest first."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]


def check_digest(text: str) -> None:
    """The pinned digest on a pinned numpy version; elsewhere print it for pinning."""
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    pin = VERIFY_ALL_SHA256.get(np.__version__)
    if pin is None:
        print(f"verify-all sha256 at numpy {np.__version__}: {digest} (not pinned)")
    else:
        assert digest == pin, f"digest at numpy {np.__version__}"


def verdict_triples(text: str) -> list:
    return [[v["claim"], v["point"], v["status"]] for v in json.loads(text)["verdicts"]]


def expected_triples() -> list:
    return json.loads(EXPECTED_VERIFY_ALL.read_text(encoding="utf-8"))["triples"]


def run_cli(*args, **kw):
    return subprocess.run([*CLI, *args], capture_output=True, text=True,
                          env=CLI_ENV, **kw)


# ----------------------------------------------------------------- registry

def test_registry_ids_unique_and_sorted():
    ids = claim_ids()
    assert len(ids) == len(set(ids))
    assert ids == sorted(ids)
    assert len(ids) >= 9


def test_registry_modes():
    by_id = {c.id: c for c in REGISTRY}
    assert by_id["E47-legendre-relation"].mode == "REPORT"
    assert by_id["E04-euler-beta"].mode == "ASSERT"


def test_run_claim_unknown_id():
    with pytest.raises(KeyError):
        run_claim("E99-not-a-claim")


def test_run_claim_e04_all_pass():
    verdicts = run_claim("E04-euler-beta")
    assert len(verdicts) == 12
    assert all(v.status == "PASS" for v in verdicts)
    assert all(v.deviation <= 1e-9 for v in verdicts)


# Integrals, integrand calls and nodes of each claim that integrates, in one
# run_all().  Each claim's grid of integrals is one lockstep batch with one
# integrand: one call for the initial panels and one per round of bisection.
# Each integral is taken once per claim: E17's limit check reads the ladder's
# eps = 1e-4 rung, and E53's relation reads its law's Q_1(1 + 1e-6).  The
# ladder claims (E12, E16, E31) integrate only the rungs their verdicts read.
CLAIM_INTEGRAND_CALLS = {
    "E03-beta-substitution": (6, 6, 186),
    "E04-euler-beta": (12, 3, 1240),
    "E12-beta-delta": (12, 1, 3410),
    "E16-mellin-forward": (4, 1, 2232),
    "E17-mellin-inverse": (9, 4, 10261),
    "E31-weak-limit-2f1": (8, 1, 2356),
    "E35-oscillatory": (6, 2, 10478),
    "E45-large-z-asym": (3, 1, 93),
    "E47-legendre-exact": (12, 2, 496),
    "E47-legendre-relation": (36, 2, 1767),
    "E49-large-nu-asym": (1, 4, 217),
    "E53-near-one": (2, 2, 186),
    "E54-power-slope": (6, 3, 620),
}


def test_integrand_calls_per_claim(monkeypatch):
    # Counted at quad's lockstep pass, one _adaptive entry per integral, and
    # at its panel evaluation, one _panels call per integrand call.
    counts = {}
    adaptive, panels = quad._adaptive, quad._panels

    def count(integrals=0, calls=0, nodes=0):
        counts[claim] = tuple(map(sum, zip(counts.get(claim, (0, 0, 0)),
                                           (integrals, calls, nodes))))

    def counted_adaptive(g, batch):
        count(integrals=len(batch))
        return adaptive(g, batch)

    def counted_panels(g, spans):
        count(calls=1, nodes=31 * len(spans))
        return panels(g, spans)

    monkeypatch.setattr(quad, "_adaptive", counted_adaptive)
    monkeypatch.setattr(quad, "_panels", counted_panels)
    for claim in claim_ids():
        run_claim(claim)
    assert counts == CLAIM_INTEGRAND_CALLS
    assert sum(integrals for integrals, _, _ in counts.values()) == 117
    assert sum(calls for _, calls, _ in counts.values()) == 32
    assert sum(nodes for _, _, nodes in counts.values()) == 33542


def test_report_claim_never_fails():
    verdicts = run_claim("E47-legendre-relation")
    assert len(verdicts) == 27
    assert all(v.status == "REPORTED" for v in verdicts)
    assert any(v.deviation > 1e-3 for v in verdicts)  # real measured deviations


def test_tolerance_override_forces_failure():
    cfg = RunConfig()
    cfg.tol_overrides["E04-euler-beta"] = 1e-30
    verdicts = run_claim("E04-euler-beta", cfg)
    assert any(v.status == "FAIL" for v in verdicts)


def test_tolerance_override_cannot_pass_a_failed_boolean_check(monkeypatch, tmp_path):
    # E12's fitted orders forced negative make its check=order>0 sub-checks
    # fail; --tol 2 exceeds their deviation 1.0 but must not pass them.
    ladder_fn = distrib._pairing_ladder
    monkeypatch.setattr(distrib, "_pairing_ladder", lambda *args: [
        dataclasses.replace(res, fitted_order=-1.0) for res in ladder_fn(*args)])
    out = tmp_path / "e12.json"
    assert cli.main(["verify", "E12-beta-delta", "--tol", "2", "--out", str(out)]) == 1
    checks = [v for v in json.loads(out.read_text(encoding="utf-8"))["verdicts"]
              if v["point"].endswith(";check=order>0")]
    assert len(checks) == 2 and all(v["status"] == "FAIL" for v in checks)


@pytest.fixture(scope="module")
def summary():
    """One in-process run_all() at this process's dispatch level."""
    return run_all()


def test_every_claim_in_summary_once(summary):
    assert [r["claim"] for r in summary.rows] == claim_ids()
    assert summary.exit_status == 0
    assert sum(r["failures"] for r in summary.rows) == 0
    # The verify-all JSON is pinned digit for digit, and its verdicts match
    # the benchmark's recorded (claim, point, status) triples.
    text = verdicts_to_json(summary.verdicts, summary.summary_dict())
    assert verdict_triples(text) == expected_triples()
    check_digest(text)


def test_verify_all_at_every_lower_dispatch_level(summary, dispatch_children):
    # verify-all in a child process at each numpy SIMD level below this
    # process's own that the host can emulate, on an x86-64 host with AVX2
    # each with another OpenBLAS kernel: the bytes of this process's JSON.
    text = verdicts_to_json(summary.verdicts, summary.summary_dict())
    for config, child in dispatch_children.items():
        assert child.returncode == 0, (config, child.stderr)
        assert child.verify_all == text, config


def test_short_ladder_named_error(capsys):
    cfg = RunConfig(eps_ladder=EpsilonLadder((1e-1, 1e-2)))
    with pytest.raises(DomainError, match="at least 3 ladder values"):
        run_claim("E31-weak-limit-2f1", cfg)
    assert cli.main(["verify", "E31-weak-limit-2f1",
                     "--eps-ladder", "1e-1,1e-2"]) == 2
    assert "at least 3 ladder values" in capsys.readouterr().err


# Ladders at which verify's read rungs must give the full ladder's verdicts.
READ_RUNG_LADDERS = {
    "default": None,
    "3-rungs": (1e-1, 1e-2, 1e-3),
    # E31's rung nearest 1e-4 is the fourth, before the trailing four.
    "8-rungs": (1e-2, 3e-3, 1e-3, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6),
    "20-rungs": tuple(10.0 ** (-1.0 - 0.2 * k) for k in range(20)),
}


def full_ladder_verdicts(claim_id: str, cfg: RunConfig) -> list:
    """A ladder claim's verdicts from its public sweeps over the whole ladder,
    by its runner's formulas."""
    claim = {c.id: c for c in REGISTRY}[claim_id]
    probe, ladder = PROBES[cfg.probe], cfg.ladder()
    verdict = lambda point, dev, res: claims._verdict(
        claim, cfg, point, dev, claim.tolerance, order=res.fitted_order)
    out = []
    if claim_id == "E12-beta-delta":
        for a, b in _DELTA_INTERVALS:
            res = distrib.delta_claim_sweep(probe, (a, b), ladder)
            target = distrib.delta_target(probe, a, b)
            point = f"interval=[{a:g},{b:g}];probe={cfg.probe}"
            out.append(verdict(point, abs(res.extrapolated_limit - target) / TWO_PI, res))
            if target != 0.0:
                out.append(claims._check(claim, point + ";check=order>0",
                                         res.fitted_order > 0.0, res.fitted_order))
    elif claim_id == "E16-mellin-forward":
        res = distrib.mellin_forward_sweep(probe, (-1.0, 1.0), ladder)
        dev = abs(res.extrapolated_limit - TWO_PI * probe.value_at_zero) / TWO_PI
        out.append(verdict(f"interval=[-1,1];probe={cfg.probe}", dev, res))
    else:
        res = hyper.family_weak_limit_sweep(probe, (-1.0, 1.0), ladder)
        mags, eps = res.magnitudes(), ladder.values
        idx = min(range(len(eps)), key=lambda i: abs(math.log10(eps[i] / 1e-4)))
        point = f"interval=[-1,1];probe={cfg.probe}"
        out.append(verdict(point + f";eps={eps[idx]:.6g}", mags[idx], res))
        out.append(claims._check(claim, point + ";check=decreasing",
                                 mags[-3] > mags[-2] > mags[-1]))
        excl = hyper.family_weak_limit_sweep(PROBES["const"], (1.0, 2.0), ladder)
        out.append(verdict("interval=[1,2];probe=const", abs(excl.extrapolated_limit), excl))
    return out


@pytest.mark.parametrize("ladder", list(READ_RUNG_LADDERS.values()), ids=list(READ_RUNG_LADDERS))
def test_read_rungs_give_the_full_ladder_verdicts(ladder):
    # E12, E16 and E31 integrate only the rungs their verdicts read, E12's
    # intervals and E31's two ladders in one batch each: the verdict records
    # are those of the full-ladder sweeps, digit for digit.
    cfg = RunConfig(eps_ladder=ladder and EpsilonLadder(ladder))
    for claim_id in ("E12-beta-delta", "E16-mellin-forward", "E31-weak-limit-2f1"):
        got, want = run_claim(claim_id, cfg), full_ladder_verdicts(claim_id, cfg)
        assert repr(got) == repr(want), claim_id
        assert [v.as_record() for v in got] == [v.as_record() for v in want], claim_id


# ------------------------------------------------------------------- config

def test_config_file_roundtrip(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "probe = cauchy\n"
        "format = csv   # trailing comment\n"
        "eps_ladder = 1e-1,1e-2,1e-3\n"
        "tol.E04-euler-beta = 1e-6\n",
        encoding="utf-8",
    )
    cfg = build_run_config(load_config_file(str(p)), {})
    assert cfg.probe == "cauchy"
    assert cfg.format == "csv"
    assert cfg.ladder().values == (1e-1, 1e-2, 1e-3)
    assert cfg.tolerance_for("E04-euler-beta", 1e-9) == 1e-6
    assert cfg.tolerance_for("E03-beta-substitution", 1e-9) == 1e-9


def test_config_unknown_key_rejected(tmp_path):
    p = tmp_path / "bad.cfg"
    for line in ("probes = gaussian\n", "parallel = true\n"):
        p.write_text(line, encoding="utf-8")
        with pytest.raises(DomainError):
            load_config_file(str(p))


def test_flags_beat_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("probe = cauchy\nformat = md\n", encoding="utf-8")
    cfg = build_run_config(load_config_file(str(p)),
                           {"probe": "gaussian", "format": None})
    assert cfg.probe == "gaussian"  # flag wins
    assert cfg.format == "md"       # None flag defers to file


def test_config_validation():
    with pytest.raises(DomainError):
        RunConfig(format="yaml")
    with pytest.raises(DomainError):
        RunConfig(probe="spline")
    with pytest.raises(DomainError):
        build_run_config({}, {"tol": "-1"})
    with pytest.raises(DomainError):
        build_run_config({"tol.E46-eta-solver": "-1"}, {})


# ------------------------------------------------------------------ reports

def test_verdict_json_schema():
    verdicts = run_claim("E46-eta-solver")
    payload = json.loads(verdicts_to_json(verdicts))
    assert list(payload) == ["verdicts"]
    rec = payload["verdicts"][0]
    assert list(rec) == ["claim", "point", "deviation", "order", "status",
                         "runtime_ms"]
    assert rec["runtime_ms"] == 0
    float(rec["deviation"])  # parses


def test_verdict_csv_header():
    verdicts = run_claim("E46-eta-solver")
    text = verdicts_to_csv(verdicts)
    assert text.splitlines()[0] == "claim,point,deviation,order,status,runtime_ms"


def test_relation_grid_schema():
    verdicts = run_claim("E47-legendre-relation")
    text = relation_grid_csv(verdicts)
    lines = text.splitlines()
    assert lines[0] == ("nu_re,nu_im,tau,z_re,z_im,"
                        "lhs_re,lhs_im,rhs_re,rhs_im,rel_dev")
    assert len(lines) == 1 + 27


# ------------------------------------------------------------------- sweeps

def test_eps_sweep_rows():
    name, rows = sweep("eps", "E31-weak-limit-2f1")
    assert name == "epsilon"
    assert len(rows) == 9
    mags = [abs(v) for (_, v, _, _) in rows]
    assert mags[-3] > mags[-2] > mags[-1]


def test_z_sweep_near_one_ratio_column():
    name, rows = sweep("z", "E53-near-one")
    assert name == "z_minus_one"
    ratios = [v.real for (_, v, _, _) in rows]
    # The leading-log ratio climbs toward 1 as z - 1 falls.
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert 0.9 < ratios[-1] < 1.0
    # Each ratio's stated error is the q_nu quadrature's relative contract.
    assert [e for (_, _, e, _) in rows] == [QuadratureSpec().rel_tol * r for r in ratios]


def test_nu_sweep_ratio_rows():
    name, rows = sweep("nu", "E49-large-nu-asym")
    assert name == "nu"
    assert [p for (p, _, _, _) in rows] == [10.0, 50.0, 250.0]
    devs = [d for (_, _, _, d) in rows]
    assert devs[0] > devs[-1]  # approaching the kernel-width constant
    assert [e for (_, _, e, _) in rows] == [QuadratureSpec().rel_tol * abs(v)
                                            for (_, v, _, _) in rows]


def test_sweep_choices_are_the_claims_own():
    assert sweep_choices() == {
        "eps": ["E12-beta-delta", "E16-mellin-forward", "E17-mellin-inverse",
                "E31-weak-limit-2f1"],
        "z": ["E35-oscillatory", "E53-near-one"],
        "nu": ["E49-large-nu-asym"],
    }


def test_sweep_rejects_mismatched_kind():
    with pytest.raises(KeyError):
        sweep("eps", "E45-large-z-asym")
    with pytest.raises(KeyError):
        sweep("orbit", "E31-weak-limit-2f1")


# ---------------------------------------------------------------------- CLI

def test_cli_eval_gamma():
    r = run_cli("eval", "gamma", "z=0.5")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert abs(float(payload["value"]["re"]) - math.sqrt(math.pi)) <= 1e-12


def test_cli_eval_q_nu():
    r = run_cli("eval", "q_nu", "nu=0", "z=2")
    payload = json.loads(r.stdout)
    assert abs(float(payload["value"]["re"]) - 0.5 * math.log(3.0)) <= 1e-8


def test_cli_eval_unknown_function():
    r = run_cli("eval", "zeta", "s=2")
    assert r.returncode == 2
    assert "unknown function" in r.stderr


def test_cli_eval_bad_parameter():
    r = run_cli("eval", "gamma", "z=half")
    assert r.returncode == 2
    assert "cannot parse" in r.stderr
    r = run_cli("eval", "gamma", "w=1")
    assert r.returncode == 2


def test_cli_verify_single_claim(tmp_path):
    out = tmp_path / "e04.json"
    r = run_cli("verify", "E04-euler-beta", "--out", str(out))
    assert r.returncode == 0
    payload = json.loads(out.read_text())
    assert len(payload["verdicts"]) == 12


def test_cli_verify_unknown_claim():
    r = run_cli("verify", "E99-nope")
    assert r.returncode == 2


def test_cli_forced_failure_exit_status():
    r = run_cli("verify", "E04-euler-beta", "--tol", "1e-30")
    assert r.returncode == 1


@pytest.mark.parametrize("claim_id, mode", [
    ("E04-euler-beta", "ASSERT"),
    ("E47-legendre-relation", "REPORT"),
])
def test_cli_verify_md_mode_column(claim_id, mode, capsys):
    # The single-claim table is built by the same row code as verify-all's.
    assert cli.main(["verify", claim_id, "--format", "md"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith(f"| {claim_id} |")]
    assert len(rows) == 1
    assert rows[0].split(" | ")[1] == mode


def test_cli_e47_csv_grid(tmp_path):
    out = tmp_path / "e47.csv"
    r = run_cli("verify", "E47-legendre-relation", "--format", "csv",
                "--out", str(out))
    assert r.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("nu_re,nu_im,tau,")
    assert len(lines) == 28


def test_cli_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    r = run_cli("sweep", "eps", "E12-beta-delta", "--eps-ladder",
                "1e-1,1e-2,1e-3", "--out", str(out))
    assert r.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "epsilon,re,im,err_estimate,deviation"
    assert len(lines) == 4


# sha256 of `weaklim sweep eps <claim>` at the default ladder per numpy
# version: the bytes from before verify took only the rungs it reads.
SWEEP_SHA256 = {
    "2.4.6": {
        "E12-beta-delta": "f9cd42b4105d3984f519eb0f2e502d60da7610a59bc19bf8f40b561544897754",
        "E16-mellin-forward": "3ff9c710c965329beccd10d2df5bc94af50d431a2f93b19e36edf18fce8915bb",
        "E31-weak-limit-2f1": "932f73a256112f1ebf49f57d788dc0d562f6458fcb815943759184ef561dbb16",
    },
}


@pytest.mark.parametrize("claim_id", ["E12-beta-delta", "E16-mellin-forward",
                                      "E31-weak-limit-2f1"])
def test_sweeps_keep_every_rung(claim_id, capsys):
    # verify reads a ladder claim's trailing rungs only; sweep prints them all.
    assert cli.main(["sweep", "eps", claim_id]) == 0
    text = capsys.readouterr().out
    assert len(text.splitlines()) == 1 + len(EpsilonLadder.default().values) == 10
    pin = SWEEP_SHA256.get(np.__version__)
    if pin is None:
        print(f"{claim_id} sweep sha256 at numpy {np.__version__}: "
              f"{hashlib.sha256(text.encode()).hexdigest()} (not pinned)")
    else:
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == pin[claim_id]
    assert cli.main(["sweep", "eps", claim_id, "--eps-ladder", "1e-1,1e-2,1e-3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [float(line.split(",")[0]) for line in lines[1:]] == [1e-1, 1e-2, 1e-3]


@pytest.mark.parametrize("kind, claim_id", [(kind, claim_id)
                                            for kind, ids in sweep_choices().items()
                                            for claim_id in ids])
@pytest.mark.parametrize("text", [",", ""])
def test_cli_sweep_empty_ladder_exits_2(kind, claim_id, text, capsys):
    # Only a missing --eps-ladder means the claim's default ladder.
    assert cli.main(["sweep", kind, claim_id, "--eps-ladder", text]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(DomainError, match="got no values"):
        sweep(kind, claim_id, ladder=())


@pytest.mark.parametrize("nu", ["536", "700", "1e6"])
def test_cli_sweep_large_nu_past_underflow_exits_2(nu, capsys):
    # Past nu = 535 both large-degree forms of Q_nu(2) have left the normal
    # doubles (at 700 both are 0): a named error, not a division by zero.
    assert cli.main(["sweep", "nu", "E49-large-nu-asym", "--eps-ladder", nu]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "underflowed" in err
    assert cli.main(["sweep", "nu", "E49-large-nu-asym", "--eps-ladder", "500"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and out[1].startswith("5.0000000000000000e+02,9.51")


def test_cli_config_unknown_key(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("frobnicate = 1\n", encoding="utf-8")
    r = run_cli("verify", "E46-eta-solver", "--config", str(p))
    assert r.returncode == 2


# One fixed point per eval-table entry.
_EVAL_POINTS = {
    "gamma": ["z=0.5"],
    "log_gamma": ["z=0.5+1i"],
    "digamma": ["z=1.5"],
    "trigamma": ["z=2"],
    "beta": ["alpha=1.5", "beta=2"],
    "beta_reg": ["tau=0.5", "eps=0.1"],
    "omega_eps": ["x=0.1", "eps=0.01"],
    "hyp2f1": ["a=0.5", "b=1", "c=2", "z=0.5"],
    "gauss_sum": ["a=0.5", "b=1", "c=3"],
    "family_closed_form": ["tau=0.5", "eps=0.1"],
    "f_factor": ["eps=0.1", "tau=0.5"],
    "mellin_forward": ["tau=0.5", "eps=0.1"],
    "mellin_inverse": ["t=2", "eps=0.1"],
    "q_nu": ["nu=0", "z=2"],
    "q_nu_mu": ["nu=1", "mu=0.5", "z=2"],
    "q_nu_itau": ["nu=0", "tau=1", "z=2"],
    "relation_rhs": ["nu=1", "tau=0.5", "z=2"],
    "solve_eta": ["nu=0", "tau=1"],
}


def test_cli_eval_every_entry(capsys):
    assert sorted(_EVAL_POINTS) == sorted(cli._EVALS)
    for name, params in _EVAL_POINTS.items():
        assert cli.main(["eval", name, *params]) == 0, name
        payload = json.loads(capsys.readouterr().out)
        if name == "solve_eta":
            keys = ["function", "eta", "cos_value", "branch_index",
                    "degenerate"]
        else:
            keys = ["function", "value", "error_estimate"]
            assert list(payload["value"]) == ["re", "im"]
        assert list(payload) == keys
        assert payload["function"] == name


# name -> (relative, absolute) error estimate that `weaklim eval` states.  A
# closed form built from k log-gamma terms states k times the gamma contract.
_EVAL_ESTIMATES = {
    "gamma": (1e-12, 0.0),
    "log_gamma": (0.0, 1e-12),  # absolute on the log
    "digamma": (1e-10, 0.0),
    "trigamma": (1e-8, 0.0),
    "beta": (3e-12, 0.0),
    "beta_reg": (3e-12, 0.0),
    "omega_eps": (0.0, 0.0),
    "hyp2f1": (1e-12, 0.0),  # at |z| = 0.5; near |z| = 1 it grows, as tested below
    "gauss_sum": (4e-12, 0.0),
    "family_closed_form": (4e-12, 0.0),
    "f_factor": (3e-12, 0.0),
    "mellin_forward": (0.0, 1e-9),
    "mellin_inverse": (0.0, 1e-9),
    "q_nu": (0.0, 1e-10),
    "q_nu_mu": (0.0, 1e-10),
    "q_nu_itau": (0.0, 1e-10),
    "relation_rhs": (0.0, 1e-10),
}


def test_cli_eval_error_estimates(capsys):
    assert sorted(_EVAL_ESTIMATES) == sorted(set(cli._EVALS) - {"solve_eta"})
    for name, (rel, absolute) in _EVAL_ESTIMATES.items():
        assert cli.main(["eval", name, *_EVAL_POINTS[name]]) == 0, name
        payload = json.loads(capsys.readouterr().out)
        value = abs(complex(float(payload["value"]["re"]), float(payload["value"]["im"])))
        want = rel * value + absolute
        assert float(payload["error_estimate"]) == pytest.approx(want, rel=1e-12, abs=0.0), name


@pytest.mark.parametrize("z", [1.0 - 1e-3, 1.0 - 1e-4])
@pytest.mark.parametrize("a, b, c", _GAUSS_SETS)
def test_cli_hyp2f1_estimate_bounds_the_miss_near_the_unit_circle(capsys, a, b, c, z):
    # E18's points, where the stop rule's tail leaves 7e-11 (z = 1 - 1e-3)
    # and 8e-10 (z = 1 - 1e-4) of the value: stated as 2 rel_tol / (1 - |z|).
    assert cli.main(["eval", "hyp2f1", f"a={a!r}", f"b={b!r}", f"c={c!r}", f"z={z!r}"]) == 0
    payload = json.loads(capsys.readouterr().out)
    got = complex(float(payload["value"]["re"]), float(payload["value"]["im"]))
    with mpmath.workdps(30):
        want = complex(mpmath.hyp2f1(a, b, c, z))
    estimate = float(payload["error_estimate"])
    assert estimate == pytest.approx(2e-13 / (1.0 - z) * abs(got), rel=1e-12, abs=0.0)
    assert abs(got - want) <= estimate


@pytest.mark.parametrize("argv, says", [
    (["eval", "mellin_forward", "tau=1e4", "eps=0.1"], "subdivision budget"),
    (["eval", "hyp2f1", "a=1000i", "b=1", "c=1", "z=0.9"], "not finite"),
    (["sweep", "eps", "E12-beta-delta", "--eps-ladder", "1e-1,x"], "'x'"),
    (["verify", "E12-beta-delta", "--eps-ladder", "inf,1e-2,1e-3"],
     "ladder values finite"),
    (["eval", "gamma", "z=nan"], "not finite"),
    (["eval", "beta_reg", "tau=nan", "eps=0.1"], "not finite"),
    (["eval", "hyp2f1", "a=nan", "b=1", "c=2", "z=0.5"], "a = (nan+0j) is not finite"),
    (["eval", "omega_eps", "x=nan", "eps=0.1"], "NaN x"),
    (["eval", "mellin_inverse", "t=inf", "eps=0.1"], "0 < t < inf"),
    (["eval", "omega_eps", "x=1", "eps=inf"], "0 < eps < inf"),
], ids=["convergence", "series", "sweep-ladder", "infinite-ladder",
        "nan-gamma", "nan-beta-reg", "nan-hyp2f1", "nan-omega-eps",
        "inf-mellin-inverse", "inf-omega-eps"])
def test_cli_library_error_exits_2(argv, says, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and says in err


@pytest.mark.parametrize("eps", ["1e100", "1e200", "inf"])
def test_cli_mellin_inverse_eps_past_double_range_exits_2(eps, capsys):
    # The window, omega_eps on it or the tail by parts leaves double range:
    # a named DomainError, not a traceback or a NaN value.
    assert cli.main(["eval", "mellin_inverse", "t=2", f"eps={eps}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("double range" in err or "not finite" in err)


@pytest.mark.parametrize("text, value", [
    ("1+2i", 1 + 2j), ("-0.5i", -0.5j), ("1000i", 1000j), ("(1-2i)", 1 - 2j),
    ("inf", math.inf), ("-inf", -math.inf), ("2.5", 2.5),
])
def test_cli_maps_only_the_imaginary_unit(text, value):
    assert cli._parse_params([f"z={text}"], ["z"]) == [value]


@pytest.mark.parametrize("line", [
    "tol = small",
    "tol.E46-eta-solver = x",
    "tol.E46-eta-solver = -1",
    "tol.E99-nope = 1e-3",
], ids=["tol-text", "claim-tol-text", "claim-tol-negative", "claim-unknown"])
def test_cli_config_tolerance_rejected(tmp_path, capsys, line):
    p = tmp_path / "run.cfg"
    p.write_text(line + "\n", encoding="utf-8")
    assert cli.main(["verify", "E46-eta-solver", "--config", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
