"""Acceptance suite: one test per stated criterion, at stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one [PASS]/[FAIL]
line per criterion with the measured numbers.

Two sub-criteria are asserted at their stated tolerances and are expected to
fail, because the leading-order laws they probe genuinely miss those bands
(the measured gaps are frozen in tests/test_legendre.py and the deviations
ledger): the explicit large-degree form at nu = 50, z = 2 sits ~5.5% from
quadrature (stated band 3%), and the leading-logarithm law at z - 1 = 1e-6
sits 4.8% / 10.4% from Q_0 / Q_1 (stated band 2%).  They are left red on
purpose; the claim registry documents the measured bands instead.
"""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from weaklim.claims import run_claim
from weaklim.complexfn import log_gamma
from weaklim.distrib import (
    PROBES,
    EpsilonLadder,
    delta_claim_sweep,
    mellin_forward_sweep,
    mellin_inverse_check,
)
from weaklim.hyper import (
    family_weak_limit_sweep,
    gauss_sum,
    hyp2f1,
    oscillatory_limit_sweep,
)
from weaklim.legendre import (
    asymptotic_large_nu,
    near_one_laws,
    q_nu,
    q_nu_mu,
    solve_eta,
)

TWO_PI = 2.0 * math.pi
SQRT_PI = math.sqrt(math.pi)
CLI = [sys.executable, "-m", "weaklim"]
SRC = Path(__file__).resolve().parent.parent / "src"
# The CLI child imports this checkout's weaklim, installed or not.
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}


def run_cli(*args):
    return subprocess.run([*CLI, *args], capture_output=True, text=True,
                          env=CLI_ENV)


def check(label: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}", flush=True)
    assert ok, f"{label}: {detail}"


# --------------------------------------------------------------- criterion 1

def test_criterion_01_euler_formula():
    verdicts = run_claim("E04-euler-beta")
    worst = max(v.deviation for v in verdicts)
    check("criterion 1 (Euler formula, 12-point grid, 1e-9)",
          worst <= 1e-9, f"max relative deviation {worst:.3e}")


# --------------------------------------------------------------- criterion 2

def test_criterion_02_half_line_representation():
    verdicts = run_claim("E03-beta-substitution")
    worst = max(v.deviation for v in verdicts)
    check("criterion 2 (half-line Beta representation, 6 points, 1e-9)",
          worst <= 1e-9, f"max relative deviation {worst:.3e}")


# --------------------------------------------------------------- criterion 3

@pytest.fixture(scope="module")
def delta_sweeps():
    g = PROBES["gaussian"]
    return (delta_claim_sweep(g, (-1.0, 1.0)),
            delta_claim_sweep(g, (0.0, 1.0)))


def test_criterion_03_delta_identity(delta_sweeps):
    interior, endpoint = delta_sweeps
    dev_i = abs(interior.extrapolated_limit - TWO_PI) / TWO_PI
    dev_e = abs(endpoint.extrapolated_limit - math.pi) / math.pi
    ok = dev_i <= 0.01 and interior.fitted_order > 0.0 and dev_e <= 0.01
    check("criterion 3 (delta identity: 2 pi, order > 0, endpoint pi)",
          ok,
          f"interior dev {dev_i:.2e}, order {interior.fitted_order:.3f}, "
          f"endpoint dev {dev_e:.2e}")


# --------------------------------------------------------------- criterion 4

def test_criterion_04_mellin_pair():
    fwd = mellin_forward_sweep(PROBES["gaussian"], (-1.0, 1.0))
    dev_fwd = abs(fwd.extrapolated_limit - TWO_PI) / TWO_PI
    worst_inv = max(
        abs(mellin_inverse_check(math.e, eps) - math.exp(-eps))
        for eps in EpsilonLadder.default().values
    )
    dev_lim = abs(mellin_inverse_check(math.e, 1e-4) - 1.0)
    ok = dev_fwd <= 0.01 and worst_inv <= 1e-8 and dev_lim <= 1e-4
    check("criterion 4 (Mellin pair: forward 2 pi, inverse exp(-eps), limit 1)",
          ok,
          f"forward dev {dev_fwd:.2e}, inverse worst {worst_inv:.2e}, "
          f"limit dev {dev_lim:.2e}")


# --------------------------------------------------------------- criterion 5

def test_criterion_05_gauss_summation():
    sets = ((1, 1, 3), (0.5, 0.25, 2), (2, 1, 4.5), (0.5, 1, 3),
            (1.5, 0.5, 3.25))
    worst = 0.0
    monotone = True
    for (a, b, c) in sets:
        cf = gauss_sum(a, b, c)
        d3 = abs(hyp2f1(a, b, c, 1 - 1e-3) - cf) / abs(cf)
        d4 = abs(hyp2f1(a, b, c, 1 - 1e-4) - cf) / abs(cf)
        worst = max(worst, d3)
        monotone = monotone and d4 < d3
    check("criterion 5 (Gauss summation: 5 sets, 1e-2, improving)",
          worst <= 1e-2 and monotone,
          f"max deviation {worst:.2e}, improvement everywhere: {monotone}")


# --------------------------------------------------------------- criterion 6

def test_criterion_06_duplication_pathway():
    worst = max(v.deviation for v in run_claim("E21-duplication-form"))
    check("criterion 6 (gamma-product vs duplication route, 1e-10)",
          worst <= 1e-10, f"max relative residual {worst:.3e}")


# --------------------------------------------------------------- criterion 7

def test_criterion_07_factorization_and_taylor():
    worst_fact = max(v.deviation for v in run_claim("E22-factorization"))
    worst_fd = max(v.deviation for v in run_claim("E25-taylor-data"))
    ok = worst_fact <= 1e-10 and worst_fd <= 1e-4
    check("criterion 7 (factorization 1e-10; f', f'' vs differences 1e-4)",
          ok, f"factorization {worst_fact:.3e}, derivatives {worst_fd:.3e}")


# --------------------------------------------------------------- criterion 8

def test_criterion_08_family_weak_limit():
    sweep = family_weak_limit_sweep(PROBES["gaussian"], (-1.0, 1.0))
    mags = sweep.magnitudes()
    at_1em4 = mags[6]  # default ladder entry eps = 1e-4
    decreasing = mags[-3] > mags[-2] > mags[-1]
    check("criterion 8 (family pairing: |p(1e-4)| <= 1e-2, decreasing)",
          at_1em4 <= 1e-2 and decreasing,
          f"|pairing(1e-4)| = {at_1em4:.3e}, final three decreasing: "
          f"{decreasing}")


# --------------------------------------------------------------- criterion 9

def test_criterion_09_oscillatory_limits():
    ks = (5.0, 10.0, 20.0)
    sweep = oscillatory_limit_sweep(PROBES["gaussian"], "cos",
                                    tuple(math.exp(-k) for k in ks),
                                    interval=(-5.0, 5.0))
    devs = [abs(v - SQRT_PI * math.exp(-k * k / 4.0))
            for k, v in zip(ks, sweep.values)]
    mags = sweep.magnitudes()
    ok = max(devs) <= 1e-6 and mags[0] > mags[1] > mags[2]
    check("criterion 9 (oscillatory pairings vs gaussian transform, 1e-6)",
          ok, f"max abs deviation {max(devs):.3e}, trend to 0: "
              f"{mags[0]:.2e} > {mags[1]:.2e} > {mags[2]:.2e}")


# -------------------------------------------------------------- criterion 10

def test_criterion_10_legendre_baseline():
    d0 = abs(q_nu(0.0, 2.0) - 0.5 * math.log(3.0)) / (0.5 * math.log(3.0))
    d1 = abs(q_nu(1.0, 2.0) - (math.log(3.0) - 1.0)) / (math.log(3.0) - 1.0)
    check("criterion 10 (Q_0(2), Q_1(2) by quadrature, 1e-8)",
          max(d0, d1) <= 1e-8, f"deviations {d0:.2e}, {d1:.2e}")


# -------------------------------------------------------------- criterion 11

def test_criterion_11_large_z_asymptote():
    z = 1e3
    worst = 0.0
    for nu, mu in ((0.0, 0.0 + 0j), (2.0, 0.5 + 0j), (1.0, 0.5j)):
        asym = (SQRT_PI * cmath.exp(1j * math.pi * mu
                                    + log_gamma(nu + mu + 1.0)
                                    - log_gamma(nu + 1.5))
                * (2.0 * z) ** (-nu - 1.0))
        ratio = q_nu_mu(nu, mu, z) / asym
        worst = max(worst, abs(ratio - 1.0))
    check("criterion 11 (large-z asymptote ratio in [0.99, 1.01])",
          worst <= 0.01, f"max |ratio - 1| = {worst:.3e}")


# -------------------------------------------------------------- criterion 12

def test_criterion_12_eta_solver():
    sol = solve_eta(0.0, 1.0)
    d_small = abs(sol.cos_value - math.pi / math.sinh(math.pi))
    d_large = abs(solve_eta(1000.0, 1.0).cos_value - 1.0)
    check("criterion 12 (eta solver: pi/sinh(pi) to 1e-10; cos -> 1 to 1e-3)",
          d_small <= 1e-10 and d_large <= 1e-3,
          f"reflection dev {d_small:.2e}, large-nu dev {d_large:.2e}")


# -------------------------------------------------------------- criterion 13

def test_criterion_13_relation_adjudication(tmp_path):
    exact = run_claim("E47-legendre-exact")
    worst = max(v.deviation for v in exact)
    out = tmp_path / "e47.csv"
    r = run_cli("verify", "E47-legendre-relation", "--format", "csv",
                "--out", str(out))
    lines = out.read_text().splitlines() if out.exists() else []
    grid_ok = (r.returncode == 0 and len(lines) == 28
               and lines[0].startswith("nu_re,nu_im,tau,"))
    check("criterion 13 (relation: tau=0 exact to 1e-8; grid serialized)",
          worst <= 1e-8 and grid_ok,
          f"tau=0 max deviation {worst:.2e}, "
          f"27-point deviation grid emitted: {grid_ok}")


# -------------------------------------------------------------- criterion 14

def test_criterion_14a_gamma_ratio():
    nu, tau = 1e3, 1.0
    ratio = cmath.exp(log_gamma(nu + 1.0 + 1j * tau) - log_gamma(nu + 1.0))
    power = cmath.exp(1j * tau * math.log(nu))
    dev = abs(ratio - power) / abs(power)
    check("criterion 14a (gamma ratio vs nu^(i tau) at nu=1e3, 1e-3)",
          dev <= 1e-3, f"deviation {dev:.3e}")


def test_criterion_14b_explicit_asymptote():
    got = asymptotic_large_nu(50.0, 0.0, 2.0, with_quadrature=True)
    dev = abs(got.via_q_nu / got.explicit - 1.0)
    check("criterion 14b (explicit large-nu form vs quadrature, 3%)",
          dev <= 0.03,
          f"deviation {dev:.4f}; the ratio tends to "
          f"sqrt(pi/(2 sinh(arccosh 2))) = 0.9523, outside the stated band")


# -------------------------------------------------------------- criterion 15

def test_criterion_15a_leading_log_law():
    z = 1.0 + 1e-6
    devs = []
    for nu in (0.0, 1.0):
        ratio = abs(near_one_laws(nu, z, kind="log") / q_nu(nu, z))
        devs.append(abs(ratio - 1.0))
    check("criterion 15a (leading-log law ratio at z-1=1e-6, 2%)",
          max(devs) <= 0.02,
          f"deviations {devs[0]:.4f} (nu=0), {devs[1]:.4f} (nu=1); the "
          f"dropped additive constant keeps these at 4.8% and 10.4%")


def test_criterion_15b_power_law_slope():
    worst = 0.0
    for nu, mu in ((0.0, 0.5), (1.0, 1.0)):
        xs, ys = [], []
        for d in (1e-3, 1e-4, 1e-5):
            xs.append(math.log(d))
            ys.append(math.log(abs(q_nu_mu(nu, mu, 1.0 + d))))
        mx, my = sum(xs) / 3.0, sum(ys) / 3.0
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) \
            / sum((x - mx) ** 2 for x in xs)
        worst = max(worst, abs(slope + 0.5 * mu))
    check("criterion 15b (power-law slope -Re(mu)/2 within 0.02)",
          worst <= 0.02, f"max slope deviation {worst:.4f}")


# -------------------------------------------------------------- criterion 16

def test_criterion_16_determinism_and_exit_contract(tmp_path):
    out1 = tmp_path / "all1.json"
    out2 = tmp_path / "all2.json"
    r1 = run_cli("verify-all", "--out", str(out1))
    r2 = run_cli("verify-all", "--out", str(out2))
    identical = out1.read_bytes() == out2.read_bytes()
    forced = run_cli("verify", "E04-euler-beta", "--tol", "1e-30")
    ok = (r1.returncode == 0 and r2.returncode == 0 and identical
          and forced.returncode == 1)
    check("criterion 16 (byte-identical runs; exit-status contract)",
          ok,
          f"clean exits: {r1.returncode}, {r2.returncode}; identical bytes: "
          f"{identical}; forced failure exit: {forced.returncode}")
