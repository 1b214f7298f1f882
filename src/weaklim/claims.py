"""Claim registry: every supported identity as a reproducible verdict grid.

Each claim owns a deterministic parameter grid, a measurement routine, a
default tolerance per sub-check, and optionally the ladder sweep that emits
the rows behind the same measurement.  ASSERT claims fail the run when a
measured deviation exceeds its tolerance; REPORT claims only record.  A
tolerance override (per claim or global) replaces the tolerance of every
measured, not boolean, sub-check of the affected claims, which is how a
forced failure is provoked for testing the exit-status contract.

Default tolerances of the delicate asymptotic claims are calibrated to the
measured leading-order behavior and documented in README.md: the explicit
large-degree form carries a kernel-width constant (~0.952 at z = 2), and the
leading-logarithm law at z - 1 = 1e-6 still misses its additive constant by
5-11%.  Their tolerances (0.10 and 0.12) cover exactly that, nothing more.
"""

from __future__ import annotations

import cmath
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import distrib, hyper, legendre
from .complexfn import DomainError, _times, log_gamma
from .config import RunConfig
from .distrib import PROBES, EpsilonLadder
from .quad import EndpointExponents, Ends, QuadratureSpec, integrate_batch
from .report import ClaimVerdict

__all__ = ["Claim", "REGISTRY", "claim_ids", "run_claim", "run_claims",
           "run_all", "sweep", "sweep_choices", "RunSummary"]

TWO_PI = 2.0 * math.pi
SQRT_PI = math.sqrt(math.pi)


# A sweep maps (cfg, ladder or None) to (parameter name, rows) with rows of
# (param, value, err_estimate, deviation).
SweepFn = Callable[[RunConfig, "tuple[float, ...] | None"], "tuple[str, list]"]


@dataclass(frozen=True)
class Claim:
    id: str
    mode: str                    # ASSERT | REPORT
    tolerance: float             # headline sub-check tolerance
    runner: Callable[["Claim", RunConfig], list[ClaimVerdict]]
    sweep: tuple[str, SweepFn] | None = None   # (kind, rows for plotting)

    def run(self, cfg: RunConfig) -> list[ClaimVerdict]:
        return self.runner(self, cfg)


def _verdict(claim: Claim, cfg: RunConfig, point: str, deviation: float,
             tol_default: float, order: float | None = None,
             extra: dict | None = None) -> ClaimVerdict:
    ok = deviation <= cfg.tolerance_for(claim.id, tol_default)
    return ClaimVerdict(claim.id, point, deviation, order, _status(claim, ok), extra)


def _check(claim: Claim, point: str, ok: bool,
           order: float | None = None) -> ClaimVerdict:
    """Boolean sub-check, deviation 0.0 or 1.0: no tolerance override applies."""
    return ClaimVerdict(claim.id, point, 0.0 if ok else 1.0, order, _status(claim, ok))


def _status(claim: Claim, ok: bool) -> str:
    return ("PASS" if ok else "FAIL") if claim.mode == "ASSERT" else "REPORTED"


def _fmt_c(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return f"{z.real:g}"
    return f"{z.real:g}{z.imag:+g}j"


# --------------------------------------------------------------- E03 / E04

_BETA_GRID_12 = [
    (complex(ra, ia), complex(rb, ib))
    for (ra, rb) in ((0.5, 1.0), (1.0, 2.5), (2.5, 0.5))
    for (ia, ib) in ((0.0, 0.0), (1.0, -1.0), (-1.0, 1.0), (1.0, 1.0))
]

_BETA_GRID_6 = [
    (1.0 + 0j, 1.0 + 0j),
    (2.0 + 0j, 3.0 + 0j),
    (0.5 + 0j, 0.5 + 0j),
    (0.5 + 0.5j, 0.5 - 0.5j),
    (1.5 + 1.0j, 0.75 - 0.5j),
    (2.5 + 0j, 1.0 + 1.0j),
]


def _beta_integrals(grid) -> list[complex]:
    """Euler's Beta integral over [0, 1] with both singular ends, at each
    (alpha, beta) of grid, in one integrate_batch.

    Edge forms keep the distance to the singular endpoint exact: key 2 i
    takes point i's left end, u^(alpha-1) (1-u)^(beta-1), and key 2 i + 1
    its right end, (1-u)^(alpha-1) u^(beta-1).
    """
    left_exp = np.array([al - 1.0 for al, _ in grid])
    right_exp = np.array([be - 1.0 for _, be in grid])

    def edges(u, keys):
        point, right = keys >> 1, keys & 1
        v = 1.0 - u
        return _times(np.where(right, v, u) ** left_exp[point],
                      np.where(right, u, v) ** right_exp[point])

    ends = [Ends((2 * i, 2 * i + 1), 0.0, 1.0, EndpointExponents(al, be))
            for i, (al, be) in enumerate(grid)]
    return [res.value for res in integrate_batch(edges, ends)]


def _beta_runner(grid, route):
    def run(claim: Claim, cfg: RunConfig) -> list[ClaimVerdict]:
        out = []
        for (al, be), got in zip(grid, route(grid)):
            closed = distrib.beta(al, be)
            dev = abs(got - closed) / abs(closed)
            out.append(_verdict(claim, cfg, f"alpha={_fmt_c(al)};beta={_fmt_c(be)}",
                                dev, claim.tolerance))
        return out
    return run


# ------------------------------------------------------------------ sweeps

def _eps_sweep(pairing) -> tuple[str, SweepFn]:
    """Epsilon sweep of a claim's pairing ladder: each row against its target.

    ``pairing(cfg, ladder)`` returns the claim's (PairingSweepResult, target)
    at every rung: the runner asserts on the same pairings at the rungs its
    verdicts read.
    """
    def rows(cfg: RunConfig, ladder):
        eps = cfg.ladder() if ladder is None else EpsilonLadder(ladder)
        res, target = pairing(cfg, eps)
        return "epsilon", [(p, v, e, abs(v - target))
                           for (p, v, e) in res.points]
    return "eps", rows


def _fit_rungs(ladder: EpsilonLadder) -> tuple[float, ...]:
    """The ladder's trailing rungs, the only ones distrib._fit_sweep fits: a
    verdict on a fitted limit or order reads no other rung."""
    return ladder.values[-distrib._FIT_RUNGS:]


# --------------------------------------------------------------------- E12

_DELTA_INTERVALS = ((-1.0, 1.0), (0.0, 1.0), (1.0, 2.0))


def _beta_delta_pairing(cfg: RunConfig, ladder: EpsilonLadder):
    probe = PROBES[cfg.probe]
    return (distrib.delta_claim_sweep(probe, (-1.0, 1.0), ladder),
            distrib.delta_target(probe, -1.0, 1.0))


def _run_beta_delta(claim: Claim, cfg: RunConfig) -> list[ClaimVerdict]:
    # The fit's rungs of each interval's ladder, all intervals in one batch.
    probe, rungs = PROBES[cfg.probe], _fit_rungs(cfg.ladder())
    sweeps = distrib._pairing_ladder(distrib.beta_reg,
                                     [(probe, interval, rungs) for interval in _DELTA_INTERVALS],
                                     distrib._SWEEP_SPEC)
    out = []
    for interval, sweep_res in zip(_DELTA_INTERVALS, sweeps):
        target = distrib.delta_target(probe, *interval)
        dev = abs(sweep_res.extrapolated_limit - target) / TWO_PI
        point = f"interval=[{interval[0]:g},{interval[1]:g}];probe={cfg.probe}"
        out.append(_verdict(claim, cfg, point, dev, claim.tolerance,
                            order=sweep_res.fitted_order))
        if target != 0.0:
            out.append(_check(claim, point + ";check=order>0",
                              sweep_res.fitted_order > 0.0, sweep_res.fitted_order))
    return out


# --------------------------------------------------------------- E16 / E17

def _mellin_forward_pairing(cfg: RunConfig, ladder: EpsilonLadder):
    probe = PROBES[cfg.probe]
    return (distrib.mellin_forward_sweep(probe, (-1.0, 1.0), ladder),
            TWO_PI * probe.value_at_zero)


def _run_mellin_forward(claim: Claim, cfg: RunConfig) -> list[ClaimVerdict]:
    sweep_res, target = _mellin_forward_pairing(cfg, EpsilonLadder(_fit_rungs(cfg.ladder())))
    dev = abs(sweep_res.extrapolated_limit - target) / TWO_PI
    return [_verdict(claim, cfg, f"interval=[-1,1];probe={cfg.probe}",
                     dev, claim.tolerance, order=sweep_res.fitted_order)]


def _mellin_inverse_pairing(cfg: RunConfig, ladder: EpsilonLadder):
    return distrib.mellin_inverse_sweep(math.e, ladder), 1.0


def _run_mellin_inverse(claim: Claim, cfg: RunConfig) -> list[ClaimVerdict]:
    # The ladder (mellin_inverse_sweep's) and the check at eps = 1e-4, one
    # batch; the check reads the ladder's own 1e-4 rung when it has one.
    ladder = cfg.ladder().values
    epss = ladder if 1e-4 in ladder else (*ladder, 1e-4)
    measured = distrib._mellin_inverse(math.e, epss)
    v4 = measured[epss.index(1e-4)][0]
    out = [_verdict(claim, cfg, f"t=e;eps={eps:.6g}", abs(v - math.exp(-eps)),
                    claim.tolerance)
           for eps, (v, _) in zip(ladder, measured)]
    out.append(_verdict(claim, cfg, "t=e;eps=0.0001;check=limit->1",
                        abs(v4 - 1.0), 1e-4))
    return out


# --------------------------------------------------------------------- E18

_GAUSS_SETS = ((1.0, 1.0, 3.0), (0.5, 0.25, 2.0), (2.0, 1.0, 4.5),
               (0.5, 1.0, 3.0), (1.5, 0.5, 3.25))


def _run_gauss_summation(claim: Claim, cfg: RunConfig) -> list[ClaimVerdict]:
    out = []
    for (a, b, c) in _GAUSS_SETS:
        closed = hyper.gauss_sum(a, b, c)
        near = hyper.hyp2f1(a, b, c, 1.0 - 1e-3)
        nearer = hyper.hyp2f1(a, b, c, 1.0 - 1e-4)
        dev = abs(near - closed) / abs(closed)
        point = f"a={a:g};b={b:g};c={c:g}"
        out.append(_verdict(claim, cfg, point, dev, claim.tolerance))
        out.append(_check(claim, point + ";check=improves",
                          abs(nearer - closed) < abs(near - closed)))
    return out


# --------------------------------------------------------- E21 / E22 / E25

_FAMILY_GRID = [(eps, tau)
                for eps in (1e-3, 1e-2, 0.1, 0.5)
                for tau in (0.1, 0.5, 1.0, 2.0)]


def _family_runner(route):
    def run(claim: Claim, cfg: RunConfig) -> list[ClaimVerdict]:
        out = []
        for eps, tau in _FAMILY_GRID:
            closed = hyper.family_closed_form(tau, eps)
            dev = abs(closed - route(tau, eps)) / abs(closed)
            out.append(_verdict(claim, cfg, f"eps={eps:g};tau={tau:g}", dev,
                                claim.tolerance))
        return out
    return run


def _run_taylor_data(claim: Claim, cfg: RunConfig) -> list[ClaimVerdict]:
    out = []
    h = 1e-5
    for tau in (0.0, 0.5, 1.0, 2.0):
        fp, _ = hyper.f_derivatives(0.0, tau)
        fd = (hyper.f_factor(h, tau) - hyper.f_factor(-h, tau)) / (2 * h)
        scale = max(abs(fp), abs(hyper.f_factor(0.0, tau)))
        dev = abs(fp - fd) / scale
        out.append(_verdict(claim, cfg, f"eps=0;tau={tau:g};check=f'",
                            dev, claim.tolerance))
    h2 = 1e-4
    for (eps, tau) in ((0.2, 0.7), (0.1, 1.5), (0.05, 0.3)):
        _, fpp = hyper.f_derivatives(eps, tau)
        fd2 = (hyper.f_factor(eps + h2, tau) - 2.0 * hyper.f_factor(eps, tau)
               + hyper.f_factor(eps - h2, tau)) / (h2 * h2)
        dev = abs(fpp - fd2) / abs(fpp)
        out.append(_verdict(claim, cfg, f"eps={eps:g};tau={tau:g};check=f''",
                            dev, claim.tolerance))
    return out


# --------------------------------------------------------------------- E31

def _weak_limit_pairing(cfg: RunConfig, ladder: EpsilonLadder):
    return (hyper.family_weak_limit_sweep(PROBES[cfg.probe], (-1.0, 1.0), ladder),
            0.0)


def _run_weak_limit_2f1(claim: Claim, cfg: RunConfig) -> list[ClaimVerdict]:
    ladder = cfg.ladder()
    eps = ladder.values
    if len(eps) < 3:
        raise DomainError("eps ladder of at least 3 values",
                          f"{claim.id} needs at least 3 ladder values to "
                          f"check that its pairings decrease; "
                          f"got {len(eps)}")
    # The ladder point nearest 1e-4.
    idx = min(range(len(eps)), key=lambda i: abs(math.log10(eps[i] / 1e-4)))
    # The rungs the verdicts read: the fit's, which hold the last 3, and
    # eps[idx]; the const ladder's fit in the same batch.
    rungs = _fit_rungs(ladder)
    read = rungs if eps[idx] in rungs else (eps[idx], *rungs)
    sweep_res, excl = distrib._pairing_ladder(
        hyper.family_closed_form,
        [(PROBES[cfg.probe], (-1.0, 1.0), read), (PROBES["const"], (1.0, 2.0), rungs)],
        distrib._SWEEP_SPEC)
    mags = sweep_res.magnitudes()
    point = f"interval=[-1,1];probe={cfg.probe}"
    return [
        _verdict(claim, cfg, point + f";eps={eps[idx]:.6g}",
                 mags[read.index(eps[idx])], claim.tolerance, order=sweep_res.fitted_order),
        _check(claim, point + ";check=decreasing", mags[-3] > mags[-2] > mags[-1]),
        _verdict(claim, cfg, "interval=[1,2];probe=const",
                 abs(excl.extrapolated_limit), claim.tolerance, order=excl.fitted_order),
    ]


# --------------------------------------------------------------------- E35

_OSC_KS = (5.0, 10.0, 20.0)
_OSC_LADDER = tuple(math.exp(-k) for k in _OSC_KS)


def _oscillatory_pairing(kind: str, ladder: tuple[float, ...]):
    return hyper.oscillatory_limit_sweep(PROBES["gaussian"], kind, ladder,
                                         interval=(-5.0, 5.0))


def _gaussian_fourier(k: float) -> float:
    """Oracle: the gaussian probe's cos pairing at frequency k."""
    return SQRT_PI * math.exp(-k * k / 4.0)


def _run_oscillatory(claim: Claim, cfg: RunConfig) -> list[ClaimVerdict]:
    cos_s = _oscillatory_pairing("cos", _OSC_LADDER)
    sin_s = _oscillatory_pairing("sin", _OSC_LADDER)
    out = []
    for k, vc, vs in zip(_OSC_KS, cos_s.values, sin_s.values):
        out.append(_verdict(claim, cfg, f"kind=cos;k={k:g}",
                            abs(vc - _gaussian_fourier(k)), claim.tolerance))
        out.append(_verdict(claim, cfg, f"kind=sin;k={k:g}",
                            abs(vs), claim.tolerance))
    mags = cos_s.magnitudes()
    out.append(_check(claim, "kind=cos;check=decreasing", mags[0] > mags[1] > mags[2]))
    return out


def _sweep_oscillatory(cfg: RunConfig, ladder):
    s = _oscillatory_pairing("cos", _OSC_LADDER if ladder is None else ladder)
    return "abs_one_minus_z", [
        (d, v, e, abs(v - _gaussian_fourier(-math.log(d))))
        for (d, v, e) in s.points]


# --------------------------------------------------------------------- E45

_LARGE_Z_CASES = ((0.0, 0.0 + 0j), (2.0, 0.5 + 0j), (1.0, 0.5j))


def _run_large_z(claim: Claim, cfg: RunConfig) -> list[ClaimVerdict]:
    z = 1e3
    out = []
    values = legendre.q_nu_mu_grid([(nu, mu, z) for nu, mu in _LARGE_Z_CASES])
    for (nu, mu), got in zip(_LARGE_Z_CASES, values):
        asym = (SQRT_PI * cmath.exp(1j * math.pi * mu
                                    + log_gamma(nu + mu + 1.0)
                                    - log_gamma(nu + 1.5))
                * (2.0 * z) ** (-nu - 1.0))
        dev = abs(got / asym - 1.0)
        out.append(_verdict(claim, cfg, f"nu={_fmt_c(nu)};mu={_fmt_c(mu)};z=1000",
                            dev, claim.tolerance))
    return out


# --------------------------------------------------------------------- E46

def _run_eta_solver(claim: Claim, cfg: RunConfig) -> list[ClaimVerdict]:
    sol = legendre.solve_eta(0.0, 1.0)
    oracle = math.pi / math.sinh(math.pi)
    out = [_verdict(claim, cfg, "nu=0;tau=1",
                    abs(sol.cos_value - oracle), claim.tolerance)]
    big = legendre.solve_eta(1000.0, 1.0)
    out.append(_verdict(claim, cfg, "nu=1000;tau=1;check=cos->1",
                        abs(big.cos_value - 1.0), 1e-3))
    return out


# --------------------------------------------------------------------- E47

_RELATION_TAU0_GRID = [(nu, 0.0, z) for nu in (0.0, 1.0, 2.0) for z in (2.0, 5.0)]
_RELATION_GRID = [(nu, tau, z)
                  for nu in (0.0, 1.0, 2.0)
                  for tau in (0.25, 0.5, 1.0)
                  for z in (1.5, 2.0, 5.0)]


def _relation_runner(grid):
    def run(claim: Claim, cfg: RunConfig) -> list[ClaimVerdict]:
        return [_verdict(claim, cfg, v.point, v.deviation, claim.tolerance, extra=v.extra)
                for v in legendre.adjudicate_relations(grid)]
    return run


# --------------------------------------------------------------------- E49

# The sweep ratios' stated error: the relative contract of the default q_nu
# quadrature they are taken against.
_Q_NU_REL_TOL = QuadratureSpec().rel_tol


def _explicit_ratio(nu: float) -> complex:
    """Quadrature Q_nu(2) over the explicit large-degree form.

    Both forms fall like (2 + sqrt 3)^-nu and leave the normal doubles near
    nu = 535; from there DomainError, not a ratio of lost digits or 0 / 0.
    """
    asym = legendre.asymptotic_large_nu(nu, 0.0, 2.0, with_quadrature=True)
    if not min(abs(asym.via_q_nu), abs(asym.explicit)) >= sys.float_info.min:
        raise DomainError("large-degree forms in double range",
                          f"nu = {nu!r}: the large-degree forms of Q_nu(2) underflowed "
                          f"({asym.via_q_nu!r} over {asym.explicit!r})")
    return asym.via_q_nu / asym.explicit


def _run_large_nu(claim: Claim, cfg: RunConfig) -> list[ClaimVerdict]:
    nu, tau = 1e3, 1.0
    ratio = cmath.exp(log_gamma(nu + 1.0 + 1j * tau) - log_gamma(nu + 1.0))
    power = cmath.exp(1j * tau * math.log(nu))
    out = [_verdict(claim, cfg, "nu=1000;tau=1;check=gamma-ratio",
                    abs(ratio - power) / abs(power), claim.tolerance)]
    out.append(_verdict(claim, cfg, "nu=50;tau=0;z=2;check=explicit-ratio",
                        abs(_explicit_ratio(50.0) - 1.0), 0.10))
    return out


def _sweep_large_nu(cfg: RunConfig, ladder):
    rows = []
    for nu in (10.0, 50.0, 250.0) if ladder is None else ladder:
        ratio = _explicit_ratio(nu)
        rows.append((nu, ratio, _Q_NU_REL_TOL * abs(ratio), abs(ratio - 1.0)))
    return "nu", rows


# --------------------------------------------------------------- E53 / E54

def _log_law_ratios(points) -> list[float]:
    """|leading-logarithm law / Q_nu(z)| at each (nu, z) of points; it tends to 1
    as z -> 1+."""
    qs = legendre.q_nu_mu_grid([(nu, 0.0, z) for nu, z in points])
    return [abs(legendre.near_one_laws(nu, z, kind="log") / q)
            for (nu, z), q in zip(points, qs)]


def _run_near_one(claim: Claim, cfg: RunConfig) -> list[ClaimVerdict]:
    out = []
    z = 1.0 + 1e-6
    # Q_0(z) and Q_1(z) under their laws in one pass; Q_1(z) also enters the
    # relation's right side (relation_rhs).
    laws = legendre.q_nu_mu_grid([(0.0, 0.0, z), (1.0, 0.0, z)])
    for nu, q in zip((0.0, 1.0), laws):
        ratio = abs(legendre.near_one_laws(nu, z, kind="log") / q)
        out.append(_verdict(claim, cfg, f"nu={nu:g};z-1=1e-06;law=log",
                            abs(ratio - 1.0), claim.tolerance))
    law53 = legendre.near_one_laws(1.0, z, tau=0.5, kind="log_itau")
    rhs = legendre._relation_factor(1.0, 0.5) * laws[1]
    out.append(_verdict(claim, cfg, "nu=1;tau=0.5;z-1=1e-06;law=log_itau",
                        abs(abs(law53 / rhs) - 1.0), claim.tolerance))
    return out


def _sweep_near_one(cfg: RunConfig, ladder):
    ds = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6) if ladder is None else ladder
    ratios = _log_law_ratios([(0.0, 1.0 + d) for d in ds])
    return "z_minus_one", [(d, complex(r), _Q_NU_REL_TOL * r, abs(r - 1.0))
                           for d, r in zip(ds, ratios)]


def _run_power_slope(claim: Claim, cfg: RunConfig) -> list[ClaimVerdict]:
    deltas = (1e-3, 1e-4, 1e-5)
    out = []
    cases = ((0.0, 0.5), (1.0, 1.0))
    qs = iter(legendre.q_nu_mu_grid([(nu, mu, 1.0 + d) for nu, mu in cases for d in deltas]))
    for nu, mu in cases:
        xs = [math.log(d) for d in deltas]
        ys = [math.log(abs(next(qs))) for _ in deltas]
        slope, _ = distrib._lsq_slope(xs, ys)
        dev = abs(slope + 0.5 * mu)
        out.append(_verdict(claim, cfg, f"nu={nu:g};mu={mu:g};check=slope",
                            dev, claim.tolerance, order=slope))
    return out


# ----------------------------------------------------------------- registry

REGISTRY: tuple[Claim, ...] = tuple(sorted([
    # Routes look library functions up at call time, as bench/spans.py needs.
    Claim("E03-beta-substitution", "ASSERT", 1e-9, _beta_runner(
        _BETA_GRID_6, lambda grid: [distrib.beta_semi_infinite(al, be) for al, be in grid])),
    Claim("E04-euler-beta", "ASSERT", 1e-9,
          _beta_runner(_BETA_GRID_12, _beta_integrals)),
    Claim("E12-beta-delta", "ASSERT", 1e-2, _run_beta_delta,
          _eps_sweep(_beta_delta_pairing)),
    Claim("E16-mellin-forward", "ASSERT", 1e-2, _run_mellin_forward,
          _eps_sweep(_mellin_forward_pairing)),
    Claim("E17-mellin-inverse", "ASSERT", 1e-8, _run_mellin_inverse,
          _eps_sweep(_mellin_inverse_pairing)),
    Claim("E18-gauss-summation", "ASSERT", 1e-2, _run_gauss_summation),
    Claim("E21-duplication-form", "ASSERT", 1e-10, _family_runner(
        lambda tau, eps: hyper.family_duplication_form(tau, eps))),
    Claim("E22-factorization", "ASSERT", 1e-10, _family_runner(
        lambda tau, eps: hyper.f_factor(eps, tau) * complex(eps, tau)
        * distrib.omega_eps(tau, eps))),
    Claim("E25-taylor-data", "ASSERT", 1e-4, _run_taylor_data),
    Claim("E31-weak-limit-2f1", "ASSERT", 1e-2, _run_weak_limit_2f1,
          _eps_sweep(_weak_limit_pairing)),
    Claim("E35-oscillatory", "ASSERT", 1e-6, _run_oscillatory,
          ("z", _sweep_oscillatory)),
    Claim("E45-large-z-asym", "ASSERT", 1e-2, _run_large_z),
    Claim("E46-eta-solver", "ASSERT", 1e-10, _run_eta_solver),
    Claim("E47-legendre-exact", "ASSERT", 1e-8,
          _relation_runner(_RELATION_TAU0_GRID)),
    Claim("E47-legendre-relation", "REPORT", math.inf,
          _relation_runner(_RELATION_GRID)),
    Claim("E49-large-nu-asym", "ASSERT", 1e-3, _run_large_nu,
          ("nu", _sweep_large_nu)),
    Claim("E53-near-one", "ASSERT", 0.12, _run_near_one,
          ("z", _sweep_near_one)),
    Claim("E54-power-slope", "ASSERT", 0.02, _run_power_slope),
], key=lambda c: c.id))

_BY_ID = {c.id: c for c in REGISTRY}


def claim_ids() -> list[str]:
    return [c.id for c in REGISTRY]


def run_claim(claim_id: str, cfg: RunConfig | None = None) -> list[ClaimVerdict]:
    """Execute one claim's grid; deterministic given the configuration."""
    return run_claims([claim_id], cfg).verdicts


@dataclass
class RunSummary:
    rows: list[dict]
    verdicts: list[ClaimVerdict]
    runtimes_ms: dict
    exit_status: int

    def totals(self) -> dict:
        return {
            "claims": len(self.rows),
            "verdicts": len(self.verdicts),
            "failures": sum(r["failures"] for r in self.rows),
            "exit_status": self.exit_status,
        }

    def summary_dict(self) -> dict:
        return {"claims": self.rows, "totals": self.totals()}


def run_all(cfg: RunConfig | None = None) -> RunSummary:
    """Execute every registered claim; exit status 1 iff an ASSERT failed."""
    return run_claims(claim_ids(), cfg)


def run_claims(ids, cfg: RunConfig | None = None) -> RunSummary:
    """Execute the named claims in order, one summary row each."""
    cfg = cfg or RunConfig()
    rows = []
    verdicts: list[ClaimVerdict] = []
    runtimes = {}
    for cid in ids:
        if cid not in _BY_ID:
            raise KeyError(f"unknown claim id {cid!r}; "
                           f"known: {', '.join(claim_ids())}")
        t0 = time.perf_counter()
        v = _BY_ID[cid].run(cfg)
        runtimes[cid] = int(1000 * (time.perf_counter() - t0))
        verdicts.extend(v)
        rows.append({
            "claim": cid,
            "mode": _BY_ID[cid].mode,
            "points": len(v),
            "failures": sum(1 for x in v if x.status == "FAIL"),
            "max_deviation": max((x.deviation for x in v), default=0.0),
        })
    return RunSummary(rows, verdicts, runtimes,
                      int(any(r["failures"] for r in rows)))


def sweep_choices() -> dict[str, list[str]]:
    """Sweep kind -> ids of the claims that serve it, in registry order."""
    out: dict[str, list[str]] = {}
    for c in REGISTRY:
        if c.sweep:
            out.setdefault(c.sweep[0], []).append(c.id)
    return out


def sweep(kind: str, claim_id: str, cfg: RunConfig | None = None,
          ladder: tuple[float, ...] | None = None):
    """Ladder rows (param, value, err_estimate, deviation) for plotting.

    ``ladder`` None takes the claim's default ladder; an empty one raises
    DomainError.
    """
    choices = sweep_choices()
    if kind not in choices:
        raise KeyError(f"unknown sweep kind {kind!r}")
    claim = _BY_ID.get(claim_id)
    if claim is None or claim.sweep is None or claim.sweep[0] != kind:
        raise KeyError(f"claim {claim_id!r} does not support kind {kind!r}; "
                       f"choices: {', '.join(choices[kind])}")
    if ladder is not None and not ladder:  # only None means the claim's default
        raise DomainError("non-empty ladder", f"the {kind} sweep of {claim_id} got no values")
    return claim.sweep[1](cfg or RunConfig(), ladder)
