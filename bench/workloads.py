"""Workload pools, the operations that consume them, and their correctness checks.

Each workload is a fixed pool of operations made from a seed:

    verify_all      one op is one full ``claims.run_all()`` pass with the default
                    configuration, serialized with ``report.verdicts_to_json``.
                    The claim grids are fixed, so the seed does not apply.
    scalar_eval     8000 point evaluations: the gamma family, ``beta_reg``,
                    ``family_closed_form``, ``f_factor``, ``hyp2f1`` and
                    ``solve_eta``, spread evenly over the nine functions.
    quad_integrals  600 integrals: ``q_nu``, ``q_nu_mu``, ``q_nu_itau_direct``,
                    ``beta_semi_infinite``, ``mellin_reg_forward`` and a Beta
                    ``integrate_finite`` with singular endpoints, 100 of each.

The parameters of each function are drawn jointly from a low-discrepancy
lattice whose points the seed moves (``_lattice``), and the pool is shuffled
by the seed.

Library functions are looked up on their modules at call time, so the traced
run's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import cmath
import hashlib
import inspect
import json
import math
from pathlib import Path

import numpy as np

from weaklim import claims, complexfn, distrib, hyper, legendre, quad, report

SCALAR_OPS = 8000
QUAD_PER_KIND = 100

EXPECTED_PATH = Path(__file__).resolve().parent / "expected_verify_all.json"

# ------------------------------------------------------------ contracts

_G = complexfn.GAMMA_CONTRACT.target_rel_err
HYP2F1_REL_TOL = inspect.signature(hyper.hyp2f1).parameters["rel_tol"].default

# Relative tolerance of each scalar function.  Functions the library builds
# from k log-gamma terms inherit k times the gamma contract.
SCALAR_TOL = {
    "log_gamma": _G,  # absolute on the log, i.e. relative on Gamma
    "gamma": _G,
    "digamma": complexfn.DIGAMMA_CONTRACT.target_rel_err,
    "trigamma": complexfn.TRIGAMMA_CONTRACT.target_rel_err,
    "beta_reg": 3 * _G,
    "family_closed_form": 4 * _G,
    "f_factor": 3 * _G,
    "hyp2f1": HYP2F1_REL_TOL,
    "solve_eta": 4 * _G,  # on cos_value = exp(2 (Re lg - Re lg))
}

# Every integral is asked for at one stated tolerance: the library default,
# and for the Mellin value the default that mellin_reg_forward uses itself.
SPEC = quad.QuadratureSpec()
MELLIN_SPEC = quad.QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11)

# name -> (spec, integrations in one result, log-gamma terms in its prefactor)
QUAD_TOL = {
    "q_nu": (SPEC, 1, 0),
    "q_nu_mu": (SPEC, 1, 2),
    "q_nu_itau_direct": (SPEC, 1, 2),
    "beta_semi_infinite": (SPEC, 2, 0),
    "mellin_reg_forward": (MELLIN_SPEC, 2, 0),
    "beta_integral": (SPEC, 1, 0),
}


# ----------------------------------------------------------- operations

def _beta_integral(alpha, beta):
    """Euler Beta integral with both singular ends, as claim E04 computes it."""
    f = lambda t: t ** (alpha - 1.0) * (1.0 - t) ** (beta - 1.0)
    left = lambda u: u ** (alpha - 1.0) * (1.0 - u) ** (beta - 1.0)
    right = lambda u: (1.0 - u) ** (alpha - 1.0) * u ** (beta - 1.0)
    return quad.integrate_finite(f, 0.0, 1.0, quad.EndpointExponents(alpha, beta),
                                 SPEC, left_edge=left, right_edge=right).value


def _solve_eta(nu, tau):
    sol = legendre.solve_eta(nu, tau)
    return (sol.eta, sol.cos_value)


def _verify_all():
    summary = claims.run_all()
    return report.verdicts_to_json(summary.verdicts, summary.summary_dict())


OPS = {
    "verify_all": _verify_all,
    "log_gamma": lambda z: complexfn.log_gamma(z),
    "gamma": lambda z: complexfn.gamma(z),
    "digamma": lambda z: complexfn.digamma(z),
    "trigamma": lambda z: complexfn.trigamma(z),
    "beta_reg": lambda tau, eps: distrib.beta_reg(tau, eps),
    "family_closed_form": lambda tau, eps: hyper.family_closed_form(tau, eps),
    "f_factor": lambda eps, tau: hyper.f_factor(eps, tau),
    "hyp2f1": lambda a, b, c, z: hyper.hyp2f1(a, b, c, z),
    "solve_eta": _solve_eta,
    "q_nu": lambda nu, z: legendre.q_nu(nu, z, SPEC),
    "q_nu_mu": lambda nu, mu, z: legendre.q_nu_mu(nu, mu, z, SPEC),
    "q_nu_itau_direct": lambda nu, tau, z: legendre.q_nu_itau_direct(nu, tau, z, SPEC),
    "beta_semi_infinite": lambda a, b: distrib.beta_semi_infinite(a, b, SPEC),
    "mellin_reg_forward": lambda tau, eps: distrib.mellin_reg_forward(tau, eps, MELLIN_SPEC),
    "beta_integral": _beta_integral,
}


def run_op(entry):
    """Outcome of one op: ("ok", value) or ("err", exception class, condition)."""
    name, args = entry
    try:
        return ("ok", OPS[name](*args))
    except Exception as exc:  # an unexpected exception is a failed op, not a crash
        return ("err", type(exc), getattr(exc, "condition", None))


def outcome_key(outcome) -> str:
    """Exact text of an outcome, for byte-for-byte comparison of two runs."""
    if outcome[0] == "ok":
        return repr(outcome[1])
    return f"{outcome[1].__name__}:{outcome[2]}"


# ---------------------------------------------------------------- pools

def _lattice(rng, k: int, dims: int) -> np.ndarray:
    """k points spread evenly over [0, 1)^dims, moved by the seed.

    The R_d low-discrepancy sequence (steps along the powers of the
    generalized golden ratio) covers every joint range of the parameters
    evenly.  The seed moves every point by less than 1/k along each axis,
    without wrapping round, so every input changes with the seed while the
    pool's cover of the corners, where the costliest and the known-defect
    inputs lie, stays all but fixed.
    """
    g = 2.0
    for _ in range(60):
        g = (1.0 + g) ** (1.0 / (dims + 1))
    alpha = g ** -np.arange(1.0, dims + 1.0)
    base = np.outer(np.arange(1, k + 1), alpha) % 1.0
    return (base + rng.random(dims) / k) * (k / (k + 1.0))


def _lin(lo, hi):
    return lambda u: lo + (hi - lo) * u


def _geo(lo, hi):
    return lambda u: lo * (hi / lo) ** u


def _draw(rng, k, *maps) -> list:
    """k joint draws, one column per map from [0, 1) onto a parameter range."""
    return [tuple(float(m(x)) for m, x in zip(maps, row))
            for row in _lattice(rng, k, len(maps))]


_TURN = _lin(-math.pi, math.pi)


def _gamma_args(rng, k):
    """|z| up to 100 over the whole plane, plus points next to the poles.

    A third of the draws sit at distance 1e-15 .. 1e-3 from a pole 0 .. -99,
    half of them on the real axis; the closest fall inside the pole
    tolerance and must raise PoleError.
    """
    k_pole = k // 3
    far = [cmath.rect(r, t) for r, t in _draw(rng, k - k_pole, _geo(1e-2, 100.0), _TURN)]
    near = [-math.floor(n) + (math.copysign(d, t) if axis < 0.5 else cmath.rect(d, t))
            for n, d, t, axis in _draw(rng, k_pole, _lin(0.0, 100.0), _geo(1e-15, 1e-3),
                                       _TURN, _lin(0.0, 1.0))]
    return [(z,) for z in far + near]


def _scalar_args(name, rng, k):
    if name in ("log_gamma", "gamma", "digamma", "trigamma"):
        return _gamma_args(rng, k)
    if name == "beta_reg":
        return _draw(rng, k, _lin(-100.0, 100.0), _geo(1e-5, 10.0))
    if name == "family_closed_form":
        return _draw(rng, k, _lin(-50.0, 50.0), _geo(1e-5, 10.0))
    if name == "f_factor":
        return _draw(rng, k, _lin(-0.45, 10.0), _lin(-50.0, 50.0))
    if name == "hyp2f1":
        # Large |Re a| at |z| near 0.9 is where the series cancels.
        im = _lin(-5.0, 5.0)
        return [(complex(ar, ai), complex(br, bi), complex(cr, ci), cmath.rect(0.9 * math.sqrt(r), t))
                for ar, ai, br, bi, cr, ci, r, t in _draw(
                    rng, k, _lin(-60.0, 60.0), im, _lin(-10.0, 10.0), im, _lin(0.25, 20.0), im,
                    _lin(0.0, 1.0), _TURN)]
    if name == "solve_eta":
        return _draw(rng, k, _lin(-0.999, 99.0), _lin(-100.0, 100.0))
    raise KeyError(name)


# The cost of an integral is set by the kernel's decay rate, its oscillation
# frequency (period 2 pi / frequency), the distance of z to 1 and the
# endpoint exponents.
_DECAY = _geo(0.02, 5.0)
_DIST = _geo(1e-6, 100.0)


def _quad_args(name, rng, k):
    if name == "q_nu":
        return [(g - 1.0, 1.0 + d) for g, d in _draw(rng, k, _DECAY, _DIST)]
    if name == "q_nu_mu":
        return [(g - 1.0 + abs(mr), complex(mr, mi), 1.0 + d) for g, mr, mi, d in _draw(
            rng, k, _DECAY, _lin(-1.5, 1.5), _lin(-4.0, 4.0), _DIST)]
    if name == "q_nu_itau_direct":
        return [(g - 1.0, t, 1.0 + d) for g, t, d in _draw(rng, k, _DECAY, _lin(0.05, 5.0), _DIST)]
    if name == "beta_semi_infinite":
        return [(complex(ar, ai), complex(br, bi)) for ar, ai, br, bi in _draw(
            rng, k, _DECAY, _lin(-4.0, 4.0), _DECAY, _lin(-4.0, 4.0))]
    if name == "mellin_reg_forward":
        return _draw(rng, k, _lin(-4.0, 4.0), _geo(1e-3, 0.45))
    if name == "beta_integral":
        return [(complex(ar, ai), complex(br, bi)) for ar, ai, br, bi in _draw(
            rng, k, _geo(0.05, 4.0), _lin(-3.0, 3.0), _geo(0.05, 4.0), _lin(-3.0, 3.0))]
    raise KeyError(name)


def make_pool(workload: str, seed: int) -> list:
    """The workload's ops as (function name, argument tuple), in run order."""
    if workload == "verify_all":
        return [("verify_all", ())]
    rng = np.random.default_rng(seed % 2**64)  # any integer seed, negative too
    if workload == "scalar_eval":
        names = list(SCALAR_TOL)
        counts = [SCALAR_OPS // len(names) + (i < SCALAR_OPS % len(names))
                  for i in range(len(names))]
        pool = [(n, args) for n, k in zip(names, counts)
                for args in _scalar_args(n, rng, k)]
    elif workload == "quad_integrals":
        pool = [(n, args) for n in QUAD_TOL for args in _quad_args(n, rng, QUAD_PER_KIND)]
    else:
        raise KeyError(f"unknown workload {workload!r}")
    return [pool[i] for i in rng.permutation(len(pool))]


# --------------------------------------------------------------- checks

def _finite(v: complex) -> bool:
    return math.isfinite(v.real) and math.isfinite(v.imag)


def check(entry, outcome, ref) -> bool:
    """True when the outcome keeps the function's contract against the oracle.

    A named DomainError (PoleError included) passes only where the oracle
    confirms that the precondition fails; NaN and any other exception fail.
    """
    name, args = entry
    if ref.get("fails"):
        return outcome[0] == "err" and issubclass(outcome[1], complexfn.DomainError)
    if outcome[0] != "ok":
        return False
    if name == "solve_eta":
        eta, cv = outcome[1]
        ref_eta, ref_cv = ref["ref"]
        cv_tol = SCALAR_TOL[name] * ref_cv
        # eta = acos(cos_value) / |tau| amplifies an error in cos_value by
        # 1 / (|tau| sin(tau eta)).
        sin_te = math.sqrt(max(1.0 - ref_cv ** 2, 0.0))
        eta_tol = cv_tol / max(abs(args[1]) * sin_te, 1e-300) + 4e-16 * ref_eta
        return abs(cv - ref_cv) <= cv_tol and abs(eta - ref_eta) <= eta_tol
    value = complex(outcome[1])
    if not _finite(value):
        return False
    want = complex(*ref["ref"])
    err = abs(value - want)
    if name == "log_gamma":
        return err <= SCALAR_TOL[name]
    if name in SCALAR_TOL:
        return err <= SCALAR_TOL[name] * abs(want)
    spec, n_int, n_lg = QUAD_TOL[name]
    allowed = n_int * max(spec.abs_tol * ref.get("scale", 1.0), spec.rel_tol * abs(want))
    return err <= allowed + n_lg * _G * abs(want)


# ----------------------------------------------------- verify_all record

def verdict_triples(text: str) -> list:
    return [[v["claim"], v["point"], v["status"]] for v in json.loads(text)["verdicts"]]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def check_verify_all(outcome, expected) -> bool:
    """A pass fails if it raised, if any ASSERT verdict is FAIL, or if any
    (claim, point, status) triple differs from the recorded one."""
    if outcome[0] != "ok":
        return False
    triples = verdict_triples(outcome[1])
    return triples == expected["triples"] and all(t[2] != "FAIL" for t in triples)


if __name__ == "__main__":
    # Re-record the expected verdicts from the current source tree.  Run it
    # only when a change to the verdicts is intended, and say so in the log.
    text = _verify_all()
    triples = verdict_triples(text)
    EXPECTED_PATH.write_text(
        f'{{\n"verdicts": {len(triples)},\n"sha256": "{digest(text)}",\n"triples": [\n'
        + ",\n".join(json.dumps(t) for t in triples) + "\n]\n}\n", encoding="utf-8")
    print(f"wrote {EXPECTED_PATH.name}: {len(triples)} verdicts, sha256 {digest(text)}")
