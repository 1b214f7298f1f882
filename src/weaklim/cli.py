"""Command-line interface: eval, verify, verify-all, sweep.

Artifacts (JSON/CSV/MD) are byte-identical across runs with the same
configuration; measured runtimes appear only in the console summary.

Examples:

    weaklim eval gamma z=0.5
    weaklim eval q_nu nu=0 z=2
    weaklim verify E04-euler-beta --format csv --out e04.csv
    weaklim verify-all --format md
    weaklim sweep E31-weak-limit-2f1 --eps-ladder 1e-1,1e-2,1e-3
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import claims, distrib, hyper, legendre
from .complexfn import (
    DIGAMMA_CONTRACT,
    DomainError,
    GAMMA_CONTRACT,
    TRIGAMMA_CONTRACT,
    digamma,
    gamma,
    log_gamma,
    trigamma,
)
from .config import build_run_config, load_config_file, parse_floats
from .hyper import SeriesError
from .quad import ConvergenceError
from .report import (
    fmt_float,
    relation_grid_csv,
    summary_to_md,
    sweep_rows_csv,
    verdicts_to_csv,
    verdicts_to_json,
)

__all__ = ["main"]


def _valued(err):
    """Renderer of a complex value at its parameters, with the error estimate
    err(value, params)."""
    def render(value, params) -> dict:
        return {
            "value": {"re": fmt_float(value.real), "im": fmt_float(value.imag)},
            "error_estimate": fmt_float(err(value, params)),
        }
    return render


def _rel(factor: float):
    return _valued(lambda value, params: abs(value) * factor)


def _abs(estimate: float):
    return _valued(lambda value, params: estimate)


_HYP2F1_REL_TOL = hyper.hyp2f1.__kwdefaults__["rel_tol"]


def _hyp2f1_estimate(value, params) -> float:
    """The series stops after terms below rel_tol of the sum; near |z| = 1 the
    tail it leaves is about rel_tol / (1 - |z|) of the value."""
    return abs(value) * max(1e-12, 2.0 * _HYP2F1_REL_TOL / (1.0 - abs(params[3])))


def _eta_fields(sol, params) -> dict:
    return {
        "eta": fmt_float(sol.eta),
        "cos_value": fmt_float(sol.cos_value),
        "branch_index": sol.branch_index,
        "degenerate": sol.degenerate,
    }


_GAMMA_REL = GAMMA_CONTRACT.target_rel_err

# name -> (parameter names, function of them in that order, renderer of its
# result at them).  Closed forms state a relative error (their accuracy
# contract, k times the gamma contract for k log-gamma terms), but log_gamma
# is absolute on the log; hyp2f1 states its stop rule's tail; quadrature
# values state a fixed absolute estimate.
_EVALS = {
    "gamma": (("z",), gamma, _rel(_GAMMA_REL)),
    "log_gamma": (("z",), log_gamma, _abs(_GAMMA_REL)),
    "digamma": (("z",), digamma, _rel(DIGAMMA_CONTRACT.target_rel_err)),
    "trigamma": (("z",), trigamma, _rel(TRIGAMMA_CONTRACT.target_rel_err)),
    "beta": (("alpha", "beta"), distrib.beta, _rel(3 * _GAMMA_REL)),
    "beta_reg": (("tau", "eps"), distrib.beta_reg, _rel(3 * _GAMMA_REL)),
    "omega_eps": (("x", "eps"), distrib.omega_eps, _abs(0.0)),
    "hyp2f1": (("a", "b", "c", "z"), hyper.hyp2f1, _valued(_hyp2f1_estimate)),
    "gauss_sum": (("a", "b", "c"), hyper.gauss_sum, _rel(4 * _GAMMA_REL)),
    "family_closed_form": (("tau", "eps"), hyper.family_closed_form, _rel(4 * _GAMMA_REL)),
    "f_factor": (("eps", "tau"), hyper.f_factor, _rel(3 * _GAMMA_REL)),
    "mellin_forward": (("tau", "eps"), distrib.mellin_reg_forward, _abs(1e-9)),
    "mellin_inverse": (("t", "eps"), distrib.mellin_inverse_check, _abs(1e-9)),
    "q_nu": (("nu", "z"), legendre.q_nu, _abs(1e-10)),
    "q_nu_mu": (("nu", "mu", "z"), legendre.q_nu_mu, _abs(1e-10)),
    "q_nu_itau": (("nu", "tau", "z"), legendre.q_nu_itau_direct, _abs(1e-10)),
    "relation_rhs": (("nu", "tau", "z"), legendre.relation_rhs, _abs(1e-10)),
    "solve_eta": (("nu", "tau"),
                  lambda nu, tau: legendre.solve_eta(nu.real, tau), _eta_fields),
}

# Parameters on a real axis; the real part of their parsed value is passed.
_REAL_PARAMS = ("tau", "eps", "x", "t")


def _parse_params(tokens, wanted):
    params = {}
    for tok in tokens:
        if "=" not in tok:
            raise DomainError("key=value parameters",
                              f"cannot parse parameter token {tok!r}")
        key, _, val = tok.partition("=")
        key = key.strip()
        if key not in wanted:
            raise DomainError("known parameters",
                              f"unexpected parameter {key!r}; "
                              f"wanted: {', '.join(wanted)}")
        try:
            # A trailing i is the imaginary unit; the i of inf is not.
            value = complex(re.sub(r"i(?=\)?$)", "j", val.strip()))
        except ValueError:
            raise DomainError("numeric parameters",
                              f"cannot parse value in {tok!r}") from None
        params[key] = value.real if key in _REAL_PARAMS else value
    missing = [w for w in wanted if w not in params]
    if missing:
        raise DomainError("all parameters present",
                          f"missing parameters: {', '.join(missing)}")
    return [params[w] for w in wanted]


def _cmd_eval(args, cfg) -> int:
    name = args.function
    if name not in _EVALS:
        raise KeyError(f"unknown function {name!r}; "
                       f"known: {', '.join(sorted(_EVALS))}")
    wanted, fn, render = _EVALS[name]
    params = _parse_params(args.params, wanted)
    print(json.dumps({"function": name, **render(fn(*params), params)}, indent=2))
    return 0


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_verify(args, cfg) -> int:
    summary = claims.run_claims([args.claim_id], cfg)
    if cfg.format == "csv":
        if args.claim_id.startswith("E47"):
            text = relation_grid_csv(summary.verdicts)
        else:
            text = verdicts_to_csv(summary.verdicts)
    elif cfg.format == "md":
        text = summary_to_md(summary.rows, summary.totals())
    else:
        text = verdicts_to_json(summary.verdicts)
    _emit(text, cfg.out)
    return summary.exit_status


def _cmd_verify_all(args, cfg) -> int:
    summary = claims.run_all(cfg)
    if cfg.format == "csv":
        text = verdicts_to_csv(summary.verdicts)
    elif cfg.format == "md":
        text = summary_to_md(summary.rows, summary.totals())
    else:
        text = verdicts_to_json(summary.verdicts, summary.summary_dict())
    _emit(text, cfg.out)
    print(
        "claims: {claims}  verdicts: {verdicts}  failures: {failures}  "
        "exit: {exit_status}".format(**summary.totals()),
        file=sys.stderr,
    )
    for cid, ms in summary.runtimes_ms.items():
        print(f"  {cid}: {ms} ms", file=sys.stderr)
    return summary.exit_status


def _cmd_sweep(args, cfg) -> int:
    ladder = (parse_floats("eps_ladder", args.sweep_ladder)
              if args.sweep_ladder is not None else None)
    param_name, rows = claims.sweep(args.claim_id, cfg, ladder)
    _emit(sweep_rows_csv(param_name, rows), cfg.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weaklim",
        description="evaluate regularized special functions and verify "
                    "the registered identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # eval takes no flag; sweep takes these and its own --eps-ladder.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="flat key=value config file")
    shared.add_argument("--out", help="output path (default stdout)")
    shared.add_argument("--probe", help="probe name for pairings")
    run = argparse.ArgumentParser(add_help=False, parents=[shared])
    run.add_argument("--format", choices=("json", "csv", "md"))
    run.add_argument("--eps-ladder", help="comma-separated eps ladder values")
    run.add_argument("--tol", type=float,
                     help="tolerance override for every measured sub-check")

    p_eval = sub.add_parser("eval", help="evaluate one catalog function")
    p_eval.add_argument("function")
    p_eval.add_argument("params", nargs="*", help="key=value arguments")
    p_eval.set_defaults(run=_cmd_eval)

    p_verify = sub.add_parser("verify", parents=[run], help="run one claim")
    p_verify.add_argument("claim_id")
    p_verify.set_defaults(run=_cmd_verify)

    p_all = sub.add_parser("verify-all", parents=[run], help="run every claim")
    p_all.set_defaults(run=_cmd_verify_all)

    p_sweep = sub.add_parser("sweep", parents=[shared],
                             help="emit ladder rows for one claim")
    p_sweep.add_argument("claim_id")
    # The claim's own ladder (eps, |1 - z|, z - 1 or nu), not the run's eps ladder.
    p_sweep.add_argument("--eps-ladder", dest="sweep_ladder",
                         help="comma-separated values of the claim's sweep ladder")
    p_sweep.set_defaults(run=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = getattr(args, "config", None)
        file_values = load_config_file(config) if config else {}
        flag_values = {key: getattr(args, key, None)
                       for key in ("out", "format", "eps_ladder", "probe", "tol")}
        cfg = build_run_config(file_values, flag_values)
        unknown = sorted(set(cfg.tol_overrides) - set(claims.claim_ids()))
        if unknown:
            raise DomainError("tol.<claim> names a registered claim",
                              f"no registered claim {', '.join(unknown)} "
                              f"for a tol.<claim> override")
        return args.run(args, cfg)
    except (DomainError, ConvergenceError, SeriesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
