"""Verdict records and deterministic serialization.

Serialization only: each deviation and status is the claims' judge's.  All
floats are printed with 17 significant digits and a lowercase exponent, grid
order is fixed by the claims' measures, and runtime_ms is always written as
0, so two runs with the same configuration produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

__all__ = [
    "ClaimVerdict",
    "fmt_float",
    "verdicts_to_json",
    "verdicts_to_csv",
    "summary_to_md",
    "relation_grid_csv",
    "sweep_rows_csv",
]


def fmt_float(x: float) -> str:
    """17 significant digits, lowercase exponent; stable across runs."""
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "nan"
    return f"{float(x):.16e}"


@dataclass
class ClaimVerdict:
    """One measured grid point of one claim."""

    claim: str
    point: str
    deviation: float
    order: float | None = None
    status: str = "REPORTED"
    extra: dict | None = field(default=None, repr=False)

    def as_record(self) -> dict:
        order = self.order
        if order is not None and math.isnan(order):
            order = None
        return {
            "claim": self.claim,
            "point": self.point,
            "deviation": float(self.deviation),
            "order": None if order is None else float(order),
            "status": self.status,
            "runtime_ms": 0,
        }


def verdicts_to_json(verdicts, summary: dict | None = None) -> str:
    records = [v.as_record() for v in verdicts]
    for r in records:
        r["deviation"] = fmt_float(r["deviation"])
        r["order"] = None if r["order"] is None else fmt_float(r["order"])
    payload = {"verdicts": records}
    if summary is not None:
        payload = {"summary": summary, "verdicts": records}
    return json.dumps(payload, indent=2) + "\n"


def verdicts_to_csv(verdicts) -> str:
    lines = ["claim,point,deviation,order,status,runtime_ms"]
    for v in verdicts:
        r = v.as_record()
        order = "" if r["order"] is None else fmt_float(r["order"])
        lines.append(
            f"{r['claim']},{r['point']},{fmt_float(r['deviation'])},"
            f"{order},{r['status']},0"
        )
    return "\n".join(lines) + "\n"


def relation_grid_csv(verdicts) -> str:
    """Fixed grid schema for the imaginary-order relation claims: each
    verdict's grid record, then its own deviation as rel_dev."""
    cols = ("nu_re", "nu_im", "tau", "z_re", "z_im",
            "lhs_re", "lhs_im", "rhs_re", "rhs_im")
    lines = [",".join(cols) + ",rel_dev"]
    for v in verdicts:
        lines.append(",".join([fmt_float(v.extra[k]) for k in cols]
                              + [fmt_float(v.deviation)]))
    return "\n".join(lines) + "\n"


def sweep_rows_csv(param_name: str, rows) -> str:
    """Ladder sweep schema: parameter, value components, error, deviation."""
    lines = [f"{param_name},re,im,err_estimate,deviation"]
    for (p, value, err, dev) in rows:
        lines.append(
            f"{fmt_float(p)},{fmt_float(value.real)},{fmt_float(value.imag)},"
            f"{fmt_float(err)},{fmt_float(dev)}"
        )
    return "\n".join(lines) + "\n"


def summary_to_md(summary_rows, totals: dict) -> str:
    """Human-readable verify-all table."""
    head = ("| claim | mode | points | failures | max deviation |\n"
            "|---|---|---:|---:|---|\n")
    body = "".join(
        f"| {r['claim']} | {r['mode']} | {r['points']} | {r['failures']} "
        f"| {fmt_float(r['max_deviation'])} |\n"
        for r in summary_rows
    )
    foot = (f"\nclaims: {totals['claims']}, verdicts: {totals['verdicts']}, "
            f"failures: {totals['failures']}, "
            f"exit: {totals['exit_status']}\n")
    return head + body + foot
