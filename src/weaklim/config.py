"""Run configuration: flat key=value config files merged with CLI flags.

The recognized keys are those of ``_KEYS`` below, plus ``tol.<claim>`` for a
per-claim tolerance override of each measured (not boolean) sub-check.
Unknown keys are errors.  Flags win over file values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexfn import DomainError
from .distrib import PROBES, EpsilonLadder

__all__ = ["RunConfig", "load_config_file", "build_run_config", "parse_floats"]

_FORMATS = ("json", "csv", "md")


@dataclass
class RunConfig:
    eps_ladder: EpsilonLadder | None = None
    probe: str = "gaussian"
    out: str | None = None
    format: str = "json"
    global_tol: float | None = None
    tol_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.format not in _FORMATS:
            raise DomainError("format in {json, csv, md}",
                              f"unknown format {self.format!r}")
        if self.probe not in PROBES:
            raise DomainError("probe in catalog",
                              f"unknown probe {self.probe!r}; "
                              f"choices: {sorted(PROBES)}")
        tols = {"tol": self.global_tol,
                **{f"tol.{c}": t for c, t in self.tol_overrides.items()}}
        for key, tol in tols.items():
            if tol is not None and not tol > 0.0:
                raise DomainError("tol > 0", f"{key} = {tol!r} is not > 0")

    def ladder(self) -> EpsilonLadder:
        return self.eps_ladder or EpsilonLadder.default()

    def tolerance_for(self, claim_id: str, default: float) -> float:
        if claim_id in self.tol_overrides:
            return self.tol_overrides[claim_id]
        if self.global_tol is not None:
            return self.global_tol
        return default


def _number(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DomainError(f"{key} numeric",
                          f"cannot parse {key} value {text!r}") from None


def parse_floats(key: str, text: str) -> tuple[float, ...]:
    """Comma-separated numbers; a token that does not parse is a DomainError."""
    return tuple(_number(key, x) for x in text.split(",") if x.strip())


def _text(key: str, text: str) -> str:
    return text


# key -> (RunConfig field, parser(key, text)); values that are not text
# (flags argparse already typed) are taken as they are.
_KEYS = {
    "eps_ladder": ("eps_ladder",         # decreasing positive floats
                   lambda k, t: EpsilonLadder(parse_floats(k, t))),
    "probe": ("probe", _text),           # gaussian, cauchy, bump, const
    "out": ("out", _text),               # output path
    "format": ("format", _text),         # json | csv | md
    "tol": ("global_tol", _number),      # every measured sub-check
    "tol.": ("tol_overrides", _number),  # tol.<claim>: one claim's override
}


def _key_entry(key: str, where: str = ""):
    entry = _KEYS.get("tol." if key.startswith("tol.") else key)
    if entry is None:
        raise DomainError("known config keys", f"{where}unknown key {key!r}")
    return entry


def load_config_file(path: str) -> dict:
    """Parse flat `key = value` lines; '#' starts a comment."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError("key = value lines",
                                  f"{path}:{lineno}: missing '=' in {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            _key_entry(key, f"{path}:{lineno}: ")
            values[key] = val.strip()
    return values


def build_run_config(file_values: dict | None = None,
                     flag_values: dict | None = None) -> RunConfig:
    """Merge config-file values and flag values; flags win."""
    merged = dict(file_values or {})
    for k, v in (flag_values or {}).items():
        if v is not None:
            merged[k] = v

    kwargs: dict = {"tol_overrides": {}}
    for key, val in merged.items():
        name, parse = _key_entry(key)
        value = parse(key, val) if isinstance(val, str) else val
        if name == "tol_overrides":
            kwargs[name][key[len("tol."):]] = value
        else:
            kwargs[name] = value
    return RunConfig(**kwargs)
