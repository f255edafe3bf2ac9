"""Run configuration: one declarative text file plus flag overrides.

Config files are `key = value` lines (# comments allowed). The build
commands seed each random sub-run with derive_seed(seed, purpose), one
purpose code per sub-run below, so sub-runs are independent and reproducible
in isolation. The read-side commands (verify, pcp, round) take no config and
seed their draws with `--seed` itself.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .quotient import PIPELINE_MAX_K
from .tensor import INNER_POWER_LIMIT

__all__ = ["RunConfig", "FIELD_PARSERS", "parse_config_file", "derive_seed", "SEED_PURPOSE"]

# seed-splitting purpose codes (documented contract, keep stable)
SEED_PURPOSE = {
    "opt_search": 1,
    "cut_search": 5,
    "cut_mc": 9,
}


def derive_seed(seed: int, purpose: str) -> int:
    """The documented splitting scheme: sub-seed = seed * 1009 + purpose code."""
    return seed * 1009 + SEED_PURPOSE[purpose]


@dataclass
class RunConfig:
    k: int = 2
    eta: float = 0.3
    epsilon: float = 0.3
    t: int = 1
    l_in: int = 8
    window: str = "typical"
    seed: int = 0
    budget_triples: int = 200_000  # validated but unused: triangle checks cover every triple
    budget_samples: int = 100_000
    budget_restarts: int = 10
    budget_labelings: int = 100_000_000
    out: str = "runs"

    def validate(self) -> "RunConfig":
        if not 1 <= self.k <= PIPELINE_MAX_K:
            raise ValueError(f"k={self.k} outside [1, {PIPELINE_MAX_K}]")
        if not 0 < self.eta < 0.5:
            raise ValueError(f"eta={self.eta} outside (0, 1/2)")
        if not 0 < self.epsilon < 0.5:
            raise ValueError(f"epsilon={self.epsilon} outside (0, 1/2)")
        if self.t < 1 or self.t % 2 == 0:
            raise ValueError(f"t={self.t} must be a positive odd integer")
        if not 2 <= self.l_in <= INNER_POWER_LIMIT or self.l_in % 2:
            raise ValueError(f"l_in={self.l_in} must be even, in [2, {INNER_POWER_LIMIT}]")
        if self.window not in ("typical", "none"):
            raise ValueError(f"window={self.window!r} not in {{typical, none}}")
        for name in ("budget_triples", "budget_samples", "budget_restarts",
                     "budget_labelings"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        return self


# the one list of config fields, each with its text parser (the field types
# are annotation strings); config files and command-line flags both read it
FIELD_PARSERS = {f.name: {"int": int, "float": float}.get(f.type, str) for f in fields(RunConfig)}


def parse_config_file(text: str) -> dict:
    """Parse `key = value` lines into a RunConfig kwargs dict; a malformed
    line, an unknown key or an unparsable number raises ValueError naming
    the line."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in FIELD_PARSERS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        try:
            out[key] = FIELD_PARSERS[key](val)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return out
