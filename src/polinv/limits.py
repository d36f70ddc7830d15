"""Resource caps for enumerations and closures.

Every cap refusal raises ResourceBoundError, which the CLI maps to exit
code 3.  GALOIS_MAX_CANDIDATES in the environment overrides the candidate
cap for a CLI invocation; library callers pass a Limits value instead.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .core import _check_count

ENV_MAX_CANDIDATES = "GALOIS_MAX_CANDIDATES"


@dataclass(frozen=True)
class Limits:
    max_candidates: int = 10_000_000  # enumeration size: subsets, tables, combinations
    max_closure: int = 1_000_000  # operations held by one clone closure
    max_domain: int = 4  # workspace domain size
    max_enum_arity: int = 3  # operation arity in CLI enumerations
    max_index: int = 6  # partition lattice index set size
    max_materialize: int = 65536  # tuples or coordinates materialized per relation

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            _check_count(value, f"limit {name}", 1)

    @classmethod
    def from_env(cls, env: dict[str, str] | None = None) -> "Limits":
        """Default limits with the candidate cap taken from the environment."""
        env = os.environ if env is None else env
        raw = env.get(ENV_MAX_CANDIDATES)
        if raw is None:
            return cls()
        try:
            return cls(max_candidates=int(raw))
        except ValueError as exc:
            raise ValueError(f"{ENV_MAX_CANDIDATES} must be a positive integer, got {raw!r}") from exc


DEFAULT_LIMITS = Limits()
