"""Resource caps for enumerations and closures.

Every layer checks its caps through Limits.check, or check_power for a
count sized as a power, the only places that raise ResourceBoundError
(exit code 3 in the CLI), in one shape: "{what} needs {count}, more
than {name} ({cap})", naming the layer and the work it asked for, then
the field that refused it; a power of 2^64 or more is shown as one,
such as 2^16384.  A data-file header over max_materialize is refused
in the same words, as a ParseError at its line (exit 2).
GALOIS_MAX_CANDIDATES in the environment overrides the candidate cap
for a CLI invocation; library callers pass a Limits value instead.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .core import _check_count
from .errors import ResourceBoundError

ENV_MAX_CANDIDATES = "GALOIS_MAX_CANDIDATES"


@dataclass(frozen=True)
class Limits:
    max_candidates: int = 10_000_000  # enumeration size: subsets, tables, combinations
    max_closure: int = 1_000_000  # operations held by one clone closure, or by one arity's slice of it
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

    def check(self, name: str, count: int, what: str) -> None:
        """Refuse count when it exceeds the cap held in the field called name."""
        cap = getattr(self, name)
        if count > cap:
            raise ResourceBoundError(f"{what} needs {count}, more than {name} ({cap})")

    def check_power(self, name: str, base: int, exponent: int, what: str) -> None:
        """Refuse base^exponent when it exceeds the cap held in the field
        called name (see _power)."""
        cap = getattr(self, name)
        count, shown = _power(base, exponent, cap)
        if count > cap:
            raise ResourceBoundError(f"{what} needs {shown}, more than {name} ({cap})")


def _power(base: int, exponent: int, cap: int) -> tuple[int, int | str]:
    """base^exponent, exact whenever it is within cap, and how a refusal
    shows it.  An exponent over 64 is cut at b, the larger of 64 and the
    cap's bit length: as 2^b > cap, the cut power passes the cap exactly
    when the whole one does.  A power of 2^64 or more is shown as
    base^exponent, as str() refuses ints of over 4,300 digits."""
    count = base ** (exponent if exponent <= 64 else min(exponent, max(64, cap.bit_length())))
    return count, count if count < 1 << 64 else f"{base}^{exponent}"


DEFAULT_LIMITS = Limits()
