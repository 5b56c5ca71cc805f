"""Analysis budgets shared by the CLI and the report pipeline."""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ContractError

DEFAULT_PREFIX_LETTERS = 4**8
DEFAULT_MAX_LEN = 64
DEFAULT_K_MAX = 6
DEFAULT_D_MAX = 8
# Rotation/bracket audits embedded in `analyze` stay short so the default
# pipeline finishes quickly; `audit --max-len` runs the full-length version.
DEFAULT_EMBEDDED_AUDIT_LEN = 12


@dataclass(frozen=True)
class AnalysisConfig:
    prefix_letters: int = DEFAULT_PREFIX_LETTERS
    max_len: int = DEFAULT_MAX_LEN
    k_max: int = DEFAULT_K_MAX
    d_max: int = DEFAULT_D_MAX

    def __post_init__(self) -> None:
        for budget in fields(self):
            if getattr(self, budget.name) < 1:
                raise ContractError(f"{budget.name} must be positive")


__all__ = [
    "AnalysisConfig",
    "DEFAULT_PREFIX_LETTERS",
    "DEFAULT_MAX_LEN",
    "DEFAULT_K_MAX",
    "DEFAULT_D_MAX",
    "DEFAULT_EMBEDDED_AUDIT_LEN",
]
