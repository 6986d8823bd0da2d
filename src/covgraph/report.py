"""Uniform pass/fail reports for the verification sweeps."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Report:
    name: str
    checked: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def add_violation(self, message: str) -> None:
        self.violations.append(message)
