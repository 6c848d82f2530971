"""Structured pass/fail reports returned by the validators."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import StructureError


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class ValidationReport:
    subject: str
    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        """Record a check; a passing check carries no detail."""
        self.checks.append(Check(name, ok, "" if ok else detail))

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def summary(self) -> str:
        """The failing checks as ``name: detail; ...``."""
        return "; ".join(f"{c.name}: {c.detail}" for c in self.failures())

    def raise_if_failed(self) -> "ValidationReport":
        if not self.ok:
            raise StructureError(f"{self.subject} failed validation: {self.summary()}")
        return self

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks
            ],
        }
