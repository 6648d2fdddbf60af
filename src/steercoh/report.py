"""Verification report record shared by the theorem-checking entry points."""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "PASS"
FAIL = "FAIL"
FINDING = "FINDING"
SKIP = "SKIP"


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one numeric certification run.

    margin is oriented so that nonnegative means the claimed relation held
    (up to tolerance); value_lhs / value_rhs are the two sides compared.
    FINDING marks an expected, documented violation rather than a failure.
    """

    theorem: str
    kind: str
    value_lhs: float
    value_rhs: float
    margin: float
    tolerance: float
    seeds: tuple
    converged: bool
    status: str
    details: tuple = field(default_factory=tuple)

    def as_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "kind": self.kind,
            "value_lhs": self.value_lhs,
            "value_rhs": self.value_rhs,
            "margin": self.margin,
            "tolerance": self.tolerance,
            "seeds": list(self.seeds),
            "converged": self.converged,
            "status": self.status,
            "details": list(self.details),
        }
