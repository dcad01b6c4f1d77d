"""Check records and reports shared by the verification pipelines."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field


@dataclass
class CheckRecord:
    """Outcome of one numerical check over a sample set."""

    check: str
    passed: bool
    worst_residual: float = 0.0
    tol: float = 0.0
    failing_point: list | None = None
    detail: str = ""
    stage: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class Report:
    records: list[CheckRecord] = field(default_factory=list)

    def add(self, record: CheckRecord) -> CheckRecord:
        self.records.append(record)
        return record

    def extend(self, other: "Report"):
        self.records.extend(other.records)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.passed]

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)


def record_from_samples(check, residuals_points, tol, detail="", stage="") -> CheckRecord:
    """Build a record from (residual, point) pairs: pass iff the worst
    residual stays within tol.  A NaN or infinite residual fails."""
    worst = 0.0
    worst_point = None
    for residual, point in residuals_points:
        if not residual <= worst:  # larger, or NaN
            worst = residual
            worst_point = list(map(float, point))
            if math.isnan(worst):
                break
    passed = bool(math.isfinite(worst) and worst <= tol)
    return CheckRecord(
        check=check,
        passed=passed,
        worst_residual=float(worst),
        tol=float(tol),
        failing_point=None if passed else worst_point,
        detail=detail,
        stage=stage,
    )
