"""Report records shared by the radial and inequality modules.

Convention: `lhs` is always the side asserted greater-or-equal, and the
records store only these independent values. `deficit` (lhs - rhs) and
`passed` (deficit >= -tolerance) are derived properties of a report, as are
a sweep's `n_pass` / `n_fail` (counted from its rows) and its
`empirical_constant` (the smallest stability ratio of its rows). Checks of
strict positivity fold their required margin into `rhs`; composite checks
(several conditions in one report) put their worst margin in `lhs` against
rhs = 0.
The `term_provenance` map documents which formula term landed on which side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ASYMMETRY_CUTOFF = 1e-3


def stability_ratio(lhs: float, asym: float) -> float | None:
    """lhs / asym^2, the stability constant's estimate, where asym > ASYMMETRY_CUTOFF."""
    return lhs / asym**2 if asym > ASYMMETRY_CUTOFF else None


@dataclass(frozen=True)
class InequalityReport:
    name: str
    lhs: float
    rhs: float
    tolerance: float
    inputs: dict = field(default_factory=dict)
    term_provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")

    @property
    def deficit(self) -> float:
        return self.lhs - self.rhs

    @property
    def passed(self) -> bool:
        return bool(self.deficit >= -self.tolerance)


def make_report(name, lhs, rhs, tolerance, inputs=None, term_provenance=None):
    """Build a report with float sides and tolerance and its own dict copies."""
    return InequalityReport(
        name=name,
        lhs=float(lhs),
        rhs=float(rhs),
        tolerance=float(tolerance),
        inputs=dict(inputs or {}),
        term_provenance=dict(term_provenance or {}),
    )


@dataclass(frozen=True)
class SweepResult:
    """Aggregated sweep over a shape family.

    rows: list of dicts, one per (shape, check) grid point, carrying the
    report fields plus shape context (family parameters, lambda_q, E, inf_u,
    perimeter, area, asymmetry).
    """

    rows: list

    @property
    def empirical_constant(self) -> float | None:
        """Smallest stability ratio over the quantitative rows; None if none has one."""
        rows = (r for r in self.rows if r["check"] == "quantitative")
        ratios = (stability_ratio(r["lhs"], r["asymmetry"]) for r in rows)
        return min((x for x in ratios if x is not None), default=None)

    @property
    def n_pass(self) -> int:
        return sum(1 for r in self.rows if r["passed"])

    @property
    def n_fail(self) -> int:
        return len(self.rows) - self.n_pass

    @property
    def all_passed(self) -> bool:
        return self.n_fail == 0
