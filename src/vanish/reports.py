"""Structured verification outcomes.

A VerificationReport separates three questions that are easy to blur:
whether a claim's hypotheses hold (``applicable``), whether the computed
route is trusted (``certified``), and what the computation found
(``holds``).  A failed check under an uncertified route is inconclusive,
not a counterexample.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .poly import Polynomial


@dataclass
class HypothesisReport:
    """Pairwise hypothesis data: radical of the sum, dimension count."""

    radical_sum_is_maximal: bool
    dim_p: int
    dim_q: int
    dims_sum_to_d: bool
    notes: list[str] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return self.radical_sum_is_maximal and self.dims_sum_to_d

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class VerificationReport:
    claim: str
    hypotheses: HypothesisReport | None
    holds: bool
    witness: Polynomial | None = None
    timings: dict[str, float] = field(default_factory=dict)
    applicable: bool = True
    certified: bool = True
    notes: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)
    case_id: str | None = None

    @property
    def is_failure(self) -> bool:
        """A trusted, applicable claim that came out false."""
        return self.applicable and self.certified and not self.holds

    def to_dict(self, include_timings: bool = False) -> dict:
        out = {
            "claim": self.claim,
            "case_id": self.case_id,
            "applicable": self.applicable,
            "certified": self.certified,
            "holds": self.holds,
            "hypotheses": self.hypotheses.to_dict() if self.hypotheses else None,
            "witness": str(self.witness) if self.witness is not None else None,
            "notes": list(self.notes),
            "data": self.data,
        }
        if include_timings:
            out["timings"] = dict(self.timings)
        return out

