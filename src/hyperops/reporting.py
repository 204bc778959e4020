"""Check reports: ordered, basis-indexed, JSON-serializable.  A basis-tuple
identity is recorded by `Report.record_tuples` from its member tuples and
each claim's plain set of failing ones, which `linalg.identity_test` reads
off the residual's support."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


class ClaimResult(NamedTuple):
    claim: str
    indices: tuple
    passed: bool
    counterexample: tuple | None = None
    detail: str = ""

    def to_json(self) -> dict:
        out = {"claim": self.claim, "indices": list(self.indices), "pass": self.passed}
        if self.counterexample is not None:
            out["counterexample"] = list(self.counterexample)
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class Report:
    """Ordered list of claim results; passed iff every claim passed."""

    title: str = ""
    results: list[ClaimResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def violations(self) -> list[ClaimResult]:
        return [r for r in self.results if not r.passed]

    def record(self, claim: str, indices: tuple, passed: bool,
               counterexample: tuple | None = None, detail: str = "") -> None:
        self.results.append(ClaimResult(claim, tuple(indices), passed, counterexample, detail))

    def record_tuples(self, claims, test: tuple, failures_only: bool = False) -> bool:
        """Record each claim at each 0-indexed member tuple t of test =
        (members, failing), at t 1-indexed, failing with t as counterexample
        where t is in the claim's failing set; with failures_only, only those.
        `claims` is one name, or a tuple of names recorded interleaved tuple
        by tuple.  Returns whether every claim held."""
        names = (claims,) if isinstance(claims, str) else claims
        tuples, failing = test
        results = self.results
        for t in sorted(set().union(*failing)) if failures_only else tuples:
            idx = tuple(map((1).__add__, t))
            for name, keys in zip(names, failing):
                if t in keys:
                    results.append(ClaimResult(name, idx, False, idx))
                elif not failures_only:
                    results.append(ClaimResult(name, idx, True))
        return not any(failing)

    def require(self, message: str) -> "Report":
        """This report if every claim passed; otherwise raises PreconditionError(message, self)."""
        if not self.passed:
            raise PreconditionError(message, self)
        return self

    def note(self, text: str) -> None:
        self.notes.append(text)

    def merge(self, other: "Report", prefix: str = "") -> None:
        """Append other's claims, their names prefixed, and its notes."""
        self.results.extend([r._replace(claim=prefix + r.claim) for r in other.results]
                            if prefix else other.results)
        self.notes.extend(other.notes)

    def to_json(self) -> dict:
        out = {
            "title": self.title,
            "pass": self.passed,
            "claims": [r.to_json() for r in self.results],
        }
        if self.notes:
            out["notes"] = self.notes
        return out


class PreconditionError(ValueError):
    """A check's stated precondition failed; carries the offending report."""

    def __init__(self, message: str, report: Report | None = None):
        super().__init__(message)
        self.report = report
