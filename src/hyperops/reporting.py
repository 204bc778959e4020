"""Check reports: ordered, basis-indexed, JSON-serializable.  A basis-tuple
identity is recorded by `Report.record_tuples` from its per-tuple test,
`linalg.identity_test` (or `geometry.FormIdentity` for a form identity)."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ClaimResult:
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

    def record_tuples(self, claims, tuples, holds, failures_only: bool = False,
                      at: tuple | None = None) -> bool:
        """Evaluate holds(*t) at each 0-indexed basis tuple t and record the
        outcome at t 1-indexed, with t as the counterexample when it fails.

        `claims` is one claim name, or a tuple of names for which holds
        returns one flag each, recorded interleaved tuple by tuple.  With
        failures_only, only failing tuples are recorded.  With `at`, the one
        claim is recorded once, at those indices, with the first failing
        tuple as counterexample.  Returns whether every evaluation held."""
        single = isinstance(claims, str)
        names = (claims,) if single else claims
        held = True
        for t in tuples:
            flags = holds(*t)
            for name, ok in zip(names, (flags,) if single else flags):
                if ok and (failures_only or at is not None):
                    continue
                held = held and ok
                idx = tuple(map((1).__add__, t))
                if at is not None:
                    self.record(name, at, False, idx)
                    return False
                self.record(name, idx, ok, None if ok else idx)
        if at is not None:
            self.record(claims, at, True)
        return held

    def require(self, message: str) -> "Report":
        """This report if every claim passed; otherwise raises PreconditionError(message, self)."""
        if not self.passed:
            raise PreconditionError(message, self)
        return self

    def note(self, text: str) -> None:
        self.notes.append(text)

    def merge(self, other: "Report", prefix: str = "") -> None:
        for r in other.results:
            claim = f"{prefix}{r.claim}" if prefix else r.claim
            self.results.append(ClaimResult(claim, r.indices, r.passed, r.counterexample, r.detail))
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
