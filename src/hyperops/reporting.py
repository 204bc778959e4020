"""Check reports: ordered, basis-indexed, JSON-serializable.  A basis-tuple
identity is recorded by `Report.record_tuples` from each claim's set of
failing tuples, a `TupleTest`, which `linalg.identity_test` reads off the
residual's support and `geometry.FormIdentity.check` off its instances."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Callable, NamedTuple


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


class TupleTest(NamedTuple):
    """failing(t0) gives each claim's set of failing 0-indexed basis tuples:
    those starting with t0 if `sliced`, else all.  holds(*t) looks t up there,
    giving one flag, or one per claim."""

    failing: Callable
    sliced: bool = False

    def __call__(self, *t):
        flags = tuple(t not in keys for keys in self.failing(t[0]))
        return flags[0] if len(flags) == 1 else flags


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

    def record_tuples(self, claims, tuples, test: TupleTest, failures_only: bool = False,
                      at: tuple | None = None) -> bool:
        """Record each claim at each 0-indexed basis tuple t of `tuples`, at t
        1-indexed, with t as the counterexample where t is in the claim's
        failing set, read once, or once per run of tuples with one t[0] for a
        sliced test; no tuple is evaluated.  `claims` is one name, or a tuple
        of names recorded interleaved tuple by tuple.  With failures_only,
        only failing tuples are recorded; with `at`, one claim once, at those
        indices, with the first failing tuple as counterexample.  Both skip a
        read with no failing tuple unseen and record the failing ones as
        `tuples` streams past.  Returns whether every claim held."""
        names = (claims,) if isinstance(claims, str) else claims
        if at is not None and len(names) != 1:
            raise ValueError(f"record_tuples at {at} records one claim, not {names!r}")
        quiet, held, results = failures_only or at is not None, True, self.results
        for t0, group in groupby(tuples, itemgetter(0)) if test.sliced else ((None, tuples),):
            sets = test.failing(t0)
            if quiet and not any(sets):
                continue
            for t in group:
                for name, keys in zip(names, sets):
                    if t in keys:
                        idx = tuple(map((1).__add__, t))
                        if at is not None:
                            results.append(ClaimResult(name, tuple(at), False, idx))
                            return False
                        results.append(ClaimResult(name, idx, False, idx))
                        held = False
                    elif not quiet:
                        results.append(ClaimResult(name, tuple(map((1).__add__, t)), True))
        if at is not None:
            results.append(ClaimResult(names[0], tuple(at), True))
        return held

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
