"""Check reports: ordered, basis-indexed, JSON-serializable.  A basis-tuple
identity (`Report.record_tuples`) is kept as one run, its member tuples and
each claim's failing set as `linalg.identity_test` reads them off the
residual's support, built into `ClaimResult`s when first read."""

from __future__ import annotations

from itertools import chain
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


class _Run:
    """Whether its claims passed, and their ClaimResults, kept on first read."""

    def __init__(self, passed: bool, claims):
        self.passed, self._claims = passed, claims

    def __iter__(self):
        self._claims = tuple(self._claims)  # of a tuple, the tuple itself
        return iter(self._claims)


def _expand(parts):
    """The ClaimResults of parts, in order."""
    return chain.from_iterable(p if type(p) is _Run else (p,) for p in parts)


class Report:
    """Ordered claims and runs of them; passed iff every claim passed."""

    def __init__(self, title: str = "", results=(), notes=()):
        self.title, self._parts, self.notes = title, list(results), list(notes)

    @property
    def results(self) -> list[ClaimResult]:
        """Every claim, in order, in a list of the caller's own."""
        return list(_expand(self._parts))

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self._parts)

    @property
    def violations(self) -> list[ClaimResult]:
        return [r for r in _expand(p for p in self._parts if not p.passed) if not r.passed]

    def copy(self) -> "Report":
        """This report with lists of its own, sharing its runs."""
        return Report(self.title, self._parts, self.notes)

    def record(self, claim: str, indices: tuple, passed: bool,
               counterexample: tuple | None = None, detail: str = "") -> None:
        self._parts.append(ClaimResult(claim, tuple(indices), passed, counterexample, detail))

    def record_tuples(self, claims, test: tuple, failures_only: bool = False) -> bool:
        """Record each claim at each 0-indexed member tuple t of test =
        (members, failing), at t 1-indexed, failing with t as counterexample
        where t is in the claim's failing set; with failures_only, only those.
        `claims` is one name, or a tuple of names recorded interleaved tuple
        by tuple.  Returns whether every claim held."""
        names = (claims,) if isinstance(claims, str) else claims
        tuples, failing = test

        def each():
            for t in sorted(set().union(*failing)) if failures_only else tuples:
                idx = tuple(map((1).__add__, t))
                for name, keys in zip(names, failing):
                    if t in keys:
                        yield ClaimResult(name, idx, False, idx)
                    elif not failures_only:
                        yield ClaimResult(name, idx, True)

        self._parts.append(run := _Run(not any(failing), each()))
        return run.passed

    def require(self, message: str) -> "Report":
        """This report if every claim passed; otherwise raises PreconditionError(message, self)."""
        if not self.passed:
            raise PreconditionError(message, self)
        return self

    def note(self, text: str) -> None:
        self.notes.append(text)

    def merge(self, other: "Report", prefix: str = "") -> None:
        """Append other's claims, their names prefixed, and its notes."""
        if prefix:
            self._parts.append(_Run(other.passed, (
                r._replace(claim=prefix + r.claim) for r in _expand(list(other._parts)))))
        else:
            self._parts.extend(other._parts)
        self.notes.extend(other.notes)

    def to_json(self) -> dict:
        out = {"title": self.title, "pass": self.passed,
               "claims": [r.to_json() for r in _expand(self._parts)]}
        if self.notes:
            out["notes"] = self.notes
        return out


class PreconditionError(ValueError):
    """A check's stated precondition failed; carries the offending report."""

    def __init__(self, message: str, report: Report | None = None):
        super().__init__(message)
        self.report = report
