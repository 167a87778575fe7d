"""Check results and report rendering for the differential harness.

Every verification pass (round-trip fuzzing, cross-backend differential
testing, simulator conservation invariants) reduces to a flat list of
:class:`CheckResult` rows; :class:`CheckReport` aggregates them and
renders the terminal report ``repro check`` prints. Keeping the result
type dumb (name / passed / detail / units checked) lets the CLI exit
code, the report text and the test assertions all read the same data.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named verification check.

    Attributes:
        name: Stable dotted identifier, e.g. ``"roundtrip.bdi.zeros"``
            or ``"invariant.mshr.PVC.bestofall"``. Failures are reported
            by this name, so it must be specific enough to act on.
        passed: Whether the check held.
        checked: How many units were examined (lines fuzzed, SMs
            audited, ...) — lets the report show coverage, not just
            pass/fail.
        detail: Human-readable elaboration; on failure it carries the
            first counterexample.
    """

    name: str
    passed: bool
    checked: int = 0
    detail: str = ""


@dataclass
class CheckReport:
    """An ordered collection of check results plus rendering."""

    results: list[CheckResult] = field(default_factory=list)

    def extend(self, results: list[CheckResult]) -> None:
        self.results.extend(results)

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.passed]

    @property
    def checked(self) -> int:
        return sum(r.checked for r in self.results)

    def render(self, verbose: bool = False) -> str:
        """The terminal report.

        Groups results by their name up to the first ``.`` or ``:``
        (``roundtrip``, ``invariant``, ``fig7``), prints one summary line per
        group, and lists every failing check by full name with its
        counterexample. ``verbose`` additionally lists passing checks.
        """
        lines: list[str] = []
        groups: dict[str, list[CheckResult]] = {}
        for result in self.results:
            group = re.split(r"[.:]", result.name, maxsplit=1)[0]
            groups.setdefault(group, []).append(result)
        for group, rows in groups.items():
            passed = sum(1 for r in rows if r.passed)
            units = sum(r.checked for r in rows)
            status = "ok" if passed == len(rows) else "FAIL"
            lines.append(
                f"{group:<14} {status:<4} "
                f"{passed}/{len(rows)} checks, {units} units"
            )
            shown = rows if verbose else [r for r in rows if not r.passed]
            for row in shown:
                mark = "pass" if row.passed else "FAIL"
                detail = f" — {row.detail}" if row.detail else ""
                lines.append(f"  {mark} {row.name}{detail}")
        lines.append("")
        if self.ok:
            lines.append(
                f"all {len(self.results)} checks passed "
                f"({self.checked} units)"
            )
        else:
            names = ", ".join(r.name for r in self.failures)
            lines.append(
                f"{len(self.failures)} of {len(self.results)} checks "
                f"FAILED: {names}"
            )
        return "\n".join(lines)
