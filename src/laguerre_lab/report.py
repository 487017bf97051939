"""Check modes, violation records, and the report type all verifiers emit.

A report is deterministic for equal (plane, check, mode): enumeration
order is canonical and sampling is a pure function of the seed, so two
runs differ at most in `elapsed_seconds`.  JSON serialization therefore
pins the key order and writes elapsedSeconds as 0.0 unless real timings
are explicitly requested.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["CheckMode", "Violation", "CheckReport", "MAX_VIOLATIONS", "EXHAUSTIVE_LIMIT",
           "circle_obj", "pair_obj"]

# Violations recorded per report; counting continues past the cap.
MAX_VIOLATIONS = 20

# Exhaustive runs are refused when the generator's a-priori choice space
# is larger than this.
EXHAUSTIVE_LIMIT = 10**8


@dataclass(frozen=True)
class CheckMode:
    kind: str  # "exhaustive" | "sample"
    count: int | None = None
    seed: int | None = None
    # where a view of the mode starts (`checks._sweep`); never serialized.
    # A chunk view of a sampled mode covers stream rows start ..
    # start+count-1; a view of an exhaustive mode covers first choices
    # start .. start+count-1 (`checks._firsts`), and count None all of them.
    # A first choice is a circle, a point of the Pi family, or a closure's
    # (C1, pencil selector) pair, C1-major
    start: int = 0

    @classmethod
    def exhaustive(cls) -> "CheckMode":
        return cls("exhaustive")

    @classmethod
    def sample(cls, count: int, seed: int) -> "CheckMode":
        if count <= 0:
            raise ValueError("sample count must be positive")
        return cls("sample", count=count, seed=int(seed))

    @property
    def is_sample(self) -> bool:
        return self.kind == "sample"

    def label(self) -> str:
        return "exhaustive" if self.kind == "exhaustive" else f"sample:{self.count}"


def circle_obj(plane, cid) -> dict:
    """A circle as reports write it: its id, and its coefficients or None."""
    coef = plane.circle_coef(cid)
    return {"id": int(cid), "coef": None if coef is None else list(coef)}


def pair_obj(plane, K, L) -> dict:
    """A circle pair as the symmetry lines write it."""
    return {"K": circle_obj(plane, K), "L": circle_obj(plane, L)}


@dataclass(frozen=True)
class Violation:
    """One failed configuration, replayable from point/circle ids."""

    kind: str
    points: tuple[int, ...] = ()
    circles: tuple[int, ...] = ()
    data: tuple[tuple[str, int], ...] = ()

    def to_obj(self, plane) -> dict:
        return {
            "kind": self.kind,
            "points": [int(p) for p in self.points],
            "circles": [circle_obj(plane, cid) for cid in self.circles],
            "data": {k: int(v) for k, v in self.data},
        }


@dataclass
class CheckReport:
    check_id: str
    mode: CheckMode
    configurations: int = 0
    hypothesis_hits: int = 0
    skipped: int = 0
    violations: list[Violation] = field(default_factory=list)
    violation_count: int = 0  # total, including those past the record cap
    verdict: str = ""
    elapsed_seconds: float = 0.0
    notes: tuple[str, ...] = ()
    # the ranks of the witnesses where `record` ranks them
    ranks: list[int] = field(default_factory=list, repr=False, compare=False)

    def finalize(self) -> "CheckReport":
        if not self.verdict:
            if self.violation_count:
                self.verdict = "Fails"
            elif self.mode.is_sample:
                self.verdict = "Holds(sampled)"
            else:
                self.verdict = "Holds"
        return self

    @property
    def holds(self) -> bool:
        return self.verdict in ("Holds", "Holds(sampled)")

    @property
    def fails(self) -> bool:
        return self.verdict == "Fails"

    def add_violation(self, violation: Violation) -> None:
        self.violation_count += 1
        if len(self.violations) < MAX_VIOLATIONS:
            self.violations.append(violation)

    def merge(self, part: "CheckReport") -> None:
        """Add the counts of `part`, a report over the rows that follow this
        one's, and its witnesses while they fit under `MAX_VIOLATIONS`."""
        self.configurations += part.configurations
        self.hypothesis_hits += part.hypothesis_hits
        self.skipped += part.skipped
        self.violation_count += part.violation_count
        self.violations.extend(part.violations[:MAX_VIOLATIONS - len(self.violations)])

    def record(self, mask: np.ndarray, make, rank=None) -> None:
        """Count every set entry of the boolean array `mask` as a violation,
        and record `make(i)` for the first flat indexes i, in index order,
        that still fit under `MAX_VIOLATIONS`.

        With `rank`, the witnesses are instead the violations of least rank
        among those held and these, kept in rank order, so calls may come in
        any order.  `rank(mask, worst)` returns the flat indexes of the set
        entries that may rank below `worst`, the rank of the last witness
        once the cap is reached (else None), and their ranks, distinct ints
        across calls."""
        n = int(np.count_nonzero(mask))
        if not n:
            return
        self.violation_count += n
        if rank is None:
            room = MAX_VIOLATIONS - len(self.violations)
            if room > 0:
                self.violations.extend(make(int(i)) for i in np.flatnonzero(mask)[:room])
            return
        idx, ranks = rank(mask, self.ranks[-1] if len(self.ranks) == MAX_VIOLATIONS else None)
        if not len(idx):
            return
        kept = sorted([*zip(self.ranks, self.violations), *zip(ranks.tolist(), idx.tolist())],
                      key=lambda t: t[0])[:MAX_VIOLATIONS]
        self.ranks = [r for r, _ in kept]
        self.violations = [v if isinstance(v, Violation) else make(v) for _, v in kept]

    def elapsed(self, timings: bool) -> float:
        """elapsedSeconds as written: the real time under timings, else 0.0."""
        return round(self.elapsed_seconds, 6) if timings else 0.0

    def to_obj(self, plane, timings: bool = False) -> dict:
        # Pinned key order; floats appear only in elapsedSeconds.
        return {
            "check": self.check_id,
            "q": int(plane.q),
            "model": plane.label,
            "mode": self.mode.label(),
            "seed": None if self.mode.seed is None else int(self.mode.seed),
            "configurations": int(self.configurations),
            "skipped": int(self.skipped),
            "violations": [v.to_obj(plane) for v in self.violations],
            "verdict": self.verdict,
            "elapsedSeconds": self.elapsed(timings),
        }

    def to_json(self, plane, timings: bool = False) -> str:
        return json.dumps(self.to_obj(plane, timings=timings), separators=(",", ":"))

    def to_text(self, plane, timings: bool = False) -> str:
        head = (
            f"[{self.verdict:>14}] {self.check_id:<10} q={plane.q} model={plane.label} "
            f"mode={self.mode.label()} configs={self.configurations} "
            f"hits={self.hypothesis_hits} skipped={self.skipped} "
            f"violations={self.violation_count}"
        )
        if timings:
            head += f" ({self.elapsed_seconds:.2f}s)"
        lines = [head]
        for v in self.violations:
            lines.append(f"    {v.kind}: points={list(v.points)} circles={list(v.circles)} "
                         f"data={dict(v.data)}")
        lines.extend(f"    note: {n}" for n in self.notes)
        return "\n".join(lines)


CSV_FIELDS = ("check", "q", "model", "mode", "seed", "configurations",
              "skipped", "violationCount", "verdict", "elapsedSeconds")


def report_csv_row(report: CheckReport, plane, timings: bool = False) -> list:
    """The `CSV_FIELDS` of the JSON object; `csv` writes a None seed empty."""
    obj = report.to_obj(plane, timings=timings) | {"violationCount": int(report.violation_count)}
    return [obj[k] for k in CSV_FIELDS]
