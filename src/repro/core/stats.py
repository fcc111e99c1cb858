"""Extraction statistics: phase timers and scanline counters.

The paper reports a coarse distribution of extraction time (section 5:
40% parse/sort, 15% list insertion, 20% device computation, 10% storage/
IO/init, 15% miscellaneous) and an expected-complexity analysis in terms
of scanline stops and active-list length.  This module is how the
benchmarks observe both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

#: Phase keys, mirroring the paper's breakdown.
PHASES = ("frontend", "insert", "devices", "output", "misc")

#: The scanline host's phases, each mapped to the paper phase it is
#: reported under.  The host bills its time to these finer phases;
#: :meth:`PhaseTimer.percentages` folds them back into :data:`PHASES`.
SCAN_PHASES = {
    "frontend": "frontend",
    "expire": "insert",
    "insert": "insert",
    "schedule": "insert",
    "strip": "devices",
    "finalize": "output",
}


@dataclass
class PhaseTimer:
    """Accumulates wall-clock time per extraction phase.

    Phases switch back to back, so the seconds tile the run from the
    first :meth:`start` to :meth:`stop` with no gap.  A phase outside
    :data:`SCAN_PHASES` (``output`` for streamed emission) gets its key
    on first use.
    """

    seconds: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(SCAN_PHASES, 0.0)
    )
    _started: float = 0.0
    _active: str | None = None

    def start(self, phase: str | None) -> None:
        if phase == self._active:
            return
        now = perf_counter()
        if self._active is not None:
            seconds = self.seconds
            seconds[self._active] = (
                seconds.get(self._active, 0.0) + now - self._started
            )
        self._active = phase
        self._started = now

    def stop(self) -> None:
        """Bill the running phase and leave none running."""
        self.start(None)

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    def percentages(self) -> dict[str, float]:
        """Share of the run per paper phase (:data:`PHASES`)."""
        paper = dict.fromkeys(PHASES, 0.0)
        for phase, value in self.seconds.items():
            paper[SCAN_PHASES.get(phase, phase)] += value
        total = sum(paper.values())
        if total == 0:
            return paper
        return {phase: 100.0 * value / total for phase, value in paper.items()}


@dataclass
class ScanStats:
    """Counters for the complexity claims of section 4."""

    boxes_in: int = 0  #: primitive boxes received from the front-end
    stops: int = 0  #: scanline stops (loop iterations)
    strips: int = 0  #: non-empty strips processed
    active_samples: int = 0  #: sum of active-list lengths over stops
    peak_active: int = 0  #: max total active-list length
    nets_created: int = 0
    devices_created: int = 0
    merges: int = 0  #: interval merge operations
    splits: int = 0  #: continuation splits of taller boxes

    # Event-heap counters (the machine-checkable complexity guardrail:
    # per-stop scheduling work must track events, not active-list size).
    heap_pushes: int = 0  #: intervals scheduled on a bottom-edge heap
    heap_pops: int = 0  #: heap entries removed (expiries + lazy discards)
    lazy_discards: int = 0  #: popped entries already invalidated by merges
    expired: int = 0  #: live intervals retired at their bottom edge
    intervals_scanned: int = 0  #: heap entries examined across all stops
    max_stop_overhead: int = 0  #: max per-stop examinations beyond removals

    def as_dict(self) -> dict[str, int]:
        """All counters as a plain dict (checkpoint payload)."""
        return dict(vars(self))

    def restore(self, values: dict[str, int]) -> None:
        """Restore counters captured by :meth:`as_dict`."""
        for key, value in values.items():
            setattr(self, key, int(value))

    @property
    def mean_active(self) -> float:
        return self.active_samples / self.stops if self.stops else 0.0

    def observe_active(self, total_active: int) -> None:
        self.active_samples += total_active
        if total_active > self.peak_active:
            self.peak_active = total_active
