"""The extractor's one phase clock: :class:`~repro.core.stats.PhaseTimer`.

The scanline host bills every stop to its finer phases by switching the
timer, so the phases tile a run with no gap and the clock is read a
bounded number of times per stop.  Both properties are checked against
a counting fake clock, which makes them exact rather than statistical.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core import extract_report
from repro.core import stats as stats_module
from repro.core.scanline import PROFILE_PHASES
from repro.core.stats import PHASES, SCAN_PHASES, PhaseTimer
from repro.core.stripengine import numpy_available
from repro.tech import NMOS
from repro.workloads.chips import chip_suite

ENGINES = ["python"] + (["numpy"] if numpy_available() else [])

#: Clock reads outside the per-stop loop: opening the run, switching to
#: finalize and the closing stop.
_FIXED_READS = 3


@pytest.fixture
def fake_clock(monkeypatch):
    """Replace the timer's clock with a counter; yields every reading."""
    readings: list[int] = []
    ticks = itertools.count()

    def clock() -> int:
        readings.append(next(ticks))
        return readings[-1]

    monkeypatch.setattr(stats_module, "perf_counter", clock)
    return readings


@pytest.mark.parametrize("engine", ENGINES)
def test_phases_tile_the_run_with_bounded_clock_reads(engine, fake_clock):
    layout = chip_suite(scale=0.05, names=("cherry",), seed=1)["cherry"]
    report = extract_report(layout, NMOS(), engine=engine)
    timer, stops = report.timer, report.stats.stops
    assert stops > 0
    assert set(timer.seconds) == set(PROFILE_PHASES)
    # Every clock read bills the phase that just ended: no gap, no
    # overlap between the first read and the last.
    assert sum(timer.seconds.values()) == fake_clock[-1] - fake_clock[0]
    assert len(fake_clock) <= 5 * stops + _FIXED_READS


def test_percentages_fold_host_phases_into_paper_phases():
    timer = PhaseTimer()
    timer.seconds.update(
        frontend=4.0, expire=1.0, insert=1.0, schedule=1.0,
        strip=2.0, finalize=0.5,
    )
    timer.seconds["output"] = 0.5
    assert timer.percentages() == {
        "frontend": 40.0, "insert": 30.0, "devices": 20.0,
        "output": 10.0, "misc": 0.0,
    }


def test_every_host_phase_reports_under_a_paper_phase():
    assert PROFILE_PHASES == tuple(SCAN_PHASES)
    assert set(SCAN_PHASES.values()) <= set(PHASES)
