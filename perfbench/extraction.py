"""The in-process workloads: flat ``suite`` and hierarchical ``hext``.

Every job runs the path ``ace-extract`` runs (GC on, engine ``auto``)
from generated CIF text to wirelist text.  Jobs run back to back in
passes until the run's seconds are spent.  Outputs are checked only
after the timed passes, against references the timed path did not
produce: the ``python`` strip engine for flat jobs, and a flat
``python``-engine extraction compared through
``compare_netlists(flatten(parse_wirelist(...)))`` for HEXT jobs.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

from common import (
    HostMeter,
    Outcome,
    digest,
    flat_device_count,
    map_workers,
    median,
    peak_rss_mb,
    probe_argv,
    time_setup,
)
from tracer import Tracer, TimedStream

from repro.cif import parse, write
from repro.core import extract_report
from repro.core.scanline import ScanlineEngine
from repro.core.stats import PhaseTimer
from repro.frontend import GeometryStream
from repro.hext import hext_extract
from repro.hext.extractor import (
    HextResult,
    HextStats,
    compose_plan,
    execute_plan,
    plan_windows,
)
from repro.hext.windows import WindowPlanner
from repro.hext.wirelist import to_hierarchical_wirelist
from repro.tech import NMOS
from repro.wirelist import (
    compare_netlists,
    flatten,
    parse_wirelist,
    to_wirelist,
    write_wirelist,
)
from repro.workloads.chips import chip_suite

#: The suite runs at quarter scale so that a pass plus its python-engine
#: reference fits one run; see perfbench/README.md.
SUITE_SCALE = 0.25
HEXT_CHIPS = ("cherry", "dchip", "schip2", "testram")
#: HEXT chips built from their canonical seed whatever ``--seed`` is.
#: ``schip2`` is about 80% of a HEXT pass and its work varies by ±20%
#: from one generator seed to the next; re-drawn, it alone would spread
#: ``devices_per_s`` past its bound.  It still crashes at every seed.
HEXT_FIXED = ("schip2",)
RESOLUTION = 50

#: Counters whose workload value is a maximum rather than a sum.
PEAK_COUNTS = ("frontend.peak_pending", "core.peak_active")


def workload_inputs(workload: str, seed: int) -> "list[tuple[str, str]]":
    """``(job name, CIF text)`` for every job of one pass."""
    if workload == "suite":
        chips = chip_suite(SUITE_SCALE, seed=seed)
        return [(f"{name}.cif", write(layout)) for name, layout in chips.items()]
    if workload == "hext":
        chips = chip_suite(1.0, names=HEXT_CHIPS, seed=seed)
        chips.update(chip_suite(1.0, names=HEXT_FIXED))
        return [(f"{name}.cif", write(layout)) for name, layout in chips.items()]
    raise KeyError(workload)


# ----------------------------------------------------------------------
# jobs: (text, name, counts, tracer) -> wirelist text
# ----------------------------------------------------------------------


def flat_job(text: str, name: str, counts: dict) -> str:
    """The untraced flat path, as ``ace-extract`` runs it."""
    report = extract_report(parse(text), NMOS(), engine="auto")
    out = write_wirelist(to_wirelist(report.circuit, name=name))
    _flat_counts(counts, text, report.stats, report.frontend_stats,
                 report.circuit, out)
    return out


def flat_job_traced(text: str, name: str, counts: dict, tracer: Tracer) -> str:
    """The same path split at each layer's public entry points."""
    with tracer.span("cif.parse"):
        layout = parse(text)
    with tracer.span("frontend.open"):
        stream = GeometryStream(layout, resolution=RESOLUTION)
    with tracer.span("core.advance"):
        scan = ScanlineEngine(NMOS(), timer=PhaseTimer(), engine="auto")
        scan.advance(TimedStream(stream, tracer, "frontend.fetch"))
    with tracer.span("core.finish"):
        circuit = scan.finish()
    scan_stats, stream_stats = scan.stats, stream.stats
    # Free the sweep state where extract_report would, so both paths hold
    # the same objects while the wirelist is built.
    del scan, stream, layout
    with tracer.span("wirelist.model"):
        model = to_wirelist(circuit, name=name)
    with tracer.span("wirelist.text"):
        out = write_wirelist(model)
    _flat_counts(counts, text, scan_stats, stream_stats, circuit, out)
    return out


def _flat_counts(counts, text, scan, stream, circuit, out) -> None:
    counts.update({
        "cif.bytes_in": len(text),
        "frontend.boxes_out": stream.boxes_out,
        "frontend.calls_expanded": stream.calls_expanded,
        "frontend.peak_pending": stream.peak_pending,
        "core.stops": scan.stops,
        "core.heap_pushes": scan.heap_pushes,
        "core.intervals_scanned": scan.intervals_scanned,
        "core.peak_active": scan.peak_active,
        "core.devices": len(circuit.devices),
        "core.nets": len(circuit.nets),
        "wirelist.bytes_out": len(out),
    })


def hext_job(text: str, name: str, counts: dict) -> str:
    """The untraced ``ace-extract --hierarchical`` path."""
    result = hext_extract(parse(text), NMOS(), engine="auto")
    _hext_counts(counts, text, result.stats)
    result.circuit  # resolved before the wirelist, as ace-extract does
    out = write_wirelist(to_hierarchical_wirelist(result, name=name))
    counts["wirelist.bytes_out"] = len(out)
    return out


def hext_job_traced(text: str, name: str, counts: dict, tracer: Tracer) -> str:
    """``hext_extract``'s plan / execute / compose, then resolve and output."""
    tech = NMOS()
    stats = HextStats()
    with tracer.span("cif.parse"):
        layout = parse(text)
    with tracer.span("hext.plan"):
        planner = WindowPlanner(layout, RESOLUTION)
        top = planner.top_content()
        plan = plan_windows(planner, top, stats)
    with tracer.span("hext.execute"):
        memo = execute_plan(plan, tech, stats, resolution=RESOLUTION,
                            engine="auto")
    with tracer.span("hext.compose"):
        fragment = compose_plan(plan, memo, tech, stats)
    result = HextResult(
        fragment=fragment,
        origin=(top.region.xmin, top.region.ymin),
        stats=stats,
        tech=tech,
    )
    _hext_counts(counts, text, stats)
    with tracer.span("hext.resolve"):
        result.circuit
    with tracer.span("wirelist.model"):
        model = to_hierarchical_wirelist(result, name=name)
    with tracer.span("wirelist.text"):
        out = write_wirelist(model)
    counts["wirelist.bytes_out"] = len(out)
    return out


def _hext_counts(counts, text, stats) -> None:
    counts.update({
        "cif.bytes_in": len(text),
        "hext.windows_seen": stats.windows_seen,
        "hext.unique_windows": stats.unique_windows,
        "hext.memo_hits": stats.memo_hits,
        "hext.flat_calls": stats.flat_calls,
        "hext.compose_calls": stats.compose_calls,
    })


def reference_text(text: str, name: str) -> str:
    """The flat wirelist from the reference (``python``) strip engine."""
    report = extract_report(parse(text), NMOS(), engine="python")
    return write_wirelist(to_wirelist(report.circuit, name=name))


def check_flat(job: tuple) -> "tuple[str, int]":
    """Digest and device count of a flat job's reference wirelist."""
    name, text, _ = job
    ref = reference_text(text, name)
    return digest(ref), flat_device_count(ref)


def check_hext(job: tuple) -> "tuple[str | None, int]":
    """Digest of the HEXT output if it matches the flat reference.

    Returns ``(None, count)`` when the flattened HEXT wirelist is not
    equivalent to the reference's.
    """
    name, text, output = job
    flat_ref = flatten(parse_wirelist(reference_text(text, name)))
    equivalent = compare_netlists(
        flatten(parse_wirelist(output)), flat_ref
    ).equivalent
    return (digest(output) if equivalent else None), len(flat_ref.devices)


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------


@dataclass
class Pass:
    traced: bool
    #: seconds inside the jobs, host samples included (collection between
    #: jobs excluded); the traced spans are reconciled against it
    wall: float = 0.0
    times: dict = field(default_factory=dict)  #: job -> seconds
    #: job -> seconds of the reference host (see ``common.HostMeter``)
    scaled: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)  #: job -> sha256
    errors: dict = field(default_factory=dict)  #: job -> message
    counts: dict = field(default_factory=dict)  #: job -> {counter: n}
    span_range: "tuple[int, int]" = (0, 0)


def run_passes(inputs, job, traced_job, seconds, trace, tracer, keep=None):
    """Run passes over ``inputs`` until ``seconds`` have been spent.

    Untraced runs start passes while time remains.  Traced runs
    alternate untraced and traced passes, at least one of each, so the
    tracing overhead and the counter repeat check both have material.
    Each job runs under a ``HostMeter``, so its seconds can be scaled
    to the reference host.
    When given, ``keep`` receives the first output text of each job, for
    checks that need the text and not just its digest.
    """
    passes: "list[Pass]" = []
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        enough = len(passes) >= (2 if trace else 1)
        if enough and elapsed >= seconds:
            return passes
        current = Pass(traced=trace and len(passes) % 2 == 1)
        outputs = {}
        mark = tracer.mark()
        for name, text in inputs:
            counts = current.counts[name] = {}
            # Start every job from a collected heap, as a fresh process
            # would; otherwise when the cyclic collector's full passes
            # fall depends on the jobs before, and job times swing by a
            # third from one pass to the next.
            gc.collect()
            meter = HostMeter()
            try:
                with meter:
                    if current.traced:
                        outputs[name] = traced_job(text, name, counts, tracer)
                    else:
                        outputs[name] = job(text, name, counts)
            except Exception as exc:  # a failed job is a result, not a crash
                current.errors[name] = f"{type(exc).__name__}: {exc}"[:300]
            current.times[name] = meter.seconds
            current.scaled[name] = meter.scaled
            current.wall += meter.elapsed
        current.span_range = (mark, tracer.mark())
        for name, out in outputs.items():
            current.digests[name] = digest(out)
            if keep is not None:
                keep.setdefault(name, out)
        del outputs
        passes.append(current)


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    hierarchical = workload == "hext"
    inputs = workload_inputs(workload, seed)
    job, traced_job = (
        (hext_job, hext_job_traced) if hierarchical
        else (flat_job, flat_job_traced)
    )
    setup_s, raw_setup_s = time_setup(
        probe_argv("hext" if hierarchical else "flat"), b"ready"
    )
    # Warm this process: imports are done; pay the lazy set-up (engine,
    # first-use code paths) on the smallest chip before anything is timed.
    name, text = inputs[0]
    job(text, name, {})

    tracer = Tracer()
    first_text: "dict | None" = {} if hierarchical else None
    passes = run_passes(inputs, job, traced_job, seconds, trace, tracer,
                        first_text)
    peak_mb = peak_rss_mb()

    # -- verification, outside every timed region -----------------------
    checks = []  # (name, text, hext output or None) of jobs with output
    for name, text in inputs:
        attempts = [p for p in passes if name in p.digests or name in p.errors]
        outcome.attempted += len(attempts)
        for p in attempts:
            if name in p.errors:
                outcome.fail(f"{name}: {p.errors[name]}")
        if any(name in p.digests for p in attempts):
            checks.append((name, text, first_text[name] if hierarchical else None))
    check = check_hext if hierarchical else check_flat
    devices = {}  # job -> device count of its verified output
    for (name, _, _), (expected, count) in zip(checks, map_workers(check, checks)):
        produced = [p.digests[name] for p in passes if name in p.digests]
        good = [expected is not None and d == expected for d in produced]
        for ok in good:
            if not ok:
                outcome.fail(f"{name}: output differs from reference", True)
        if all(good):
            devices[name] = count
    _check_counts(passes, outcome)

    untraced = [p for p in passes if not p.traced]
    # A pass's seconds taken job by job, each the job's median over the
    # run's passes, so a slow spell of the machine that catches one job
    # in one pass does not move the figure.
    def pass_seconds(times: str) -> float:
        return sum(
            median([getattr(p, times)[name] for p in untraced])
            for name, _ in inputs
        )

    verified = sum(devices.values())
    outcome.metrics = {
        "setup_s": setup_s,
        "devices_per_s": verified / pass_seconds("scaled"),
        "peak_rss_mb": peak_mb,
    }
    outcome.extra = {
        "raw_setup_s": raw_setup_s,
        "raw_devices_per_s": verified / pass_seconds("times"),
        "passes": len(untraced),
        "pass_wall_s": [round(p.wall, 4) for p in untraced],
        "devices_per_pass": sum(devices.values()),
    }
    if trace:
        outcome.metrics.update(_layer_metrics(passes, tracer))
    outcome.tracer = tracer
    return outcome


def _check_counts(passes, outcome) -> None:
    """Every job's counters must repeat exactly from pass to pass."""
    for name in passes[0].counts:
        seen = {}
        for p in passes:
            if name not in p.counts:
                continue
            for key, value in p.counts[name].items():
                if seen.setdefault(key, value) != value:
                    outcome.problems.append(
                        f"{name}: counter {key} changed between passes "
                        f"({seen[key]} then {value})"
                    )


def _layer_metrics(passes, tracer) -> dict:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    summaries = [tracer.summary(*p.span_range) for p in traced]

    def span_total(*names, self_only=False):
        key = "self" if self_only else "totals"
        return median([sum(s[key].get(n, 0.0) for n in names) for s in summaries])

    counts: dict = {}
    for name, job_counts in traced[-1].counts.items():
        for key, value in job_counts.items():
            if key in PEAK_COUNTS:
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value
    metrics = {
        "cif.parse_s": span_total("cif.parse"),
        "frontend.fetch_s": span_total("frontend.open", "frontend.fetch"),
        "core.scan_s": span_total("core.advance", self_only=True),
        "core.finalize_s": span_total("core.finish"),
        "wirelist.model_s": span_total("wirelist.model"),
        "wirelist.text_s": span_total("wirelist.text"),
        "hext.plan_s": span_total("hext.plan"),
        "hext.execute_s": span_total("hext.execute"),
        "hext.compose_s": span_total("hext.compose"),
        "hext.resolve_s": span_total("hext.resolve"),
    }
    metrics.update(counts)
    if counts.get("hext.windows_seen"):
        metrics["hext.memo_hit_ratio"] = (
            counts["hext.memo_hits"] / counts["hext.windows_seen"]
        )
    traced_wall = sum(p.wall for p in traced)
    top_level = sum(s["top_level"] for s in summaries)
    metrics.update(trace_metrics(
        traced_wall=median([p.wall for p in traced]),
        untraced_wall=median([p.wall for p in untraced]),
        coverage=top_level / traced_wall,
        unaccounted=median([
            p.wall - s["top_level"] for p, s in zip(traced, summaries)
        ]),
        spans=median([s["spans"] for s in summaries]),
        summaries=summaries,
    ))
    return metrics


def trace_metrics(*, traced_wall, untraced_wall, coverage, unaccounted,
                  spans, summaries) -> dict:
    """The ``trace.*`` reconciliation metrics and per-layer self time."""
    layers: dict = {}
    for summary in summaries:
        for name, seconds in summary["self"].items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + seconds
    out = {
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.coverage": coverage,
        "trace.unaccounted_s": unaccounted,
        "trace.spans": spans,
    }
    for layer in ("cif", "frontend", "core", "wirelist", "hext", "service"):
        out[f"{layer}.self_s"] = layers.get(layer, 0.0) / len(summaries)
    return out
