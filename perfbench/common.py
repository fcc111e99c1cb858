"""Helpers shared by the workloads: statistics, memory, set-up probes."""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import pickle
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_PROBES = 9
#: Worker processes the output checks are spread over.
WORKERS = 2
#: Seconds a check worker may take before the run gives up on it.
WORKER_TIMEOUT = 150

HERE = os.path.dirname(os.path.abspath(__file__))
#: The checkout the benchmark belongs to; ``repro`` is imported from its
#: ``src`` directory, never from an installed copy.
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def source_env() -> dict:
    """Environment for child processes that import ``repro`` from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def flat_device_count(wirelist_text: str) -> int:
    """Devices in a flat wirelist: one ``(Part`` line per transistor."""
    return wirelist_text.count("\n (Part ")


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live child process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


#: Entries the calibration builds, sorts and hashes (about 16 ms).
CALIBRATION_ENTRIES = 40_000
#: Seconds one calibration round takes on the reference host.  Every
#: timed figure is scaled by REFERENCE_S over what a round takes around it.
REFERENCE_S = 0.016


def calibrate() -> float:
    """Seconds a fixed piece of pure-Python work takes now, mean of three.

    The host this runs on is shared: its speed drifts by half or more in
    spells of seconds to minutes, and CPU time drifts with it.  The work
    (build a list of tuples, fill a dict from it, sort it) does not touch
    the program, but allocates and hashes as the extractor does, so it
    slows with the host as the jobs do; the ratio of a job's time to the
    rounds' time around it is the job's cost on a host of fixed speed.
    """
    started = time.perf_counter()
    for _ in range(3):
        data = [((i * 7919) % 200_003, i) for i in range(CALIBRATION_ENTRIES)]
        table = {}
        for key, value in data:
            table[key] = value
        data.sort()
        del data, table
    return (time.perf_counter() - started) / 3


def host_scale(before: float, after: float) -> float:
    """Factor turning seconds timed between two calibrations into
    seconds of the reference host."""
    return REFERENCE_S / ((before + after) / 2)


#: Iterations of the loop ``HostMeter`` samples (about 2 ms on an idle host).
SAMPLE_LOOPS = 30_000
#: Seconds the sampled loop takes on the reference host.
SAMPLE_REFERENCE_S = 0.002
#: Seconds between two samples while a job runs.
SAMPLE_PERIOD_S = 0.1


def _loop_seconds() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(SAMPLE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - started


class HostMeter:
    """Times a job and samples the host's speed while the job runs.

    Every ``SAMPLE_PERIOD_S`` a ``SIGALRM`` handler runs a fixed tight
    loop that allocates nothing and records how long it took.  After
    the block, ``seconds`` is the job's own time (the samples taken
    out) and ``scaled`` the same in seconds of the reference host: the
    job's time times ``SAMPLE_REFERENCE_S`` over the mean sample.  A
    calibration before and after a job misses the host's swings during
    a long one; samples spread over the job do not.  Main thread only.
    """

    def __init__(self) -> None:
        self.samples: "list[float]" = []
        self.spent = 0.0  #: seconds inside the handler
        self.elapsed = 0.0  #: seconds of the block, samples included
        self.seconds = 0.0
        self.scaled = 0.0

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        self.samples.append(_loop_seconds())
        self.spent += time.perf_counter() - started

    def __enter__(self) -> "HostMeter":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.elapsed = time.perf_counter() - self._started
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a job shorter than one period
            self.samples.append(_loop_seconds())
        self.seconds = self.elapsed - self.spent
        self.scaled = self.seconds * SAMPLE_REFERENCE_S / (
            sum(self.samples) / len(self.samples)
        )


def median(values: "list[float]") -> float:
    return statistics.median(values)


def tail(values: "list[float]") -> "dict | None":
    """The highest percentile with at least ten samples beyond it.

    Returns the value with its percentile and the sample count, or None
    when there are too few samples for even the median to qualify.
    """
    ordered = sorted(values)
    count = len(ordered)
    for pct in (99.9, 99, 95, 90, 75, 50):
        rank = max(1, math.ceil(count * pct / 100.0))
        if count - rank >= 10:
            return {"value": ordered[rank - 1], "percentile": pct,
                    "samples": count}
    return None


def map_workers(fn, items: list) -> list:
    """``[fn(item) for item in items]`` over two fresh worker processes.

    Output checks run after the timed region, when both CPUs are free.
    ``fn`` must be importable by name.  Each worker is a plain
    ``run.py --worker`` child that reads its pickled share of ``items``
    from stdin and writes the pickled results to stdout; both are
    waited for on every path out, so no process outlives the run (a
    ``multiprocessing`` pool would leave its resource tracker behind).
    """
    if len(items) <= 1:
        return [fn(item) for item in items]
    shares = [list(range(start, len(items), WORKERS)) for start in range(WORKERS)]
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--worker"]
    procs = []
    try:
        for share in shares:
            procs.append(subprocess.Popen(
                argv, env=source_env(), stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
            ))
        payloads = [
            pickle.dumps((fn.__module__, fn.__name__, [items[i] for i in share]))
            for share in shares
        ]
        # One thread per worker feeds its stdin and drains its stdout,
        # so neither worker blocks on a full pipe while the other runs.
        outputs: "list[bytes | None]" = [None] * len(procs)

        def talk(k: int) -> None:
            outputs[k] = procs[k].communicate(payloads[k], timeout=WORKER_TIMEOUT)[0]

        threads = [threading.Thread(target=talk, args=(k,)) for k in range(len(procs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        results: list = [None] * len(items)
        for proc, share, out in zip(procs, shares, outputs):
            if proc.returncode != 0 or out is None:
                raise RuntimeError(f"check worker exited {proc.returncode}")
            for index, value in zip(share, pickle.loads(out)):
                results[index] = value
        return results
    finally:
        stop_all(procs)


def run_worker() -> None:
    """Body of a ``map_workers`` child: stdin pickle in, stdout pickle out."""
    module, name, items = pickle.load(sys.stdin.buffer)
    fn = getattr(importlib.import_module(module), name)
    pickle.dump([fn(item) for item in items], sys.stdout.buffer)
    sys.stdout.buffer.flush()


def stop_all(procs: list) -> None:
    """Kill every process in ``procs`` still running and reap them all."""
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
    for proc in procs:
        proc.wait()


def time_setup(argv: "list[str]", ready: bytes, probes: int = SETUP_PROBES):
    """Median seconds from spawning ``argv`` to its first ``ready`` line.

    Each probe is a fresh interpreter that exits on its own once ready.
    Returns ``(reference seconds, raw seconds)``, both medians.
    """
    raw, scaled = [], []
    for _ in range(probes):
        before = calibrate()
        seconds, proc, _ = spawn_until_ready(argv, ready)
        try:
            proc.wait(timeout=60)
        finally:
            stop_all([proc])
            proc.stdout.close()
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited {proc.returncode}")
        raw.append(seconds)
        scaled.append(seconds * host_scale(before, calibrate()))
    return median(scaled), median(raw)


def spawn_until_ready(argv: "list[str]", ready: bytes, stream: str = "stdout"):
    """Start ``argv`` and block until a line containing ``ready`` appears.

    Returns ``(seconds, process, line)``; the process keeps running.
    The watched stream stays a pipe the caller must keep draining if
    the process goes on writing to it.
    """
    pipe = {stream: subprocess.PIPE}
    other = "stderr" if stream == "stdout" else "stdout"
    pipe[other] = subprocess.DEVNULL
    started = time.perf_counter()
    proc = subprocess.Popen(argv, env=source_env(), **pipe)
    source = getattr(proc, stream)
    try:
        while True:
            line = source.readline()
            if not line:
                raise RuntimeError(f"{argv[:3]} ended before it was ready")
            if ready in line:
                return time.perf_counter() - started, proc, line
    except BaseException:
        stop_all([proc])
        source.close()
        raise


def probe_argv(kind: str) -> "list[str]":
    """Command line of a set-up probe for the ``flat``/``hext`` paths."""
    return [sys.executable, os.path.join(HERE, "run.py"), "--probe", kind]


def run_probe(kind: str) -> None:
    """Body of a set-up probe: import the path's layers, make an engine.

    This is what a fresh extraction process pays before its first job:
    interpreter start, the imports, and the lazy strip-engine set-up
    (the numpy import when ``auto`` resolves to numpy).
    """
    from repro.cif import parse  # noqa: F401
    from repro.core import extract_report  # noqa: F401
    from repro.core.scanline import ScanlineEngine
    from repro.tech import NMOS
    from repro.wirelist import to_wirelist, write_wirelist  # noqa: F401

    if kind == "hext":
        from repro.hext import hext_extract  # noqa: F401
        from repro.hext.wirelist import to_hierarchical_wirelist  # noqa: F401
    ScanlineEngine(NMOS(), engine="auto")
    sys.stdout.write("ready\n")
    sys.stdout.flush()


@dataclass
class Outcome:
    """What one workload run hands back to the driver in ``run.py``."""

    attempted: int = 0
    failed: int = 0
    #: outputs that disagreed with their reference (also in ``failed``)
    wrong: int = 0
    failures: "list[str]" = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  #: name -> value
    extra: dict = field(default_factory=dict)  #: printed, not gated
    #: the benchmark's own checks that failed (counter repeat, schedule)
    problems: "list[str]" = field(default_factory=list)
    tracer: object = None  #: the traced run's span recorder

    def fail(self, message: str, wrong: bool = False) -> None:
        self.failed += 1
        if wrong:
            self.wrong += 1
        self.failures.append(message)
