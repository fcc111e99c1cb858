"""The ``service`` workload: a real daemon under a closed-loop load.

A ``python -m repro.service --port 0`` daemon runs with its shipped
defaults.  Two client threads (one connection each, the stock
``ServiceClient``) follow a fixed schedule of one cold request to three
hits, sending the next request only when the previous one is answered:

* a **cold** request is a fresh-seeded ``dchip`` at half scale, never
  sent before, so the daemon extracts it;
* a **hit** resubmits one of the client's last three cold payloads,
  which the daemon's result cache still holds.

Each wirelist that comes back is checked after the daemon has stopped,
byte for byte, against an in-process extraction of the same payload.

The clients run their cycles in lock-step rounds.  Between rounds,
while no request is open, the host's speed is calibrated
(``common.calibrate``), so each cycle's seconds can be scaled to the
reference host.
"""

from __future__ import annotations

import contextlib
import json
import signal
import sys
import threading
import time

from common import (
    Outcome,
    calibrate,
    digest,
    flat_device_count,
    host_scale,
    map_workers,
    median,
    process_peak_rss_mb,
    spawn_until_ready,
    tail,
)
from extraction import trace_metrics
from tracer import Tracer

from repro.cif import parse, write
from repro.core import extract_report
from repro.service.client import ServiceClient
from repro.tech import NMOS
from repro.wirelist import to_wirelist, write_wirelist
from repro.workloads.chips import build_chip

CLIENTS = 2
SCHEDULE = ("cold", "hit", "hit", "hit")
COLD_CHIP = "dchip"
COLD_SCALE = 0.5
JOB_NAME = "dchip.cif"
#: Daemons started per run for ``setup_s``; the last one takes the load.
DAEMON_SPAWNS = 5
DAEMON_ARGV = [sys.executable, "-m", "repro.service", "--port", "0"]
#: Client number of the untimed warm-up request.
WARMUP_CLIENT = 99
#: Submission retries each client absorbs on 429/503 backpressure.
RETRIES = 3
#: Seconds a client waits at the round barrier before the run gives up.
BARRIER_TIMEOUT = 120


def cold_payload(seed: int, client: int, index: int) -> str:
    """The ``index``-th cold payload of one client; never repeated."""
    chip_seed = (seed * 100 + client) * 100_000 + index
    return write(build_chip(COLD_CHIP, COLD_SCALE, seed=chip_seed))


class CountingClient(ServiceClient):
    """The stock client, counting the status polls ``wait`` makes."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.polls = 0

    def status(self, job: str) -> dict:
        self.polls += 1
        return super().status(job)


class Daemon:
    """One daemon process; its log on stderr is drained by a thread."""

    def __init__(self) -> None:
        before = calibrate()
        self.ready_s, self.proc, line = spawn_until_ready(
            DAEMON_ARGV, b'"event": "ready"', stream="stderr"
        )
        #: ``ready_s`` in seconds of the reference host
        self.scaled_ready_s = self.ready_s * host_scale(before, calibrate())
        self._drain = threading.Thread(target=self._discard, daemon=True)
        self._drain.start()
        try:
            address = json.loads(line)["address"]
            self.port = int(address.rsplit(":", 1)[1])
        except BaseException:
            self.stop()
            raise

    def _discard(self) -> None:
        for _ in self.proc.stderr:
            pass

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        finally:
            self._drain.join(timeout=10)
            self.proc.stderr.close()
        return code


def stop_daemons(daemons: "list[Daemon]") -> "list[int]":
    """Stop every daemon still running, even if stopping one fails."""
    codes, error = [], None
    for daemon in daemons:
        if daemon.proc.returncode is not None:
            continue
        try:
            codes.append(daemon.stop())
        except BaseException as exc:  # stop the rest, then re-raise
            error = error or exc
    if error is not None:
        raise error
    return codes


class Request:
    __slots__ = ("kind", "key", "latency", "submit", "wait", "result",
                 "polls", "digest", "devices", "error")

    def __init__(self, kind: str, key: "tuple[int, int]") -> None:
        self.kind = kind
        self.key = key  #: (client, cold index) of the payload
        self.latency = self.submit = self.wait = self.result = 0.0
        self.polls = 0
        self.digest = None
        self.devices = 0
        self.error = None


def _untraced(name: str) -> contextlib.nullcontext:
    return contextlib.nullcontext()


def send(client: CountingClient, request: Request, cif: str,
         tracer: "Tracer | None") -> None:
    """``submit`` -> ``wait`` -> ``result``, as ``repro-submit`` does."""
    span = _untraced if tracer is None else tracer.span
    polls = client.polls
    t0 = time.perf_counter()
    try:
        with span("service.request"):
            with span("service.submit"):
                receipt = client.submit(cif, name=JOB_NAME)
            t1 = time.perf_counter()
            with span("service.wait"):
                if receipt["state"] != "done":
                    status = client.wait(receipt["job"])
                    if status["state"] != "done":
                        raise RuntimeError(f"job ended {status['state']}")
            t2 = time.perf_counter()
            with span("service.result"):
                result = client.result(receipt["job"])
        t3 = time.perf_counter()
    except Exception as exc:  # a failed request is a result, not a crash
        request.error = f"{type(exc).__name__}: {exc}"[:300]
        request.latency = time.perf_counter() - t0
        return
    request.latency = t3 - t0
    request.submit, request.wait, request.result = t1 - t0, t2 - t1, t3 - t2
    request.polls = client.polls - polls
    text = result["wirelist"]
    request.digest = digest(text)
    request.devices = flat_device_count(text)


class Rounds:
    """Lock-step rounds: each client runs one cycle per round.

    Every client waits at the barrier after generating its next payload;
    the last to arrive calibrates the host while no request is open and
    no client runs, then decides whether another round starts.
    """

    def __init__(self, deadline: "float | None", rounds: "int | None") -> None:
        self.barrier = threading.Barrier(CLIENTS, action=self._between,
                                         timeout=BARRIER_TIMEOUT)
        self.deadline = deadline
        self.rounds = rounds
        #: calibration seconds before round 0, between rounds, after the last
        self.speeds: "list[float]" = []
        self.more = True

    def _between(self) -> None:
        self.speeds.append(calibrate())
        done = len(self.speeds) - 1
        self.more = (self.rounds is None or done < self.rounds) and (
            self.deadline is None or time.perf_counter() < self.deadline
        )

    def scale(self, number: int) -> float:
        """Factor to seconds of the reference host for round ``number``."""
        return host_scale(self.speeds[number], self.speeds[number + 1])


class LoadClient(threading.Thread):
    """One closed-loop client following the cold/hit schedule."""

    def __init__(self, port: int, seed: int, number: int, rounds: Rounds, *,
                 first: int = 0, tracer: "Tracer | None" = None) -> None:
        super().__init__(name=f"load-client-{number}", daemon=True)
        self.client = CountingClient(port=port, retries=RETRIES)
        self.seed = seed
        self.number = number
        self.rounds = rounds
        self.first = first  #: cold index this client starts at
        self.tracer = tracer
        self.requests: "list[Request]" = []
        self.payloads: "dict[int, str]" = {}
        self.cycles_done = 0

    def run(self) -> None:
        span = _untraced if self.tracer is None else self.tracer.span
        index = self.first
        try:
            while True:
                with span("client.payload"):
                    self.payloads[index] = cold_payload(self.seed, self.number, index)
                with span("client.calibrate"):
                    self.rounds.barrier.wait()
                if not self.rounds.more:
                    del self.payloads[index]
                    return
                for step, kind in enumerate(SCHEDULE):
                    # hit k of a cycle resubmits the cold payload k-1 cycles back
                    source = index if kind == "cold" else max(self.first, index - step + 1)
                    request = Request(kind, (self.number, source))
                    send(self.client, request, self.payloads[source], self.tracer)
                    self.requests.append(request)
                index += 1
                self.cycles_done += 1
        except threading.BrokenBarrierError:
            return  # another client failed; ``drive`` reports it
        except BaseException:
            self.rounds.barrier.abort()
            raise


def drive(port: int, seed: int, *, seconds: "float | None" = None,
          rounds: "int | None" = None, first: int = 0,
          tracer: "Tracer | None" = None):
    """Run the clients to a deadline or a round count.

    Returns ``(clients, rounds, wall)``.
    """
    started = time.perf_counter()
    deadline = started + seconds if seconds is not None else None
    schedule = Rounds(deadline, rounds)
    clients = [
        LoadClient(port, seed, number, schedule, first=first, tracer=tracer)
        for number in range(CLIENTS)
    ]
    for client in clients:
        client.start()
    for client in clients:
        client.join(timeout=170)
        if client.is_alive():
            raise RuntimeError(f"{client.name} did not finish")
    if schedule.barrier.broken:
        raise RuntimeError("a load client failed between rounds")
    return clients, schedule, time.perf_counter() - started


def reference_digest(cif: str) -> str:
    """The daemon's flat answer computed in this process."""
    tech = NMOS()
    report = extract_report(parse(cif), tech, engine="auto")
    return digest(write_wirelist(to_wirelist(report.circuit, name=JOB_NAME, tech=tech)))


def _metric_deltas(before: dict, after: dict) -> dict:
    def stage(name):
        return after["stages"].get(name, 0.0) - before["stages"].get(name, 0.0)

    def ring_total(ring):
        return after[ring]["mean_seconds"] * after[ring]["observed"] - (
            before[ring]["mean_seconds"] * before[ring]["observed"]
        )

    return {
        "parse": stage("parse"),
        "extract": stage("extract"),
        "wirelist": stage("wirelist"),
        "queue_wait": ring_total("latency") - ring_total("run_latency"),
        "hits": after["cache"]["hits"] - before["cache"]["hits"],
        "misses": after["cache"]["misses"] - before["cache"]["misses"],
    }


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    daemons = []
    try:
        for _ in range(DAEMON_SPAWNS):
            daemons.append(Daemon())
            if len(daemons) < DAEMON_SPAWNS:
                code = daemons[-1].stop()
                if code != 0:
                    outcome.problems.append(f"set-up daemon exited {code}")
        setup_s = median([d.scaled_ready_s for d in daemons])
        daemon = daemons[-1]
        port = daemon.port

        warm = CountingClient(port=port, retries=RETRIES)
        warm_request = Request("cold", (WARMUP_CLIENT, 0))
        send(warm, warm_request, cold_payload(seed, WARMUP_CLIENT, 0), None)
        if warm_request.error:
            outcome.problems.append(f"warm-up request: {warm_request.error}")

        before = warm.metrics()
        clients, rounds, wall = drive(port, seed, seconds=seconds)
        middle = warm.metrics()
        tracer = Tracer()
        traced_clients, traced_wall = [], 0.0
        if trace:
            # The same number of cycles again, traced, on fresh payloads.
            done = len(rounds.speeds) - 1
            traced_clients, _, traced_wall = drive(
                port, seed, rounds=done, first=done, tracer=tracer,
            )
        after = warm.metrics()
        peak_mb = process_peak_rss_mb(daemon.proc.pid)
    finally:
        codes = stop_daemons(daemons)
    if any(codes):
        outcome.problems.append(f"daemon exited {codes} after SIGTERM")

    # -- verification, outside every timed region -----------------------
    payloads = {
        (client.number, index): text
        for client in clients + traced_clients
        for index, text in client.payloads.items()
    }
    expected = dict(zip(payloads, map_workers(reference_digest, list(payloads.values()))))
    all_requests = [r for c in clients + traced_clients for r in c.requests]
    for request in all_requests:
        outcome.attempted += 1
        if request.error:
            outcome.fail(f"{request.kind} {request.key}: {request.error}")
        elif request.digest != expected[request.key]:
            request.error = "wirelist differs from in-process extraction"
            outcome.fail(f"{request.kind} {request.key}: {request.error}", True)

    requests = [r for c in clients for r in c.requests]
    ok = [r for r in requests if r.error is None]
    cold = [r.latency for r in ok if r.kind == "cold"]
    hit = [r.latency for r in ok if r.kind == "hit"]
    scheduled = _metric_deltas(before, middle)
    _check_schedule(requests, scheduled, outcome, "untraced")
    # Throughput as a median over cycles (one cold request and its hits)
    # rather than one ratio over the run, so a slow spell that catches a
    # few cycles does not move it.
    cycle_rates, raw_rates = [], []
    for client in clients:
        for number in range(client.cycles_done):
            scale = rounds.scale(number)
            start = number * len(SCHEDULE)
            cycle = client.requests[start:start + len(SCHEDULE)]
            devices = sum(r.devices for r in cycle if r.error is None)
            seconds = sum(r.latency for r in cycle)
            cycle_rates.append(devices / (seconds * scale))
            raw_rates.append(devices / seconds)
    outcome.metrics = {
        "setup_s": setup_s,
        "devices_per_s": CLIENTS * median(cycle_rates),
        "peak_rss_mb": peak_mb,
    }
    outcome.extra = {
        "raw_setup_s": median([d.ready_s for d in daemons]),
        "raw_devices_per_s": CLIENTS * median(raw_rates),
        "cold_p50_s": median(cold) if cold else None,
        "cold_tail_s": tail(cold),
        "hit_p50_s": median(hit) if hit else None,
        "hit_tail_s": tail(hit),
        "requests_per_s": len(ok) / wall,
        "requests": len(requests),
    }
    if trace:
        traced = [r for c in traced_clients for r in c.requests]
        deltas = _metric_deltas(middle, after)
        _check_schedule(traced, deltas, outcome, "traced")
        outcome.metrics.update(
            _layer_metrics(traced, deltas, traced_clients, tracer,
                           traced_wall, wall)
        )
    outcome.tracer = tracer
    return outcome


def _check_schedule(requests, deltas, outcome, phase) -> None:
    """The daemon's cache counters must equal the scheduled cold/hit mix."""
    colds = sum(r.kind == "cold" for r in requests)
    hits = len(requests) - colds
    if (deltas["misses"], deltas["hits"]) != (colds, hits):
        outcome.problems.append(
            f"{phase}: daemon counted {deltas['misses']} misses and "
            f"{deltas['hits']} hits for {colds} cold and {hits} hit requests"
        )


def _layer_metrics(traced, deltas, clients, tracer, traced_wall, wall) -> dict:
    cold = [r for r in traced if r.kind == "cold"]
    summary = tracer.summary()
    colds = max(1, len(cold))
    metrics = {
        "service.submit_s": median([r.submit for r in traced]),
        "service.wait_s": median([r.wait for r in cold]),
        "service.polls": median([r.polls for r in cold]),
        "service.result_s": median([r.result for r in traced]),
        "service.retries_429": sum(c.client.retries_performed for c in clients),
        "service.stage_parse_s": deltas["parse"] / colds,
        "service.stage_extract_s": deltas["extract"] / colds,
        "service.stage_wirelist_s": deltas["wirelist"] / colds,
        "service.queue_wait_s": deltas["queue_wait"] / colds,
        "service.cache_hits": deltas["hits"],
        "service.cache_misses": deltas["misses"],
        "service.cache_hit_ratio": deltas["hits"] / max(1, deltas["hits"] + deltas["misses"]),
    }
    metrics.update(trace_metrics(
        traced_wall=traced_wall,
        untraced_wall=wall,
        # two clients each keep one request open for the whole wall
        coverage=summary["top_level"] / (traced_wall * len(clients)),
        unaccounted=traced_wall * len(clients) - summary["top_level"],
        spans=summary["spans"],
        summaries=[summary],
    ))
    return metrics
