"""Shard death mid-load: every in-flight job completes, bytes intact.

The satellite the fleet story hangs on: SIGKILL a daemon while jobs it
accepted are still queued or running, and prove that (a) every job a
client was promised completes anyway — rerouted to a sibling by the
router's failover resubmission — and (b) the wirelists that come back
are byte-identical to a solo daemon's, because *where* a job runs must
never change *what* it returns.
"""

import threading
import time

from repro.cif import write as write_cif
from repro.fleet import FleetRouter, FleetSupervisor, RouterConfig
from repro.service import (
    ExtractionService,
    ServiceClient,
    ServiceConfig,
)
from repro.workloads import dram_column, poly_diff_mesh

PAYLOADS = [
    (f"load{i}.cif", write_cif(poly_diff_mesh(4 + i)))
    for i in range(6)
] + [
    (f"dram{i}.cif", write_cif(dram_column(4 + i)))
    for i in range(4)
]


def _reference():
    solo = ExtractionService(ServiceConfig(port=0, workers=2, quiet=True))
    solo.start()
    try:
        client = ServiceClient(port=solo.port, timeout=60.0)
        return {
            name: client.extract(cif, name=name, wait_timeout=60.0)[
                "wirelist"
            ]
            for name, cif in PAYLOADS
        }
    finally:
        solo.close()


def test_sigkill_mid_load_reroutes_with_byte_parity(tmp_path):
    reference = _reference()
    supervisor = FleetSupervisor(
        3,
        workers=1,  # one worker per shard: queues build, jobs stay in flight
        store_dir=str(tmp_path / "store"),
        prime_cache=8,
    )
    specs = supervisor.start()
    router = FleetRouter(
        specs, RouterConfig(port=0, quiet=True, health_interval=0.2)
    )
    router.start()
    try:
        submit_client = ServiceClient(port=router.port, timeout=60.0)
        receipts = {}
        for name, cif in PAYLOADS:
            receipts[name] = submit_client.submit(cif, name=name)["job"]

        # Pick the shard holding the most in-flight fleet jobs and
        # murder it.  (Reading the router's table from the test thread
        # is safe here: submissions are done, nothing mutates shard
        # assignment until polling resumes below.)
        loads = {
            name: len(router.table.pending_on(shard))
            for name, shard in router.shards.items()
        }
        victim = max(loads, key=loads.get)
        victim_jobs = loads[victim]
        assert victim_jobs >= 1, f"no in-flight jobs to orphan: {loads}"
        supervisor.kill_shard(victim)

        # Every promised job must still complete, and byte-identically.
        errors = []
        results = {}
        lock = threading.Lock()

        def wait_one(name, ident):
            client = ServiceClient(port=router.port, timeout=90.0)
            try:
                status = client.wait(ident, timeout=90.0)
                if status["state"] != "done":
                    raise AssertionError(
                        f"{name} ended {status['state']}: {status}"
                    )
                wirelist = client.result(ident)["wirelist"]
                with lock:
                    results[name] = wirelist
            except Exception as exc:  # noqa: BLE001
                with lock:
                    errors.append(f"{name}: {type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=wait_one, args=(name, ident))
            for name, ident in receipts.items()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors, errors
        assert set(results) == set(reference)
        for name, wirelist in results.items():
            assert wirelist == reference[name], f"{name} bytes diverged"

        # Client polls can fail every job over before the router's next
        # health probe (every 0.2 s here) runs; wait for that probe to
        # count the dead shard.
        metrics_client = ServiceClient(port=router.port, timeout=30.0)
        deadline = time.monotonic() + 10.0
        while True:
            counters = metrics_client.metrics()["fleet"]["counters"]
            if counters.get("shard_down", 0) or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        assert counters.get("failover", 0) >= 1
        assert counters.get("shard_down", 0) >= 1
    finally:
        router.close()
        supervisor.close()
