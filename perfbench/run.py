"""End-to-end benchmark of the extractor: one workload per run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mesh --seed 1 --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` is a separate run that records spans around each layer's
public calls and reports the per-layer metrics (spans are written to
``.perfbench/``).  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Steadiness mode runs the benchmark repeatedly, one seed per run, and
reports each end-to-end metric's spread against its bound::

    python3 perfbench/run.py --steady 5 [--workload hext ...]

See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")
#: Share of the traced wall the top-level spans must cover.
MIN_COVERAGE = 0.95


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def build_parser(workloads: "list[str]") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", action="append", choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--steady", type=int, default=0, metavar="RUNS",
        help="run each workload RUNS times (seeds --seed, --seed+1, ...) "
        "and report every end-to-end metric's spread against its bound",
    )
    parser.add_argument("--probe", choices=("flat", "hext"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return parser


def run_workload(spec: dict, workload: str, seed: int, seconds: float,
                 trace: bool) -> int:
    if workload == "service":
        import daemon

        outcome = daemon.run(seed, seconds, trace)
    else:
        import extraction

        outcome = extraction.run(workload, seed, seconds, trace)

    # The top-level spans must account for the traced wall time.
    if trace and outcome.metrics["trace.coverage"] < MIN_COVERAGE:
        outcome.problems.append(
            f"top-level spans cover {outcome.metrics['trace.coverage']:.3f} "
            f"of the traced wall, below {MIN_COVERAGE}"
        )
    kind = "per_layer" if trace else "end_to_end"
    metrics = {}
    for entry in spec[kind]:
        value = outcome.metrics.get(entry["name"], 0)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{workload}-{seed}.json")
        outcome.tracer.write(path)
        print(f"spans written to {os.path.relpath(path, ROOT)}")

    attempted = outcome.attempted
    failed_share = outcome.failed / attempted if attempted else 1.0
    print(f"workload {workload}, seed {seed}, "
          f"{'traced' if trace else 'untraced'}")
    for name, entry in metrics.items():
        print(f"  {name:28s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"  {'failed_share':28s} {failed_share:>16.6g} "
          f"({outcome.failed} of {attempted})")
    for name, value in outcome.extra.items():
        print(f"  {name:28s} {json.dumps(value)}")
    for failure in outcome.failures:
        print(f"  failed: {failure}")
    for problem in outcome.problems:
        print(f"ERROR: {problem}", file=sys.stderr)

    correct = attempted > 0 and outcome.wrong == 0 and not outcome.problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-500:]}"
        )
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def steady(spec: dict, workloads: "list[str]", first_seed: int,
           runs: int) -> int:
    """Spread of every end-to-end metric over ``runs`` seeds, per workload.

    The spread is the distance between the first and third quartile as
    a share of the median.  Counter determinism across runs is checked
    too: two traced runs of the first seed must report equal counts.
    """
    seconds = spec["run_seconds"]
    unsteady = 0
    for workload in workloads:
        results = [run_child(workload, seed, seconds, 0)
                   for seed in range(first_seed, first_seed + runs)]
        walls = " ".join(f"{r['wall_s']:.0f}" for r in results)
        print(f"{workload}: {runs} runs, seeds {first_seed}.."
              f"{first_seed + runs - 1}, "
              f"failed {[r['failed'] for r in results]}, "
              f"wall per run {walls} s")
        for entry in spec["end_to_end"]:
            values = [r["metrics"][entry["name"]]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            bound = entry["bound"]
            verdict = "ok" if spread <= bound / 3 else (
                "within bound" if spread <= bound else "TOO WIDE")
            if entry["name"] != "setup_s" and spread > bound:
                unsteady += 1
            print(f"  {entry['name']:16s} median {q2:12.6g} {entry['unit']:10s}"
                  f" spread {spread:7.4f} bound {bound:5.3f}  {verdict}")
            print(f"    runs: {' '.join(f'{v:.6g}' for v in values)}")
        traced = [run_child(workload, first_seed, seconds, 1) for _ in range(2)]
        counts = [
            {entry["name"]: t["metrics"][entry["name"]]["value"]
             for entry in spec["per_layer"]
             if entry["unit"] in ("count", "bytes")
             and not entry["name"].startswith(("service.", "trace."))}
            for t in traced
        ]
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        if differ:
            unsteady += 1
        print(f"  per-layer counts across two traced runs: "
              f"{'DIFFER in ' + ', '.join(differ) if differ else 'equal'}")
    return 1 if unsteady else 0


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: "list[str] | None" = None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    args = build_parser(names).parse_args(argv)
    if args.probe:
        from common import run_probe

        run_probe(args.probe)
        return 0
    if args.worker:
        from common import run_worker

        run_worker()
        return 0
    # A SIGTERM unwinds like an exception, so every ``finally`` that
    # stops a child process still runs.
    signal.signal(signal.SIGTERM, _terminated)
    workloads = args.workload or names
    if args.steady:
        return steady(spec, workloads, args.seed, args.steady)
    if len(workloads) != 1:
        print("error: name one --workload (or use --steady)", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    return run_workload(spec, workloads[0], args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
