"""Benchmark of the hyperbetti package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload engines --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One workload runs in this process, single-threaded; ``all`` runs each
workload in its own process, one after another. The last line of
standard output is one json object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``. Results, with a machine and
Python fingerprint, also go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 9
MIN_PASSES = 3
OVERRUN = 1.15
# A rate metric's name is its timed group followed by one of these.
RATE_SUFFIXES = ("_tables_per_s", "_instances_per_s", "_families_per_s")


def load_benchmark() -> dict:
    """BENCHMARK.json of the checkout that holds this directory."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def rate_group(name: str) -> str | None:
    """Timed group behind a rate metric, or None for another metric."""
    for suffix in RATE_SUFFIXES:
        if name.endswith(suffix):
            return name[:-len(suffix)]
    return None


def fingerprint() -> dict:
    """Machine and Python, from the interpreter alone: no file is read."""
    uname = os.uname()
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "system": f"{uname.sysname} {uname.release}",
        "machine": uname.machine,
        "cpu_count": os.cpu_count(),
    }


def import_package() -> None:
    """Import hyperbetti from ``src`` of the current directory, or exit.

    Exits with status 1 when there is no package there or another copy
    was imported instead.
    """
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "hyperbetti", "__init__.py")):
        sys.exit(f"perfbench: no src/hyperbetti under {os.getcwd()}; run from a checkout root")
    sys.path.insert(0, src)
    import hyperbetti
    if os.path.dirname(os.path.dirname(os.path.abspath(hyperbetti.__file__))) != src:
        sys.exit(f"perfbench: imported hyperbetti from {hyperbetti.__file__}, not from {src}")


def import_seconds() -> float:
    """Time of ``import hyperbetti`` in a fresh interpreter, which is what
    every command of the package pays."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import hyperbetti; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, os.path.abspath("src")],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


def run_one(bench: dict, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    import_package()
    import workloads as wl

    # One reference timing can be 30% off the next, too much to scale a
    # 0.01-0.2 s set-up step by, so each set-up figure is the median wall
    # time scaled by the median reference timing of its phase.
    clock = wl.Clock()
    since = len(clock.samples) - 1
    imports_wall, setups_wall = [], []
    for _ in range(SETUP_REPEATS):
        imports_wall.append(import_seconds())
        clock.flush()
    import_s = clock.scaled(statistics.median(imports_wall), since)
    since = len(clock.samples) - 1
    corpus_dir = os.path.join(OUT, f"corpus-{workload}-{seed}")
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        corpus = wl.setup(workload, seed, corpus_dir)
        setups_wall.append(time.perf_counter() - start)
        clock.flush()
    setup_s = clock.scaled(statistics.median(setups_wall), since)
    groups = wl.build_groups(workload, seed, corpus)
    tally = wl.Tally()

    tracer = None
    if traced:
        import tracing as tr
        tracer = tr.Tracer()
        tracer.install()
        wl.setup(workload, seed, corpus_dir)
        tracer.uninstall()

    start = time.perf_counter()
    pass_times, scaled_passes = [], []
    while True:
        since = len(clock.samples)
        t0 = time.perf_counter()
        if pass_times and tracer is not None:
            clock.flush()
            tracer.install()
            wl.run_pass(groups, tally, tracer=tracer)
            tracer.uninstall()
            clock.flush()
        else:
            wl.run_pass(groups, tally, clock=clock)
        pass_times.append(time.perf_counter() - t0)
        if len(pass_times) == 1:
            # Every call has run once by now. Later passes only add the
            # benchmark's own timings, whose number depends on how fast
            # the host is.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        scaled_passes.append(clock.scaled(pass_times[-1], max(since - 1, 0)))
        # Another pass of the same length would end at ``projected``. A
        # loaded host may stop after two passes rather than run long.
        projected = time.perf_counter() - start + pass_times[-1]
        floor = 2 if traced or projected > OVERRUN * seconds else MIN_PASSES
        if len(pass_times) >= floor and projected > seconds:
            break

    check_start = time.perf_counter()
    problems = wl.check_outputs(groups) + wl.cross_check(groups)
    problems += tally.mismatches
    check_s = time.perf_counter() - check_start

    if traced:
        overhead = statistics.mean(scaled_passes[1:]) / scaled_passes[0]
        metrics = tr.layer_metrics(tracer, bench["per_layer"], len(pass_times) - 1, overhead)
        tracer.write(os.path.join(OUT, f"{workload}-seed{seed}-spans.jsonl"))
        for point in tracer.unattached:
            print(f"perfbench: could not attach wrap point {point}", file=sys.stderr)
    else:
        metrics = {"setup_s": {"value": import_s + setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
        by_name = {g.name: g for g in groups}
        for metric in bench["end_to_end"]:
            group = rate_group(metric["name"])
            if group is not None:
                metrics[metric["name"]] = {"value": by_name[group].rate(), "unit": metric["unit"]}

    result = {"correct": not problems, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    for line in problems[:50]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    for line in tally.errors[:20]:
        print(f"perfbench: operation failed: {line}", file=sys.stderr)
    wl.dump_json(os.path.join(OUT, f"{workload}-seed{seed}-trace{int(traced)}.json"), {
        **result, "workload": workload, "seed": seed, "seconds": seconds,
        "passes": len(pass_times), "pass_seconds": pass_times,
        "groups": {g.name: g.summary() for g in groups},
        "problems": problems,
        "errors": tally.errors, "unattached": tracer.unattached if tracer else [],
        "import_seconds": import_s, "import_wall_seconds": imports_wall,
        "setup_seconds": setup_s, "setup_wall_seconds": setups_wall,
        "check_seconds": check_s, "fingerprint": fingerprint(),
    })
    return result


def run_all(workloads: list[str], seed: int, seconds: float, traced: bool) -> dict:
    """Each workload in its own process, one after another."""
    results = {}
    for workload in workloads:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"perfbench: workload {workload} exited with {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results[workload] = res
        print(f"{workload}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for name, metric in res["metrics"].items():
            print(f"  {name:58s} {metric['value']:14.6g} {metric['unit']}")
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results}


def main(argv=None) -> int:
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        result = run_all(workloads, args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(bench, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
