"""Benchmark of the cayleycover package: one command, four workloads.

Run from the root of a source checkout (the package is imported from
``./src``; nothing is built or installed):

    python3 bench/run.py --workload search_density --seed 1 --seconds 50 --trace 0

Workloads are ``search_density`` and ``queries_bounds`` (see ``harness``
and ``BENCHMARK.json``).  The seed makes the inputs: the order
of the search grid and of the density tables, the lattice corpus, and the
two ``d*`` values of the bound battery.  Every output is checked.

Output: a record line ``{"record": ...}`` with the environment, the failure
ratio, sample counts, tail percentiles and the raw times, then, as the last
line, the result ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, at the reference speed
described in ``harness``; with ``--trace 1`` a separate traced run gives the
per-layer ones, as measured.  Both are also written to
``bench/out/``, with the spans of a traced run.  Exits 2 when the current
directory holds no ``src/cayleycover``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
OUT = ROOT / "bench" / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(imports: int, harness):
    """Median wall time of a fresh interpreter importing the package, at
    the reference speed and raw, and how many of those imports failed."""
    code = "import sys; sys.path.insert(0, 'src'); import cayleycover"
    scaled, raw, failed = [], [], 0
    for _ in range(imports):
        loop = [harness.calibration_seconds() for _ in range(3)]
        started = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        raw.append(perf_counter() - started)
        loop += [harness.calibration_seconds() for _ in range(3)]
        scaled.append(raw[-1] * harness.CALIBRATION_REFERENCE_S / statistics.median(loop))
        failed += proc.returncode != 0
    return statistics.median(scaled), statistics.median(raw), failed


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cayleycover").glob("*.py*")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def environment(nproc: int) -> dict:
    import numpy

    from cayleycover.tiles import kernel_backend

    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernel_backend(),
        "machine": platform.machine(),
        "threads": {"search": 1, "density": nproc, "queries": 1, "bounds": 1},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def end_to_end(samples: dict, times: list, setup: float, harness):
    """End-to-end metrics from the operation ids a timed run collected and
    the operations' times, and how each query tail was taken."""
    metrics = {"setup_s": setup}
    for key in ("search_s", "density_s", "bounds_mc_s", "bounds_quad_s"):
        metrics[key] = statistics.median(sum(times[op] for op in unit) for unit in samples[key])
    tails = {}
    for kind in harness.QUERY_KINDS:
        passes = [[times[op] for op in p] for p in samples[kind]]
        metrics[f"{kind}_p50_ms"] = 1e3 * statistics.median(
            statistics.median(p) for p in passes
        )
        metrics[f"{kind}_tail_ms"] = 1e3 * statistics.median(
            harness.tail_of(p)[0] for p in passes
        )
        tails[f"{kind}_tail_ms"] = {
            "percentile": harness.tail_of(passes[0])[1],
            "samples_per_pass": len(passes[0]),
            "passes": len(passes),
        }
    return metrics, tails


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cayleycover" / "__init__.py").is_file():
        print("error: run from the root of a cayleycover checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: workload must be one of {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    spec = harness.Spec()
    harness.warm_up()
    setup, setup_raw, setup_failed = setup_seconds(spec.setup_imports, harness)
    bench = harness.Bench(ROOT, args.workload, args.seed, args.seconds, spec)
    try:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": environment(bench.nproc),
            "corpus_size": len(bench.corpus),
            "d_star": [str(d) for d in bench.d_stars],
        }
        started = perf_counter()
        if args.trace:
            metrics, tracer, extra = bench.traced()
            units = harness.per_layer_units(spec)
            record["traced_run"] = extra
            tracer.write(OUT / f"spans-{args.workload}-s{args.seed}.jsonl.gz")
        else:
            samples = {}
            record["busy_s"], _ = bench.execute(samples)
            times = bench.op_times(True)
            metrics, record["tails"] = end_to_end(samples, times, setup, harness)
            record["raw_metrics"] = end_to_end(samples, bench.op_times(False), setup_raw, harness)[0]
            record["calibration"] = {
                "median_s": statistics.median(c for _, c in bench.speed),
                "reference_s": harness.CALIBRATION_REFERENCE_S,
                "samples": len(bench.speed),
            }
            units = harness.END_TO_END_UNITS
            record["samples"] = {k: len(v) for k, v in samples.items()}
            record["search_grid_median_s"] = {
                k: statistics.median(times[op] for [op] in v)
                for k, v in samples.items()
                if k.startswith("search.")
            }
        record["run_s"] = perf_counter() - started
    finally:
        bench.close()
    attempted = bench.attempted + spec.setup_imports
    failed = bench.failed + setup_failed
    record["failed_ratio"] = {"value": failed / attempted, "unit": "ratio"}
    record["failures"] = bench.messages
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    text = json.dumps(
        {"record": record, "result": result, "ops": bench.ops, "calibration": bench.speed}
    )
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(text)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
