"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 bench/selftest.py

It checks that a timed run emits every end-to-end metric of
``BENCHMARK.json`` and a traced run every per-layer metric, each with its
unit; that ``BENCHMARK.json`` lists exactly the metrics the full-size spec
emits; and that a deliberately wrong expected value is reported as a
failure, so the checks can fail.  Exits 1 if any of that does not hold.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

TINY = harness.Spec(
    search_grid=((2, 6), (3, 1)),
    density_tables=((2, 2, 5), (3, 1, 2)),
    random_strata=((2, 12, (5, 11), None), (3, 8, (3, 4), None), (4, 8, (2, 3), (1, 10_000))),
    witness_strata=((2, 3), (3, 1), (4, 1)),
    bounds_nodes=24,
    setup_imports=1,
    parallel_check=(3, 1),
)


def timed(workload, expected=None):
    bench = harness.Bench(ROOT, workload, seed=1, seconds=0, spec=TINY, expected=expected)
    try:
        samples = {}
        bench.execute(samples)
        setup, _, _ = run.setup_seconds(TINY.setup_imports, harness)
        metrics, _ = run.end_to_end(samples, bench.op_times(True), setup, harness)
    finally:
        bench.close()
    return bench, metrics


def traced(workload):
    bench = harness.Bench(ROOT, workload, seed=2, seconds=0, spec=TINY)
    try:
        metrics, _, _ = bench.traced()
    finally:
        bench.close()
    return bench, metrics


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    results = []

    def check(name, ok, detail=""):
        results.append(ok)
        print(f"{'pass' if ok else 'FAIL'}  {name}{': ' + detail if detail else ''}")

    check("BENCHMARK.json end_to_end matches the emitted metrics",
          end_to_end == harness.END_TO_END_UNITS)
    check("BENCHMARK.json per_layer matches the full-size spec",
          per_layer == harness.per_layer_units(harness.Spec()))
    check("BENCHMARK.json workloads match the harness",
          [w["name"] for w in declared["workloads"]] == list(harness.WORKLOADS))

    bench, metrics = timed("search_density")
    check("timed run has no failures", bench.failed == 0, "; ".join(bench.messages))
    check("timed run emits every end-to-end metric",
          set(metrics) == set(harness.END_TO_END_UNITS), str(sorted(metrics)))
    check("end-to-end values are positive numbers",
          all(math.isfinite(v) and v > 0 for v in metrics.values()))

    bench, metrics = traced("queries_bounds")
    expected_layer = harness.per_layer_units(TINY)
    check("traced run has no failures", bench.failed == 0, "; ".join(bench.messages))
    check("traced run emits every per-layer metric",
          set(metrics) == set(expected_layer),
          str(sorted(set(metrics) ^ set(expected_layer))))
    check("per-layer values are finite numbers",
          all(isinstance(v, (int, float)) and math.isfinite(v) for v in metrics.values()))

    wrong = dict(oracle.EXPECTED_SEARCH)
    wrong[(3, 1)] = (5, wrong[(3, 1)][1])
    bench, _ = timed("search_density", expected=wrong)
    check("a wrong expected f(3, 1) is reported as failures",
          bench.failed > 0 and any("expected 5" in m for m in bench.messages),
          f"{bench.failed} failed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
