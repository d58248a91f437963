"""Workloads, operations and correctness checks of the cayleycover benchmark.

One client drives the package in a closed loop: each operation starts when
the previous one has returned.  Operations are the user's commands, run
in-process through ``cli.main`` (``search-f``, ``density-table``, ``tile``,
``cover``, ``cover --continuous``, ``verify-bounds``), plus the library
call ``tile_from_difference``.  They fall into four classes, and a unit of
a class is one pass over that class's inputs:

- ``search``: ``search-f`` at ``--threads 1`` over the ``(n, d)`` grid.
- ``density``: ``density-table`` at ``--threads nproc`` over many short
  searches, where pool start-up and listing each index dominate.
- ``queries``: ``tile``, ``cover``, ``cover --continuous`` and
  ``tile_from_difference`` over a seeded lattice corpus.
- ``bounds``: the ``verify-bounds`` battery, Monte Carlo and quadrature.

Every run reports every end-to-end metric, so every workload runs every
class; a workload gives its own two classes 60% of its time.  The
operations of all classes interleave over the whole run (see ``execute``).
Each unit's outputs are checked against ``oracle`` after the unit, outside
the timed region.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import io
import json
import math
import os
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

# numpy's BLAS starts a thread per core.  Quadrature computes Gauss-Legendre
# nodes, an eigenproblem, on every call, and on a 2-vCPU shared host the
# second BLAS thread waits for a core the benchmark or another tenant holds:
# quadrature ran twice as slow and its times followed the scheduler.  Every
# process of a run, pool workers and import probes included, therefore uses
# one BLAS thread; this has to be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import oracle  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402

CLASSES = ("search", "density", "queries", "bounds")
# each workload names its own two classes; they get 60% of its time
WORKLOADS = {
    "search_density": ("search", "density"),
    "queries_bounds": ("queries", "bounds"),
}
QUERY_KINDS = ("tile", "cover", "cover_continuous", "difference")
END_TO_END_UNITS = {
    "setup_s": "s",
    "search_s": "s",
    "density_s": "s",
    **{f"{k}_{stat}_ms": "ms" for k in QUERY_KINDS for stat in ("p50", "tail")},
    "bounds_mc_s": "s",
    "bounds_quad_s": "s",
}
CLI_COMMANDS = ("tile", "cover", "search-f", "density-table", "verify-bounds")
LAYERS = ("lattices", "tiles", "covering", "search", "bounds", "cli")
MC_ESTIMATORS = ("integral_no_notch", "integral_notch", "notch_region_volume_estimate")
QUAD_ESTIMATORS = ("integral_no_notch", "integral_notch")
MAX_FAILURE_MESSAGES = 20
# The speed of a shared host drifts by a fifth to a half, in spells of
# seconds to minutes, so medians of raw times differ between runs of the
# same code by more than any useful bound.  End-to-end times are therefore
# reported at a reference speed: a fixed calibration loop is timed
# CALIBRATION_BURST times every CALIBRATION_INTERVAL_S between operations,
# and each operation's time is multiplied by CALIBRATION_REFERENCE_S over
# the median loop time within CALIBRATION_WINDOW_S of the operation.  The
# reference is the loop's time in the host's fast spells on the 2-vCPU Xeon
# guest the benchmark was defined on, so values read as seconds there.  Raw
# times are kept in the record.
CALIBRATION_INTERVAL_S = 0.2
CALIBRATION_BURST = 3
CALIBRATION_WINDOW_S = 2.0
CALIBRATION_REFERENCE_S = 0.0014
# The loop mixes the kinds of work the operations do, because the host's
# spells slow them unequally: a tight integer and dict loop (the scans),
# Fraction arithmetic (the exact bound checks) and numpy on small arrays in
# a Python loop (the quadrature).
_CAL_NODES = np.linspace(-1.0, 1.0, 96)


# After an idle spell the host ran the first seconds of work up to twice as
# slow, more than the calibration loop showed, so a run keeps the processor
# busy for WARM_UP_S before it times anything.
WARM_UP_S = 5.0


def warm_up(seconds: float = WARM_UP_S) -> None:
    end = perf_counter() + seconds
    while perf_counter() < end:
        calibration_seconds()


def calibration_seconds() -> float:
    """Time of the fixed calibration loop: the machine's speed right now."""
    started = perf_counter()
    total, table = 0, {}
    for i in range(10_000):
        total += i * i
        table[i & 255] = total
    q = Fraction(0)
    for i in range(1, 100):
        q += Fraction(i, 7) * Fraction(3, i + 1)
    x = _CAL_NODES
    for i in range(6):
        g = x * 0.25 + i
        t = g[:, None] + 0.5 * x[None, :]
        total += int((t * x[None, :]).sum(axis=1).sum())
    return perf_counter() - started


@dataclass(frozen=True)
class Spec:
    """Input sizes of every operation class."""

    # (n, d) points of search-f; each is pinned in oracle.EXPECTED_SEARCH
    search_grid: tuple = ((2, 16), (3, 3), (3, 4), (4, 2), (5, 1))
    # density-table calls as (n, first d, last d)
    density_tables: tuple = ((2, 2, 30), (3, 1, 3), (4, 1, 2), (5, 1, 1))
    # random HNF lattices, (n, det, diameters, notch box band): one lattice
    # per listed diameter, so costs spread alike for every seed.  The n = 4
    # lattices are the costliest queries; there are more than ten of them,
    # so the query tails (ten samples beyond) fall among them.  Their tile
    # and cover times follow the notch box (oracle.notch_box), which ranges
    # from 300 to 5000 points at det 96 and moves those times threefold, so
    # they are drawn from one band of it; tile_from_difference follows the
    # diameter, whose tail falls on the diameter 7 ones
    random_strata: tuple = (
        (2, 48, (11, 12, 12, 14, 17, 24, 47), None),
        (3, 48, (7, 8, 8, 9, 10, 12, 14), None),
        (4, 96, (7, 7, 7, 7, 7, 8, 8, 8, 9, 9, 10, 11), (800, 1200)),
    )
    # optimal lattices, small diameter: index f(n, d) and diameter <= d
    witness_strata: tuple = (
        (2, 6), (2, 8), (2, 10), (2, 12), (2, 14),
        (3, 2), (3, 2), (3, 3), (3, 3), (4, 1), (4, 2), (4, 2),
    )
    # grid resolution of cover --continuous per dimension, and the largest
    # grid (det * resolution^n points) it is asked to scan
    resolution: tuple = ((2, 3), (3, 2), (4, 2))
    continuous_max_grid: int = 1000
    bounds_samples: int = 1_000_000
    bounds_nodes: int = 96
    setup_imports: int = 11
    # search-f point compared between --threads 1 and --threads nproc
    parallel_check: tuple = (4, 2)

    def grid_metric(self, n, d) -> str:
        return f"search.brute_force_f_s.n{n}d{d}"


def per_layer_units(spec: Spec) -> dict:
    """Every per-layer metric of a traced run, with its unit."""
    units = {
        "lattices.enumerate_s": "s",
        "lattices.candidates_enumerated": "count",
        "lattices.hnf_normalize_ms": "ms",
        "tiles.fits_diameter_s": "s",
        "tiles.fits_diameter_calls": "count",
        "tiles.fit_ratio": "ratio",
        "tiles.scan_ms": "ms",
        "tiles.build_tile_ms": "ms",
        "tiles.find_notch_ms": "ms",
        "tiles.tile_from_difference_ms": "ms",
        "covering.covers_discrete_ms": "ms",
        "covering.continuous_cover_falsify_ms": "ms",
        "covering.grid_points": "count",
        "search.candidates_scanned": "count",
        "search.indices_scanned": "count",
        "search.parallel_speedup": "ratio",
        "bounds.mc_samples_per_s": "1/s",
        "bounds.exact_ms": "ms",
        "bounds.notch_volume_bound_calls": "count",
        "trace.overhead_s": "s",
        "trace.accounted_share": "ratio",
    }
    units.update({spec.grid_metric(n, d): "s" for n, d in spec.search_grid})
    units.update({f"bounds.mc_ms.{e}": "ms" for e in MC_ESTIMATORS})
    units.update({f"bounds.quad_ms.{e}": "ms" for e in QUAD_ESTIMATORS})
    units.update({f"cli.self_ms.{c}": "ms" for c in CLI_COMMANDS})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    return units


@dataclass
class Query:
    """One corpus lattice and the arguments of the queries made on it."""

    n: int
    basis: tuple
    dist: dict
    diam: int
    path: str
    lattice: object
    cover_d: int
    continuous_d: int
    resolution: int

    @property
    def grid_points(self) -> int:
        return oracle.det(self.basis) * self.resolution**self.n


def tail_of(values):
    """(value, percentile): the highest percentile with at least ten
    samples beyond it."""
    ordered = sorted(values)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


class Bench:
    def __init__(self, root, workload, seed, seconds, spec=Spec(), expected=None):
        from cayleycover import cli, tiles
        from cayleycover.lattices import IntegerLattice

        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.cli, self.tiles = cli, tiles
        self.root = Path(root)
        self.workload, self.seed, self.seconds, self.spec = workload, seed, seconds, spec
        self.expected = oracle.EXPECTED_SEARCH if expected is None else expected
        self.nproc = len(os.sched_getaffinity(0))
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.pending = []
        self.ops = []
        self.speed = []
        self.tracer = None
        self.reports_1thread = {}
        self.scanned = {"candidates": 0, "indices": 0}
        self.own = WORKLOADS[workload]
        self.unit_counts = dict.fromkeys(CLASSES, 0)
        self.work = self.root / "bench" / "out" / f"work-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        rng = random.Random(f"{seed}:inputs")
        self.corpus = self._make_corpus(rng, IntegerLattice)
        self.d_stars = [Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(2)]

    def op_times(self, scaled: bool) -> list:
        """Every operation's time, raw or at the reference speed."""
        if not scaled:
            return [elapsed for _, elapsed in self.ops]
        at = [t for t, _ in self.speed]
        loop = [c for _, c in self.speed]
        overall = statistics.median(loop)
        times = []
        for start, elapsed in self.ops:
            lo = bisect.bisect_left(at, start - CALIBRATION_WINDOW_S)
            hi = bisect.bisect_right(at, start + elapsed + CALIBRATION_WINDOW_S)
            speed = statistics.median(loop[lo:hi]) if hi > lo else overall
            times.append(elapsed * CALIBRATION_REFERENCE_S / speed)
        return times

    def close(self):
        for path in self.work.iterdir():
            path.unlink()
        self.work.rmdir()

    # -- inputs ------------------------------------------------------------

    def _make_corpus(self, rng, IntegerLattice):
        bases = []
        for n, m, diameters, band in self.spec.random_strata:
            for target in diameters:
                for _ in range(10_000):
                    basis = oracle.random_hnf(rng, n, m)
                    dist = oracle.coset_distances(basis)
                    if max(dist.values()) == target and (
                        band is None or band[0] <= oracle.notch_box(basis, dist) < band[1]
                    ):
                        break
                else:
                    raise ValueError(f"no random lattice n={n} det={m} diameter={target}")
                bases.append(basis)
        optimal = {}
        for n, d in self.spec.witness_strata:
            if (n, d) not in optimal:
                f = oracle.expected_f(n, d)
                optimal[(n, d)] = [b for b in oracle.hnf_bases(n, f) if oracle.diameter(b) <= d]
            bases.append(rng.choice(optimal[(n, d)]))
        resolution = dict(self.spec.resolution)
        corpus = []
        for i, basis in enumerate(bases):
            n = len(basis)
            dist = oracle.coset_distances(basis)
            diam = max(dist.values())
            path = self.work / f"lattice{i}.json"
            path.write_text(json.dumps({"n": n, "basis": oracle.generating_set(rng, basis)}))
            corpus.append(
                Query(
                    n=n,
                    basis=basis,
                    dist=dist,
                    diam=diam,
                    path=str(path),
                    lattice=IntegerLattice(n, basis),
                    # by position in the spec, so alike for every seed: half
                    # the cover queries succeed, and a quarter of the
                    # continuous ones ask for a radius below the diameter
                    cover_d=diam - (i % 2),
                    continuous_d=diam - (i % 4 == 3),
                    resolution=resolution[n],
                )
            )
        rng.shuffle(corpus)
        return corpus

    # -- operations --------------------------------------------------------

    def _fail(self, label, problems):
        self.failed += 1
        if len(self.messages) < MAX_FAILURE_MESSAGES:
            self.messages.append(f"{label}: {'; '.join(problems)}")

    def _call(self, label, span, fn, *args):
        """Run one operation; returns (operation id, result), with result
        None after recording a failure.  ``self.ops[id]`` holds the start
        and the duration."""
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.op = label
        started = perf_counter()
        try:
            if tracer is None:
                result = fn(*args)
            else:
                with tracer.span(span):
                    result = fn(*args)
        except Exception as exc:  # a failed operation, counted, run goes on
            self.ops.append((started, perf_counter() - started))
            self._fail(label, [f"raised {exc!r}"])
            return len(self.ops) - 1, None
        self.ops.append((started, perf_counter() - started))
        return len(self.ops) - 1, result

    def _main(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
        return rc, out.getvalue()

    def _cli(self, label, argv, check):
        """Time one CLI command; its check runs when the unit ends."""
        op, result = self._call(label, "cli." + argv[0], self._main, argv)
        if result is not None:
            self.pending.append((label, check, result))
        return op, result

    def _run_checks(self):
        for label, check, result in self.pending:
            try:
                problems = check(*result) if isinstance(result, tuple) else check(result)
            except Exception as exc:  # malformed output is a failed check
                problems = [f"output not understood: {exc!r}"]
            if problems:
                self._fail(label, problems)
        self.pending = []

    # -- units ---------------------------------------------------------------

    def search_unit(self, samples, k):
        grid = list(self.spec.search_grid)
        random.Random(f"{self.seed}:search:{k}").shuffle(grid)
        ops = []
        for n, d in grid:
            op, _ = self._cli(
                f"search-f n{n}d{d} t1",
                ["search-f", "--n", str(n), "--d", str(d), "--threads", "1"],
                lambda rc, out, n=n, d=d: self.check_search(n, d, rc, out, store=True),
            )
            ops.append(op)
            yield self.ops[op][1]
        for (n, d), op in zip(grid, ops):
            samples.setdefault(self.spec.grid_metric(n, d), []).append([op])
        samples.setdefault("search_s", []).append(ops)

    def density_unit(self, samples, k, threads=None):
        tables = list(self.spec.density_tables)
        random.Random(f"{self.seed}:density:{k}").shuffle(tables)
        threads = self.nproc if threads is None else threads
        ops = []
        for n, lo, hi in tables:
            op, _ = self._cli(
                f"density-table n{n} d{lo}..{hi} t{threads}",
                ["density-table", "--n", str(n), "--d-range", f"{lo}..{hi}",
                 "--threads", str(threads)],
                lambda rc, out, n=n, lo=lo, hi=hi: self.check_density(n, lo, hi, rc, out),
            )
            ops.append(op)
            yield self.ops[op][1]
        samples.setdefault("density_s", []).append(ops)

    def queries_unit(self, samples, k):
        times = {kind: [] for kind in QUERY_KINDS}
        for i, q in enumerate(self.corpus):
            tag = f"#{i} n{q.n} det{oracle.det(q.basis)}"
            op, tile = self._cli(
                f"tile {tag}", ["tile", "--lattice", q.path],
                lambda rc, out, q=q: self.check_tile(q, rc, out),
            )
            times["tile"].append(op)
            yield self.ops[op][1]
            op, _ = self._cli(
                f"cover {tag} d{q.cover_d}",
                ["cover", "--n", str(q.n), "--d", str(q.cover_d), "--lattice", q.path],
                lambda rc, out, q=q: self.check_cover(q, q.cover_d, rc, out),
            )
            times["cover"].append(op)
            yield self.ops[op][1]
            if q.grid_points <= self.spec.continuous_max_grid:
                op, _ = self._cli(
                    f"cover --continuous {tag} d{q.continuous_d}",
                    ["cover", "--n", str(q.n), "--d", str(q.continuous_d), "--lattice", q.path,
                     "--continuous", "--resolution", str(q.resolution)],
                    lambda rc, out, q=q: self.check_cover(q, q.continuous_d, rc, out),
                )
                times["cover_continuous"].append(op)
                if self.tracer is not None:
                    self.tracer.count("covering.grid_points", q.grid_points)
                yield self.ops[op][1]
            op, points = self._call(
                f"tile_from_difference {tag}", "tiles.tile_from_difference",
                self.tiles.tile_from_difference, q.lattice, q.diam,
            )
            times["difference"].append(op)
            if points is not None:
                self.pending.append(
                    (f"tile_from_difference {tag}",
                     lambda pts, q=q, tile=tile: self.check_difference(q, pts, tile),
                     points)
                )
            yield self.ops[op][1]
        for kind, values in times.items():
            samples.setdefault(kind, []).append(values)

    def bounds_unit(self, samples, k):
        # both methods at both d*: two samples of each metric per unit
        runs = [(method, d_star) for d_star in self.d_stars for method in ("mc", "quad")]
        for method, d_star in runs:
            op, _ = self._cli(
                f"verify-bounds {method} d*={d_star}",
                ["verify-bounds", "--method", method, "--d-star", str(d_star),
                 "--samples", str(self.spec.bounds_samples),
                 "--nodes", str(self.spec.bounds_nodes), "--json"],
                lambda rc, out, m=method, ds=d_star: self.check_bounds(m, ds, rc, out),
            )
            samples.setdefault(f"bounds_{method}_s", []).append([op])
            yield self.ops[op][1]

    def _start(self, cls, samples, **kwargs):
        k = self.unit_counts[cls]
        self.unit_counts[cls] += 1
        return getattr(self, f"{cls}_unit")(samples, k, **kwargs)

    def execute(self, samples, units=None):
        """Interleave the operations of all four classes.

        The next operation comes from the class furthest behind its share
        of the time measured so far: 30% for each of the workload's own
        classes, 20% for each other class.  So every class's samples
        spread over the whole run, which evens out slow drifts in machine
        speed.  A unit's samples count once the unit is complete.  With
        ``units`` (class -> count) exactly those units run; otherwise the
        run stops once it has measured ``seconds`` and every class has
        completed a unit, dropping units in progress, and the machine's
        speed is sampled between operations into ``self.speed``.  Returns
        the time measured inside operations and the wall time spent outside
        checks.
        """
        share = {c: 3 if c in self.own else 2 for c in CLASSES}
        spent = dict.fromkeys(CLASSES, 0.0)
        done = dict.fromkeys(CLASSES, 0)
        running = {}
        active = set(CLASSES) if units is None else {c for c in CLASSES if units[c]}
        started = perf_counter()
        checking = 0.0
        calibrated = started - CALIBRATION_INTERVAL_S
        while active:
            if units is None and perf_counter() - calibrated >= CALIBRATION_INTERVAL_S:
                for _ in range(CALIBRATION_BURST):
                    self.speed.append((perf_counter(), calibration_seconds()))
                calibrated = perf_counter()
            cls = min(sorted(active), key=lambda c: spent[c] / share[c])
            if cls not in running:
                running[cls] = self._start(cls, samples)
            try:
                spent[cls] += next(running[cls])
            except StopIteration:
                del running[cls]
                done[cls] += 1
                if units is not None and done[cls] >= units[cls]:
                    active.discard(cls)
            if units is None and sum(spent.values()) >= self.seconds and min(done.values()):
                break
            if cls not in running:
                checked = perf_counter()
                self._run_checks()
                checking += perf_counter() - checked
        for unit in running.values():
            unit.close()
        if "density" in self.own:
            self.parallel_check()
        wall = perf_counter() - started - checking
        self._run_checks()
        return sum(spent.values()), wall

    def parallel_check(self):
        n, d = self.spec.parallel_check
        reference = self.reports_1thread.get((n, d))
        self._cli(
            f"search-f n{n}d{d} t{self.nproc}",
            ["search-f", "--n", str(n), "--d", str(d), "--threads", str(self.nproc)],
            lambda rc, out: self.check_search(n, d, rc, out)
            or self.check_same_report(reference, out),
        )

    # -- checks ----------------------------------------------------------------

    def check_same_report(self, reference, out):
        if reference is None:
            return ["no --threads 1 report to compare with"]
        report = json.loads(out)
        report.pop("elapsed_ms")
        if report != reference:
            return [f"--threads {self.nproc} report differs from --threads 1"]
        return []

    def check_witness(self, n, d, f, basis):
        problems = []
        if not oracle.is_canonical_hnf(basis):
            problems.append(f"witness {basis} is not in canonical HNF")
        elif oracle.det(basis) != f:
            problems.append(f"witness det {oracle.det(basis)} != {f}")
        elif oracle.diameter(basis) > d:
            problems.append(f"witness diameter {oracle.diameter(basis)} > {d}")
        expected = self.expected.get((n, d))
        if expected is not None and basis != expected[1]:
            problems.append(f"witness {basis} is not the least one {expected[1]}")
        return problems

    def _expected_f(self, n, d):
        if n == 2:
            return oracle.f2_closed_form(d)
        return self.expected[(n, d)][0]

    def check_search(self, n, d, rc, out, store=False):
        if rc != 0:
            return [f"exit code {rc}"]
        report = json.loads(out)
        f = report["f"]
        basis = tuple(tuple(row) for row in report["witness_basis"])
        problems = []
        binomial = math.comb(d + n, n)
        paper = Fraction(report["paper_upper"]["num"], report["paper_upper"]["den"])
        if report["binomial_cap"] != binomial or paper != oracle.paper_cap(n, d):
            problems.append("caps differ from the closed forms")
        cap = min(binomial, math.floor(oracle.paper_cap(n, d)))
        if not f <= cap:
            problems.append(f"f={f} exceeds a cap")
        self.scanned["candidates"] += report["candidates_scanned"]
        self.scanned["indices"] += cap - f + 1
        if f != self._expected_f(n, d):
            problems.append(f"f={f}, expected {self._expected_f(n, d)}")
        if not report["exhaustive"]:
            problems.append("search not exhaustive")
        problems += self.check_witness(n, d, f, basis)
        if store:
            report.pop("elapsed_ms")
            self.reports_1thread[(n, d)] = report
        return problems

    def check_density(self, n, lo, hi, rc, out):
        if rc != 0:
            return [f"exit code {rc}"]
        rows = list(csv.reader(io.StringIO(out)))
        if rows[0] != ["d", "best_density_num", "best_density_den", "witness_lattice"]:
            return [f"unexpected header {rows[0]}"]
        if [int(r[0]) for r in rows[1:]] != list(range(lo, hi + 1)):
            return ["rows do not cover the d range"]
        problems = []
        for d_text, num, den, witness in rows[1:]:
            d = int(d_text)
            f = self._expected_f(n, d)
            if Fraction(int(num), int(den)) != Fraction(math.comb(d + n, n), f):
                problems.append(f"d={d}: density {num}/{den}, expected C({d + n},{n})/{f}")
            basis = tuple(tuple(row) for row in json.loads(witness))
            problems += self.check_witness(n, d, f, basis)
        return problems

    def check_tile(self, q, rc, out):
        if rc != 0:
            return [f"exit code {rc}"]
        tile = json.loads(out)
        problems = oracle.tile_problems(q.basis, q.dist, tile["points"], tile["diameter"])
        if tile["n"] != q.n or tile["det"] != oracle.det(q.basis):
            problems.append("wrong n or det")
        if tile["notch"] is not None and tuple(tile["notch"]) in {tuple(p) for p in tile["points"]}:
            problems.append("notch lies inside the tile")
        return problems

    def check_cover(self, q, d, rc, out):
        verdict = json.loads(out)
        covered = q.diam <= d
        problems = []
        if verdict["covered"] != covered or verdict["tile_diameter"] != q.diam:
            problems.append(f"verdict {verdict['covered']} for diameter {q.diam}, d={d}")
        if covered:
            density = Fraction(math.comb(d + q.n, q.n), oracle.det(q.basis))
            if verdict["density"] != {"num": density.numerator, "den": density.denominator}:
                problems.append(f"density {verdict['density']} != {density}")
        elif q.dist[oracle.reduce(q.basis, verdict["witness"])] <= d:
            problems.append(f"witness {verdict['witness']} reaches its coset within {d}")
        failed = not covered
        cont = verdict.get("continuous")
        if cont is not None:
            # a reported point must be uncovered; reporting none is wrong
            # when the scanned grid holds an uncovered point
            D = d + q.n
            witness = cont["witness"]
            if witness is not None:
                p = [Fraction(c) for c in witness]
                z = [math.floor(c) for c in p]
                if q.dist[oracle.reduce(q.basis, z)] + sum(c - zc for c, zc in zip(p, z)) <= D:
                    problems.append(f"continuous witness {witness} is covered")
            elif oracle.first_uncovered(q.basis, q.dist, D, q.resolution) is not None:
                problems.append("continuous falsifier missed an uncovered grid point")
            failed = failed or witness is not None
        if rc != (1 if failed else 0):
            problems.append(f"exit code {rc}")
        return problems

    def check_difference(self, q, points, tile_result):
        pts = sorted(points)
        problems = oracle.tile_problems(q.basis, q.dist, pts, max(map(sum, pts)))
        if tile_result is not None and tile_result[0] == 0:
            built = {tuple(p) for p in json.loads(tile_result[1])["points"]}
            if set(points) != built:
                problems.append("difference tile differs from the built tile")
        return problems

    def check_bounds(self, method, d_star, rc, out):
        if rc != 0:
            return [f"exit code {rc}"]
        checks = {c["name"]: c for c in json.loads(out)}
        vs = [d_star / 8, d_star / 7, d_star / 4]
        names = [f"integral_no_notch[{method}]"]
        names += [f"integral_notch[{method}] v={v}" for v in vs]
        if method == "mc":
            names += [f"notch_region_volume[mc] v={v}" for v in vs]
        names += [
            "no_notch_volume_identity", "notch_bound_identity", "derivative_factorization",
            "notch_optimum_grid", "notch_max_dominates_no_notch", "integral_scaling_law",
        ]
        problems = [f"missing check {name}" for name in names if name not in checks]
        problems += [f"{name} failed" for name, c in checks.items() if not c["pass"]]
        closed = float(d_star**4 / 384)
        got = checks.get(names[0], {}).get("closed_form")
        if got is None or abs(got - closed) > 1e-10 * closed:
            problems.append(f"closed form {got} != d*^4/384 = {closed}")
        return problems

    # -- traced run ------------------------------------------------------------

    def traced(self):
        """Per-layer metrics: the fixed plan untraced, then traced."""
        samples = {}
        plan = {c: 2 if c in self.own else 1 for c in CLASSES}
        _, untraced_wall = self.execute(samples, units=plan)
        tracer = Tracer()
        self.tracer = tracer
        self.scanned = dict.fromkeys(self.scanned, 0)
        try:
            with instrument(tracer):
                _, traced_wall = self.execute(samples, units=plan)
        finally:
            self.tracer = None
        probes = self.probes()
        one = {}
        for threads in (1, self.nproc):
            for _ in self._start("density", one, threads=threads):
                pass
            self._run_checks()
        single, parallel = (sum(self.ops[op][1] for op in unit) for unit in one["density_s"])
        speedup = single / parallel
        metrics = layer_metrics(tracer, self.spec, traced_wall, probes)
        metrics["search.parallel_speedup"] = speedup
        metrics["search.candidates_scanned"] = self.scanned["candidates"]
        metrics["search.indices_scanned"] = self.scanned["indices"]
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        extra = {
            "untraced_wall_s": untraced_wall,
            "traced_wall_s": traced_wall,
            "spans": len(tracer.spans),
            "parallel_threads": [1, self.nproc],
        }
        return metrics, tracer, extra

    def probes(self):
        """The scan alone and the notch alone, on every corpus lattice."""
        scan, notch = [], []
        for q in self.corpus:
            tile = self.tiles.build_tile(q.lattice)
            started = perf_counter()
            complete = self.tiles.fits_diameter(q.lattice, tile.m_diameter)
            scan.append(perf_counter() - started)
            started = perf_counter()
            self.tiles.find_notch(tile)
            notch.append(perf_counter() - started)
            self.attempted += 1
            if not complete or tile.m_diameter != q.diam:
                self._fail(f"probe n{q.n}", ["scan disagrees with the BFS diameter"])
        return {
            "tiles.scan_ms": 1e3 * statistics.median(scan),
            "tiles.find_notch_ms": 1e3 * statistics.median(notch),
        }


def layer_metrics(tracer: Tracer, spec: Spec, wall: float, probes: dict) -> dict:
    spans = tracer.spans
    selfs = tracer.self_times()
    durations, self_by_name = {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, own in zip(spans, selfs):
        name = s[0]
        durations.setdefault(name, []).append(s[2] - s[1])
        self_by_name.setdefault(name, []).append(own)
        layer_self[name.split(".")[0]] += own

    def total(name):
        return sum(durations.get(name, ()))

    def median_ms(values):
        return 1e3 * statistics.median(values) if values else 0.0

    calls = len(durations.get("tiles.fits_diameter", ()))
    m = {
        "lattices.enumerate_s": total("lattices.enumerate_sublattices"),
        "lattices.candidates_enumerated": tracer.counts.get("lattices.enumerate_sublattices", 0),
        "lattices.hnf_normalize_ms": median_ms(durations.get("lattices.hnf_normalize")),
        "tiles.fits_diameter_s": total("tiles.fits_diameter"),
        "tiles.fits_diameter_calls": calls,
        "tiles.fit_ratio": tracer.counts.get("tiles.fits", 0) / calls if calls else 0.0,
        "tiles.build_tile_ms": median_ms(durations.get("tiles.build_tile")),
        "tiles.tile_from_difference_ms": median_ms(durations.get("tiles.tile_from_difference")),
        "covering.covers_discrete_ms": median_ms(self_by_name.get("covering.covers_discrete")),
        "covering.continuous_cover_falsify_ms": median_ms(
            durations.get("covering.continuous_cover_falsify")
        ),
        "covering.grid_points": tracer.counts.get("covering.grid_points", 0),
        "bounds.notch_volume_bound_calls": len(durations.get("bounds.exact.notch_volume_bound", ())),
        "trace.accounted_share": sum(selfs) / wall,
        **probes,
    }
    mc_time = sum(total(f"bounds.mc.{e}") for e in MC_ESTIMATORS)
    m["bounds.mc_samples_per_s"] = tracer.counts.get("bounds.mc_samples", 0) / mc_time if mc_time else 0.0
    for e in MC_ESTIMATORS:
        m[f"bounds.mc_ms.{e}"] = median_ms(durations.get(f"bounds.mc.{e}"))
    for e in QUAD_ESTIMATORS:
        m[f"bounds.quad_ms.{e}"] = median_ms(durations.get(f"bounds.quad.{e}"))
    for c in CLI_COMMANDS:
        m[f"cli.self_ms.{c}"] = median_ms(self_by_name.get(f"cli.{c}"))
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]

    # per operation: search grid points, exact bound time, continuous grid
    grid = {f"search-f n{n}d{d} t1": spec.grid_metric(n, d) for n, d in spec.search_grid}
    per_point, exact_per_op = {}, {}
    for s in spans:
        name, op = s[0], s[4]
        if name == "search.brute_force_f" and op in grid:
            per_point.setdefault(grid[op], []).append(s[2] - s[1])
        if name.startswith("bounds.exact.") and (
            s[3] < 0 or not spans[s[3]][0].startswith("bounds.exact.")
        ):
            exact_per_op[op] = exact_per_op.get(op, 0.0) + s[2] - s[1]
    for label, metric in grid.items():
        m[metric] = statistics.median(per_point.get(metric, [0.0]))
    m["bounds.exact_ms"] = median_ms(list(exact_per_op.values()))
    return m
