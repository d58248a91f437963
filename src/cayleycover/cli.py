"""Command-line interface.

Subcommands: ``tile``, ``cover``, ``density-table``, ``search-f``,
``verify-bounds``, ``theta-bounds``.  Parsed flags are the run
configuration; every flag is validated before any computation starts and
the random seed defaults to a fixed constant, so identical invocations
reproduce identical results.  Exit codes: 0 success, 1 a mathematical claim
failed (not a covering, a bound check failed), 2 usage error.

JSON output is bit-stable: keys sorted, floats rounded to 12 significant
digits, rationals emitted as ``{"num": ..., "den": ...}`` objects.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import bounds
from .covering import continuous_cover_falsify, covers_discrete
from .errors import CayleyCoverError
from .lattices import IntegerLattice, lattice_from_json_dict, lattice_to_json_dict
from .search import brute_force_f, density_trend, fn_upper_bound, theta_lower_bound
from .tiles import build_tile, kernel_backend, tile_to_json_dict


@dataclass(frozen=True)
class BoundCheck:
    name: str
    estimate: float
    closed_form: float
    abs_err: float
    rel_err: float
    std_err: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "estimate": self.estimate,
            "closed_form": self.closed_form,
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "std_err": self.std_err,
            "pass": self.passed,
        }


class UsageError(Exception):
    """A flag value the command cannot run with; exits with code 2."""


# ---------------------------------------------------------------------------
# serialization helpers

def _json_ready(obj):
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    if isinstance(obj, float):
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def _dump_json(record) -> str:
    return json.dumps(_json_ready(record), sort_keys=True, indent=2) + "\n"


def emit_report(record, fmt: str, path=None) -> None:
    """Write a record as bit-stable JSON or CSV; whole-file writes only."""
    if fmt == "json":
        text = _dump_json(record)
    elif fmt == "csv":
        header, rows = record
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_lattice(path: str) -> IntegerLattice:
    with open(path, "r", encoding="utf-8") as fh:
        return lattice_from_json_dict(json.load(fh))


# ---------------------------------------------------------------------------
# tile

def _render_ascii(tile) -> str:
    if tile.dim != 2:
        raise ValueError("ascii rendering is only available for 2-D tiles")
    pts = tile.point_set
    notch = tile.notch
    mx = max(p[0] for p in pts)
    my = max(p[1] for p in pts)
    if notch is not None:
        mx = max(mx, notch[0])
        my = max(my, notch[1])
    lines = []
    for y in range(my, -1, -1):
        row = []
        for x in range(mx + 1):
            if (x, y) in pts:
                row.append("#")
            elif notch == (x, y):
                row.append("v")
            else:
                row.append(".")
        lines.append("".join(row))
    return "\n".join(lines)


def _cmd_tile(args) -> int:
    lattice = _load_lattice(args.lattice)
    tile = build_tile(lattice)
    if args.ascii:
        text = _render_ascii(tile) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    else:
        emit_report(tile_to_json_dict(tile), "json", args.out)
    return 0


# ---------------------------------------------------------------------------
# cover

def _cmd_cover(args) -> int:
    if args.d < 0:
        raise UsageError(f"--d must be nonnegative, got {args.d}")
    if args.resolution < 1:
        raise UsageError(f"--resolution must be a positive integer, got {args.resolution}")
    lattice = _load_lattice(args.lattice)
    if lattice.dim != args.n:
        raise UsageError(f"--n is {args.n} but the lattice has dimension {lattice.dim}")
    verdict = covers_discrete(args.n, args.d, lattice)
    record = {
        "n": args.n,
        "d": args.d,
        "covered": verdict.covered,
        "density": verdict.density,
        "witness": list(verdict.witness) if verdict.witness else None,
        "tile_diameter": verdict.tile_diameter,
    }
    failed = not verdict.covered
    if args.continuous:
        D = args.d + args.n
        witness = continuous_cover_falsify(args.n, D, lattice, args.resolution)
        record["continuous"] = {
            "D": D,
            "resolution": args.resolution,
            "witness": [str(c) for c in witness] if witness else None,
        }
        failed = failed or witness is not None
    emit_report(record, "json", args.out)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# density-table

def _parse_d_range(text: str) -> range:
    lo, _, hi = text.partition("..")
    try:
        a, b = int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("d-range must look like A..B") from exc
    if a < 0 or b < a:
        raise argparse.ArgumentTypeError("d-range must satisfy 0 <= A <= B")
    return range(a, b + 1)


def _cmd_density_table(args) -> int:
    rows = density_trend(
        args.n, list(args.d_range), index_cap=args.index_cap, threads=args.threads
    )
    header = ["d", "best_density_num", "best_density_den", "witness_lattice"]
    table = [
        [
            d,
            density.numerator,
            density.denominator,
            json.dumps(lattice_to_json_dict(witness)["basis"]),
        ]
        for d, density, witness in rows
    ]
    emit_report((header, table), "csv", args.out)
    return 0


# ---------------------------------------------------------------------------
# search-f

def _cmd_search_f(args) -> int:
    started = time.perf_counter()
    report = brute_force_f(
        args.n, args.d, index_cap=args.index_cap, threads=args.threads
    )
    elapsed_ms = int(round(1000 * (time.perf_counter() - started)))
    record = {
        "n": report.n,
        "d": report.d,
        "f": report.f_value,
        "witness_basis": [list(row) for row in report.witness.basis],
        "binomial_cap": report.binomial_cap,
        "paper_upper": report.paper_upper,
        "candidates_scanned": report.candidates_scanned,
        "exhaustive": report.exhaustive,
        "elapsed_ms": elapsed_ms,
    }
    emit_report(record, "json", args.out)
    return 0


# ---------------------------------------------------------------------------
# verify-bounds

def _mc_check(name, estimate, closed) -> BoundCheck:
    closed_f = float(closed)
    abs_err = abs(estimate.value - closed_f)
    rel_err = _relative(abs_err, closed_f)
    passed = abs_err <= bounds.MC_SIGMA_GATE * estimate.std_error + 1e-15
    passed = passed and rel_err <= bounds.MC_REL_TOL
    return BoundCheck(
        name, estimate.value, closed_f, abs_err, rel_err, estimate.std_error, passed
    )


def _quad_check(name, estimate, closed) -> BoundCheck:
    closed_f = float(closed)
    abs_err = abs(estimate.value - closed_f)
    rel_err = _relative(abs_err, closed_f)
    passed = rel_err <= bounds.QUAD_REL_TOL
    return BoundCheck(name, estimate.value, closed_f, abs_err, rel_err, 0.0, passed)


def _exact_check(name, value, expected) -> BoundCheck:
    abs_err = abs(float(value - expected))
    return BoundCheck(
        name, float(value), float(expected), abs_err, _relative(abs_err, float(expected)), 0.0, value == expected
    )


def _relative(abs_err: float, closed: float) -> float:
    if closed == 0.0:
        return 0.0 if abs_err == 0.0 else float("inf")
    return abs_err / abs(closed)


def bound_check_battery(
    d_star: Fraction,
    vs=None,
    method: str = "mc",
    samples: int = 1_000_000,
    seed: int = bounds.DEFAULT_SEED,
    nodes: int = 96,
    identity_pairs: int = 1000,
) -> list[BoundCheck]:
    """All verification checks at one diameter, as BoundCheck records."""
    if vs is None:
        vs = [d_star / 8, d_star / 7, d_star / 4]
    checks: list[BoundCheck] = []

    if method == "mc":
        est = bounds.integral_no_notch(d_star, "mc", samples=samples, seed=seed)
        checks.append(
            _mc_check("integral_no_notch[mc]", est, bounds.no_notch_integral_value(d_star))
        )
        for v in vs:
            cfg = bounds.NotchConfig(d_star, v)
            est = bounds.integral_notch(cfg, "mc", samples=samples, seed=seed)
            checks.append(
                _mc_check(
                    f"integral_notch[mc] v={v}",
                    est,
                    bounds.notch_integral_value(d_star, v),
                )
            )
            est = bounds.notch_region_volume_estimate(cfg, samples=samples, seed=seed)
            checks.append(
                _mc_check(
                    f"notch_region_volume[mc] v={v}",
                    est,
                    bounds.notch_region_volume(cfg),
                )
            )
    else:
        est = bounds.integral_no_notch(d_star, "quad", nodes=nodes)
        checks.append(
            _quad_check("integral_no_notch[quad]", est, bounds.no_notch_integral_value(d_star))
        )
        for v in vs:
            cfg = bounds.NotchConfig(d_star, v)
            est = bounds.integral_notch(cfg, "quad", nodes=nodes)
            checks.append(
                _quad_check(
                    f"integral_notch[quad] v={v}",
                    est,
                    bounds.notch_integral_value(d_star, v),
                )
            )

    checks.append(
        _exact_check(
            "no_notch_volume_identity",
            bounds.no_notch_volume_bound(d_star),
            d_star**4 / Fraction(32),
        )
    )
    rnd = random.Random(seed)
    pairs = [(d_star, v) for v in vs]
    for _ in range(identity_pairs):
        dr = Fraction(rnd.randint(1, 999), rnd.randint(1, 99))
        vr = dr * Fraction(rnd.randint(0, 4096), 4096) / 4
        pairs.append((dr, vr))
    worst_identity = max(
        abs(bounds.notch_identity_residual(d, v)) for d, v in pairs
    )
    checks.append(_exact_check("notch_bound_identity", worst_identity, Fraction(0)))
    worst_deriv = max(
        abs(bounds.derivative_factorization_residual(d, v)) for d, v in pairs
    )
    checks.append(
        _exact_check("derivative_factorization", worst_deriv, Fraction(0))
    )

    optimum = bounds.optimize_notch(d_star)
    grid_max = max(
        bounds.notch_volume_bound(d_star, d_star * i / (4 * 10_000))
        for i in range(10_001)
    )
    checks.append(
        BoundCheck(
            "notch_optimum_grid",
            float(grid_max),
            float(optimum.max_value),
            abs(float(grid_max - optimum.max_value)),
            _relative(abs(float(grid_max - optimum.max_value)), float(optimum.max_value)),
            0.0,
            optimum.v_max == d_star / 7
            and optimum.max_value == 11 * d_star**4 / 343
            and optimum.v_local_min == d_star / 4
            and optimum.local_min_value == d_star**4 / 32
            and grid_max <= optimum.max_value + Fraction(1, 10**12),
        )
    )
    checks.append(
        BoundCheck(
            "notch_max_dominates_no_notch",
            float(optimum.max_value),
            float(bounds.no_notch_volume_bound(d_star)),
            float(optimum.max_value - bounds.no_notch_volume_bound(d_star)),
            _relative(
                float(optimum.max_value - bounds.no_notch_volume_bound(d_star)),
                float(bounds.no_notch_volume_bound(d_star)),
            ),
            0.0,
            optimum.max_value > bounds.no_notch_volume_bound(d_star),
        )
    )
    checks.append(
        _exact_check(
            "integral_scaling_law",
            bounds.no_notch_integral_value(2 * d_star),
            16 * bounds.no_notch_integral_value(d_star),
        )
    )
    return checks


def _cmd_verify_bounds(args) -> int:
    vs = [args.v] if args.v is not None else None
    checks = bound_check_battery(
        args.d_star,
        vs=vs,
        method=args.method,
        samples=args.samples,
        seed=args.seed,
        nodes=args.nodes,
    )
    if args.json:
        emit_report([c.as_dict() for c in checks], "json", args.out)
    else:
        lines = []
        for c in checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(
                f"{status}  {c.name}: estimate={c.estimate:.10g} "
                f"closed={c.closed_form:.10g} rel_err={c.rel_err:.3g}"
            )
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    return 0 if all(c.passed for c in checks) else 1


# ---------------------------------------------------------------------------
# theta-bounds

def _cmd_theta_bounds(args) -> int:
    rows = []
    for n in range(2, args.n_max + 1):
        row = {"n": n, "theta_lower": theta_lower_bound(n)}
        if args.d is not None:
            row["f_upper"] = fn_upper_bound(n, args.d)
            row["d"] = args.d
        rows.append(row)
    if args.csv:
        header = ["n", "theta_lower_num", "theta_lower_den"]
        if args.d is not None:
            header += ["d", "f_upper_num", "f_upper_den"]
        table = []
        for row in rows:
            cells = [row["n"], row["theta_lower"].numerator, row["theta_lower"].denominator]
            if args.d is not None:
                cells += [row["d"], row["f_upper"].numerator, row["f_upper"].denominator]
            table.append(cells)
        emit_report((header, table), "csv", args.out)
    else:
        emit_report(rows, "json", args.out)
    return 0


# ---------------------------------------------------------------------------
# parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayleycover",
        description="Cayley tiles, simplex coverings of Z^n, degree-diameter "
        "search, and bound verification",
    )
    parser.add_argument(
        "--version", action="version", version=f"cayleycover (kernel: {kernel_backend()})"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tile", help="build and render the Cayley tile of a lattice")
    p.add_argument("--lattice", required=True, help="lattice JSON file")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=True)
    fmt.add_argument("--ascii", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_tile)

    p = sub.add_parser("cover", help="decide whether a simplex plus lattice covers Z^n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--lattice", required=True)
    p.add_argument("--continuous", action="store_true")
    p.add_argument("--resolution", type=int, default=4)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("density-table", help="minimum covering densities per radius")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d-range", type=_parse_d_range, required=True, metavar="A..B")
    p.add_argument("--index-cap", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_density_table)

    p = sub.add_parser("search-f", help="exhaustive degree-diameter value")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--index-cap", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_search_f)

    p = sub.add_parser("verify-bounds", help="check the volume bounds numerically")
    p.add_argument("--d-star", type=Fraction, default=Fraction(1))
    p.add_argument("--v", type=Fraction)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=bounds.DEFAULT_SEED)
    p.add_argument("--method", choices=["mc", "quad"], default="mc")
    p.add_argument("--nodes", type=int, default=96)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_bounds)

    p = sub.add_parser("theta-bounds", help="covering-density and order bound tables")
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--d", type=int)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_theta_bounds)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CayleyCoverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
