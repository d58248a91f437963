"""Command-line interface.

Subcommands: ``tile``, ``cover``, ``density-table``, ``search-f``,
``verify-bounds``, ``theta-bounds``.  Parsed flags are the run
configuration; the random seed defaults to a fixed constant, so identical
invocations reproduce identical results.  Exit codes: 0 success, 1 a
mathematical claim failed (not a covering, a bound check failed), 2 usage
error or out of memory.

Every integer flag has a least value, stated once in ``_LEAST`` and checked
in ``main`` before any command runs.  ``verify-bounds`` runs
``bounds.bound_check_battery`` and renders the checks it returns; the
battery, its pass gates and its input rules live in ``bounds``, and its
``BadBatteryInput`` is the one exception of a run that exits 2 as a usage
error.

JSON output is bit-stable: keys sorted, floats rounded to 12 significant
digits, rationals emitted as ``{"num": ..., "den": ...}`` objects.  The
writer (``_dump_json``) is the CLI's own and byte-identical to
``json.dumps(sort_keys=True, indent=2)``: with ``indent`` set, the stdlib
(Python 3.11) skips its C encoder for the pure-Python one, and that made
JSON output the largest single cost of a ``tile`` query.  A list of exact
ints is joined in one call.  A list of nonempty rows of one length, each a
list or tuple of exact ints (the tile's points, a witness basis), is written
with one ``%`` template applied to its flattened ints, so the writer makes no
call per point.  Any other list is written item by item.

``main(argv)`` may be called any number of times in one process; every call
parses with one shared parser, built on the first call (``_build_parser``).
The console script runs ``main`` once, as before.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import sys
import time
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii

from . import __version__, bounds
from .covering import continuous_cover_falsify, covers_discrete
from .errors import BadBatteryInput, CayleyCoverError
from .lattices import IntegerLattice, lattice_from_json_dict, lattice_to_json_dict
from .search import brute_force_f, density_trend, fn_upper_bound, theta_lower_bound
from .tiles import build_tile, kernel_backend, tile_to_json_dict


class UsageError(Exception):
    """A flag value the command cannot run with; exits with code 2."""


# the least value of each integer flag; where several are bad, the first in
# this order is reported.  A flag the command lacks, or leaves unset, is
# skipped
_LEAST = {
    "n_max": 2, "n": 1, "index_cap": 1, "threads": 1, "d": 0,
    "resolution": 1, "samples": 1, "nodes": 1,
}
_MUST_BE = {0: "nonnegative", 1: "a positive integer", 2: "at least 2"}


def _check_least_values(args) -> None:
    for dest, least in _LEAST.items():
        value = getattr(args, dest, None)
        if value is not None and value < least:
            flag = "--" + dest.replace("_", "-")
            raise UsageError(f"{flag} must be {_MUST_BE[least]}, got {value}")


# ---------------------------------------------------------------------------
# serialization helpers

def _dump_json(record) -> str:
    """The record as ``json.dumps(record, sort_keys=True, indent=2)`` writes
    it, after ``Fraction`` becomes ``{"num", "den"}`` and floats are rounded
    to 12 significant digits, plus a final newline."""
    return _json_text(record, "\n") + "\n"


def _json_text(obj, pad: str) -> str:
    """One JSON value; ``pad`` is the newline and indent of its own line."""
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if {int}.issuperset(map(type, obj)):
            items = map(int.__repr__, obj)
        elif _is_int_rows(obj):
            deeper = inner + "  "
            row = f"[{deeper}{(',' + deeper).join(['%d'] * len(obj[0]))}{inner}]"
            text = f"[{inner}{(',' + inner).join([row] * len(obj))}{pad}]"
            return text % tuple(chain.from_iterable(obj))
        else:
            items = [_json_text(v, inner) for v in obj]
        return f"[{inner}{(',' + inner).join(items)}{pad}]"
    if isinstance(obj, Fraction):
        obj = {"num": obj.numerator, "den": obj.denominator}
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{encode_basestring_ascii(_json_key(k))}: {_json_text(v, inner)}"
            for k, v in sorted(obj.items())
        ]
        return f"{{{inner}{(',' + inner).join(items)}{pad}}}"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return json.dumps(obj)
    if isinstance(obj, float):
        x = float(format(obj, ".12g"))
        if math.isfinite(x):
            return float.__repr__(x)
        return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _is_int_rows(obj) -> bool:
    """True iff obj holds only list or tuple rows of one nonzero length,
    whose items are all exact ints (not bools, not int subclasses)."""
    return (
        {list, tuple}.issuperset(map(type, obj))
        and len(set(map(len, obj))) == 1
        and len(obj[0]) > 0
        and {int}.issuperset(map(type, chain.from_iterable(obj)))
    )


def _json_key(key) -> str:
    """A dict key as json writes it: str, int, float, bool or None."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift Python's int-to-string digit limit, where it has one, for the
    duration: exact rationals such as ``fn_upper_bound(1200, 0)`` pass it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def emit_report(record, fmt: str, path=None) -> None:
    """Write a record as bit-stable JSON or CSV; whole-file writes only.
    Exact rationals are written in full, however many digits they have."""
    with _unlimited_int_digits():
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
    _write(text, path)


def _write(text: str, path) -> None:
    """Write text to stdout, or to the file at path, in one whole-file write."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_lattice(path: str) -> IntegerLattice:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return lattice_from_json_dict(json.load(fh))
        except (ValueError, TypeError, RecursionError, CayleyCoverError) as exc:
            raise UsageError(f"{path} is not a lattice file: {exc}") from None


# ---------------------------------------------------------------------------
# tile

def _render_ascii(tile) -> str:
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
    if args.ascii and lattice.dim != 2:
        raise UsageError(f"--ascii renders 2-D tiles only, the lattice has dimension {lattice.dim}")
    tile = build_tile(lattice)
    if args.ascii:
        _write(_render_ascii(tile) + "\n", args.out)
    else:
        emit_report(tile_to_json_dict(tile), "json", args.out)
    return 0


# ---------------------------------------------------------------------------
# cover

def _cmd_cover(args) -> int:
    lattice = _load_lattice(args.lattice)
    if lattice.dim != args.n:
        raise UsageError(f"--n is {args.n} but the lattice has dimension {lattice.dim}")
    tile = build_tile(lattice)
    verdict = covers_discrete(tile, args.d)
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
        witness = continuous_cover_falsify(tile, D, args.resolution)
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


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"{text!r} has a zero denominator") from None


def _cmd_density_table(args) -> int:
    rows = density_trend(args.n, list(args.d_range), index_cap=args.index_cap)
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
    report = brute_force_f(args.n, args.d, index_cap=args.index_cap)
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

def _cmd_verify_bounds(args) -> int:
    vs = [args.v] if args.v is not None else None
    checks = bounds.bound_check_battery(
        args.d_star,
        vs=vs,
        method=args.method,
        samples=args.samples,
        seed=args.seed,
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
        _write("\n".join(lines) + "\n", args.out)
    return 0 if all(c.passed for c in checks) else 1


# ---------------------------------------------------------------------------
# theta-bounds

def _cmd_theta_bounds(args) -> int:
    header = ["n", "theta_lower_num", "theta_lower_den"]
    if args.d is not None:
        header += ["d", "f_upper_num", "f_upper_den"]
    rows, table = [], []
    for n in range(2, args.n_max + 1):
        theta = theta_lower_bound(n)
        rows.append({"n": n, "theta_lower": theta})
        table.append([n, theta.numerator, theta.denominator])
        if args.d is not None:
            f_upper = fn_upper_bound(n, args.d)
            rows[-1].update(d=args.d, f_upper=f_upper)
            table[-1] += [args.d, f_upper.numerator, f_upper.denominator]
    if args.csv:
        emit_report((header, table), "csv", args.out)
    else:
        emit_report(rows, "json", args.out)
    return 0


# ---------------------------------------------------------------------------
# parser

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every ``main``
    call in the process.

    Parsing keeps no state in it: each parse makes a fresh namespace, and
    the ``func`` defaults are module functions that look up what they call
    in the module's globals at call time.
    """
    parser = argparse.ArgumentParser(
        prog="cayleycover",
        description="Cayley tiles, simplex coverings of Z^n, degree-diameter "
        "search, and bound verification",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"cayleycover {__version__} (kernel: {kernel_backend()})",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--n", type=int, required=True)
    search.add_argument("--index-cap", type=int)
    search.add_argument(
        "--threads", type=int, help="accepted for compatibility; the search runs in one process"
    )

    p = sub.add_parser("tile", parents=[out], help="build and render the Cayley tile of a lattice")
    p.add_argument("--lattice", required=True, help="lattice JSON file")
    p.add_argument("--ascii", action="store_true")
    p.set_defaults(func=_cmd_tile)

    p = sub.add_parser(
        "cover", parents=[out], help="decide whether a simplex plus lattice covers Z^n"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--lattice", required=True)
    p.add_argument("--continuous", action="store_true")
    p.add_argument("--resolution", type=int, default=4)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser(
        "density-table", parents=[search, out], help="minimum covering densities per radius"
    )
    p.add_argument("--d-range", type=_parse_d_range, required=True, metavar="A..B")
    p.set_defaults(func=_cmd_density_table)

    p = sub.add_parser("search-f", parents=[search, out], help="exhaustive degree-diameter value")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_search_f)

    p = sub.add_parser("verify-bounds", parents=[out], help="check the volume bounds numerically")
    p.add_argument("--d-star", type=_parse_fraction, default=Fraction(1))
    p.add_argument("--v", type=_parse_fraction)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=bounds.DEFAULT_SEED)
    p.add_argument("--method", choices=["mc", "quad"], default="mc")
    p.add_argument(
        "--nodes", type=int, default=96,
        help="accepted for compatibility; no effect, the quadrature is exact",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify_bounds)

    p = sub.add_parser(
        "theta-bounds", parents=[out], help="covering-density and order bound tables"
    )
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--d", type=int)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_theta_bounds)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_least_values(args)
        return args.func(args)
    except (OSError, UsageError, BadBatteryInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except CayleyCoverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
