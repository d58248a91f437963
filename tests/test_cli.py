import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cayleycover
from cayleycover import bounds, build_tile, cli, covering, fn_upper_bound, search
from cayleycover.cli import emit_report, main
from cayleycover.lattices import lattice_to_json_dict
from cayleycover.tiles import tile_to_json_dict

from conftest import make_corpus


GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def lattice_file(tmp_path):
    path = tmp_path / "l5.json"
    path.write_text(json.dumps({"n": 2, "basis": [[5, 0], [-2, 1]]}))
    return str(path)


@pytest.fixture
def box_lattice_file(tmp_path):
    path = tmp_path / "l22.json"
    path.write_text(json.dumps({"n": 2, "basis": [[2, 0], [0, 2]]}))
    return str(path)


def test_tile_ascii(lattice_file, tmp_path, capsys):
    assert main(["tile", "--lattice", lattice_file, "--ascii"]) == 0
    out = capsys.readouterr().out
    assert out == "#v\n##\n##\n"
    # a cell of the bounding box that is neither tile nor notch prints as '.'
    path = tmp_path / "l6.json"
    path.write_text(json.dumps({"n": 2, "basis": [[3, 0], [1, 2]]}))
    assert main(["tile", "--lattice", str(path), "--ascii"]) == 0
    assert capsys.readouterr().out == "#.\n#v\n##\n##\n"


def test_tile_has_no_json_flag(lattice_file, capsys):
    # tile writes JSON unless --ascii is given; no flag asks for it
    with pytest.raises(SystemExit) as err:
        main(["tile", "--lattice", lattice_file, "--json"])
    assert err.value.code == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


def test_tile_json_roundtrip(lattice_file, capsys):
    assert main(["tile", "--lattice", lattice_file]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["n"] == 2 and record["det"] == 5 and record["diameter"] == 2
    assert record["points"] == [[0, 0], [0, 1], [1, 0], [0, 2], [1, 1]]
    assert record["notch"] == [1, 2]


def test_search_f_report(lattice_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["search-f", "--n", "2", "--d", "2", "--threads", "1", "--out", str(out)]
    )
    assert code == 0
    record = json.loads(out.read_text())
    assert record["f"] == 5
    assert record["exhaustive"] is True
    assert record["paper_upper"] == {"num": 16, "den": 3}
    assert record["binomial_cap"] == 6
    assert "elapsed_ms" in record and "candidates_scanned" in record


def test_search_f_deterministic_modulo_timing(tmp_path):
    # --threads is accepted and has no effect on the report
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.json"
        argv = ["search-f", "--n", "3", "--d", "3", "--threads", threads, "--out", str(out)]
        assert main(argv) == 0
        record = json.loads(out.read_text())
        record.pop("elapsed_ms")
        outs.append(record)
    assert outs[0] == outs[1]


def test_cover_exit_codes(lattice_file, capsys):
    assert main(["cover", "--n", "2", "--d", "2", "--lattice", lattice_file]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["covered"] is True
    assert record["density"] == {"num": 6, "den": 5}

    assert main(["cover", "--n", "2", "--d", "1", "--lattice", lattice_file]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["covered"] is False and record["witness"] == [0, 2]

    # bad flags are usage errors: one line on stderr, nothing on stdout
    for flags in (
        ["--n", "2", "--d", "-1"],
        ["--n", "3", "--d", "2"],
        ["--n", "1", "--d", "2"],
        ["--n", "2", "--d", "2", "--continuous", "--resolution", "0"],
        ["--n", "2", "--d", "2", "--resolution", "-3"],
    ):
        assert main(["cover", *flags, "--lattice", lattice_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cover_continuous(lattice_file, box_lattice_file, capsys, monkeypatch):
    built = []
    for module in (cli, covering):
        monkeypatch.setattr(
            module, "build_tile", lambda lattice, b=module.build_tile: built.append(1) or b(lattice)
        )
    code = main(
        ["cover", "--n", "2", "--d", "2", "--lattice", lattice_file, "--continuous"]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["continuous"] == {"D": 4, "resolution": 4, "witness": None}
    # both answers read one tile
    assert len(built) == 1

    code = main(
        ["cover", "--n", "2", "--d", "1", "--lattice", box_lattice_file, "--continuous", "--resolution", "2"]
    )
    assert code == 1
    record = json.loads(capsys.readouterr().out)
    assert record["covered"] is False


def test_search_commands_past_64_sub_diagonal_cells(capsys):
    assert main(["search-f", "--n", "12", "--d", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["f"] == 1
    assert main(["density-table", "--n", "12", "--d-range", "0..0"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("0,1,1,")


def test_density_table_csv(tmp_path):
    out = tmp_path / "table.csv"
    code = main(
        ["density-table", "--n", "2", "--d-range", "2..4", "--threads", "1", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "d,best_density_num,best_density_den,witness_lattice"
    assert lines[1].startswith("2,6,5,")
    assert len(lines) == 4


def test_theta_bounds_json(capsys):
    assert main(["theta-bounds", "--n-max", "4", "--d", "3"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[1]["n"] == 3
    assert rows[1]["theta_lower"] == {"num": 25, "den": 18}
    assert rows[2]["theta_lower"] == {"num": 343, "den": 264}
    assert rows[2]["f_upper"] == {"num": 77, "den": 1}


def _emit_long_rational(argv, capsys):
    # the exact bound has more digits than the int-to-string limit; the
    # report carries it unrounded and leaves the limit as it was
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    assert main(argv) == 0
    assert limit() == before
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


def test_search_f_emits_a_bound_past_the_int_digit_limit(capsys):
    out = _emit_long_rational(["search-f", "--n", "1200", "--d", "0"], capsys)
    with cli._unlimited_int_digits():
        upper = json.loads(out)["paper_upper"]
    assert Fraction(upper["num"], upper["den"]) == fn_upper_bound(1200, 0)


def test_theta_bounds_json_emits_a_bound_past_the_int_digit_limit(capsys):
    out = _emit_long_rational(["theta-bounds", "--n-max", "900", "--d", "1"], capsys)
    with cli._unlimited_int_digits():
        upper = json.loads(out)[-1]["f_upper"]
    assert Fraction(upper["num"], upper["den"]) == fn_upper_bound(900, 1)


def test_theta_bounds_csv_emits_a_bound_past_the_int_digit_limit(capsys):
    argv = ["theta-bounds", "--n-max", "900", "--d", "1", "--csv"]
    out = _emit_long_rational(argv, capsys)
    n, _, _, d, num, den = out.splitlines()[-1].split(",")
    with cli._unlimited_int_digits():
        upper = Fraction(int(num), int(den))
    assert (n, d) == ("900", "1") and upper == fn_upper_bound(900, 1)


def test_verify_bounds_quad_passes(tmp_path):
    out = tmp_path / "checks.json"
    code = main(
        ["verify-bounds", "--method", "quad", "--nodes", "48", "--json", "--out", str(out)]
    )
    assert code == 0
    checks = json.loads(out.read_text())
    assert all(c["pass"] for c in checks)
    names = {c["name"] for c in checks}
    assert "integral_no_notch[quad]" in names
    assert "notch_bound_identity" in names


def test_verify_bounds_quad_golden(capsys):
    # the quadrature is exact and deterministic, so the report is pinned
    # byte for byte
    golden = GOLDEN / "verify_bounds_quad_7_3.json"
    assert main(["verify-bounds", "--method", "quad", "--d-star", "7/3", "--json"]) == 0
    captured = capsys.readouterr()
    assert captured.out == golden.read_text() and captured.err == ""


def test_verify_bounds_mc_golden(capsys):
    # the Monte-Carlo streams are keyed by (seed, chunk), so the report at
    # the default seed and sample count is pinned byte for byte too
    golden = GOLDEN / "verify_bounds_mc_7_3.json"
    assert main(["verify-bounds", "--method", "mc", "--d-star", "7/3", "--json"]) == 0
    captured = capsys.readouterr()
    assert captured.out == golden.read_text() and captured.err == ""


def test_verify_bounds_mc_golden_one_v_partial_chunk(capsys):
    # one --v, a partial last chunk and seed 0, none of which the default
    # run takes; at 65537 samples the no-notch and notch estimates miss
    # their closed forms by more than 1%, so the run exits 1
    golden = GOLDEN / "verify_bounds_mc_5_2_v.json"
    argv = ["--d-star", "5/2", "--v", "1/4", "--samples", "65537", "--seed", "0", "--json"]
    assert main(["verify-bounds", "--method", "mc", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == golden.read_text() and captured.err == ""


# (golden file, lattice basis, arguments before --lattice): outputs pinned
# byte for byte; a query whose file is named *_fail_* exits 1
GOLDEN_QUERIES = [
    ("tile_4d_index96_notch.json",
     [[12, 0, 0, 0], [4, 2, 0, 0], [3, 1, 4, 0], [9, 0, 1, 1]], ["tile"]),
    ("tile_2d_index21.json", [[7, 0], [2, 3]], ["tile"]),
    # radius 13 is below the diameter 14; the witness has Fraction coordinates
    ("cover_continuous_fail_2d.json", [[12, 0], [8, 4]],
     ["cover", "--n", "2", "--d", "13", "--continuous", "--resolution", "3"]),
    # radius 5 is below the diameter 6: no density, the unreached tile point
    ("cover_fail_2d.json", [[9, 0], [4, 2]], ["cover", "--n", "2", "--d", "5"]),
    # at the diameter 12 the lift to D = 15 covers R^3: a null witness
    ("cover_continuous_pass_3d.json", [[6, 0, 0], [2, 5, 0], [1, 3, 4]],
     ["cover", "--n", "3", "--d", "12", "--continuous"]),
]


@pytest.mark.parametrize("name,basis,argv", GOLDEN_QUERIES)
def test_query_golden(name, basis, argv, tmp_path, capsys):
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps({"n": len(basis), "basis": basis}))
    code = main(argv + ["--lattice", str(path)])
    captured = capsys.readouterr()
    assert code == (1 if "_fail_" in name else 0)
    assert captured.out == (GOLDEN / name).read_text() and captured.err == ""


def test_search_f_golden(capsys):
    assert main(["search-f", "--n", "3", "--d", "3"]) == 0
    out = capsys.readouterr().out
    assert re.search(r'\n  "elapsed_ms": \d+,\n', out)
    out = re.sub(r'\n  "elapsed_ms": \d+,\n', "\n", out)
    assert out == (GOLDEN / "search_f_3_3.json").read_text()


def test_search_f_golden_4_2(capsys):
    assert main(["search-f", "--n", "4", "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert re.search(r'\n  "elapsed_ms": \d+,\n', out)
    out = re.sub(r'\n  "elapsed_ms": \d+,\n', "\n", out)
    assert out == (GOLDEN / "search_f_4_2.json").read_text()


def test_density_table_golden(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(["density-table", "--n", "3", "--d-range", "1..3", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == (GOLDEN / "density_table_3_1_3.csv").read_text()


COLD_PROBE = """
import atexit, json, runpy, sys
listing, sys.argv = sys.argv[1], ["cayleycover.cli", *sys.argv[2:]]

@atexit.register
def write_modules():
    with open(listing, "w") as fh:
        json.dump(sorted(sys.modules), fh)

runpy.run_module("cayleycover.cli", run_name="__main__", alter_sys=True)
"""


def _cold_run(argv, cwd):
    """Exit code, stdout, stderr and loaded modules of one CLI run in a
    fresh interpreter, started as ``python -m cayleycover.cli argv`` starts
    it (``runpy``), with the modules listed at exit."""
    src = str(Path(cli.__file__).parents[1])
    listing = cwd / "modules.json"
    run = subprocess.run(
        [sys.executable, "-c", COLD_PROBE, str(listing), *argv],
        capture_output=True, text=True, cwd=cwd, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    return run.returncode, run.stdout, run.stderr, set(json.loads(listing.read_text()))


# (argv, golden file or None, exit code); a None golden is checked against
# the same command run in process
COLD_COMMANDS = [
    *[
        (argv + ["--lattice", f"{name}.lattice"], name, 1 if "_fail_" in name else 0)
        for name, _, argv in GOLDEN_QUERIES
    ],
    (["search-f", "--n", "3", "--d", "3"], "search_f_3_3.json", 0),
    (["density-table", "--n", "3", "--d-range", "1..3"], "density_table_3_1_3.csv", 0),
    (["verify-bounds", "--method", "quad", "--d-star", "7/3", "--json"],
     "verify_bounds_quad_7_3.json", 0),
    (["theta-bounds", "--csv"], None, 0),
    (["theta-bounds", "--d", "3"], None, 0),
]


@pytest.mark.parametrize("argv,golden,code", COLD_COMMANDS)
def test_every_command_from_a_cold_start(argv, golden, code, tmp_path, capsys):
    # in this process every module is already loaded, so a missing import
    # shows only in a fresh interpreter
    for name, basis, _ in GOLDEN_QUERIES:
        (tmp_path / f"{name}.lattice").write_text(json.dumps({"n": len(basis), "basis": basis}))
    returncode, out, err, imported = _cold_run(argv, tmp_path)
    assert (returncode, err) == (code, "")
    if golden is None:
        assert main(argv) == code
        expected = capsys.readouterr().out
    else:
        expected = (GOLDEN / golden).read_text()
    if argv[0] == "search-f":
        assert re.search(r'\n  "elapsed_ms": \d+,\n', out)
        out = re.sub(r'\n  "elapsed_ms": \d+,\n', "\n", out)
    assert out == expected
    # bounds loads for verify-bounds alone, csv for the CSV writers alone
    assert ("cayleycover.bounds" in imported) == (argv[0] == "verify-bounds")
    assert ("csv" in imported) == (argv[0] == "density-table" or "--csv" in argv)


def test_verify_bounds_seed_defaults_to_1729(capsys):
    # the parser leaves --seed unset and the command fills in bounds'
    # DEFAULT_SEED, so an unset seed and --seed 1729 give the same bytes
    assert cli._build_parser().parse_args(["verify-bounds"]).seed is None
    assert bounds.DEFAULT_SEED == 1729
    base = ["verify-bounds", "--d-star", "5/2", "--samples", "4096", "--json"]
    for method in ("mc", "quad"):
        outputs = []
        for seed in ([], ["--seed", "1729"], ["--seed", "1730"]):
            main([*base, "--method", method, *seed])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        # another seed moves the Monte-Carlo estimates only
        assert (outputs[2] == outputs[0]) == (method == "quad")


EXACT_CHECKS = [
    "no_notch_volume_identity",
    "notch_bound_identity",
    "derivative_factorization",
    "notch_optimum_grid",
    "notch_max_dominates_no_notch",
    "integral_scaling_law",
]


@pytest.mark.parametrize(
    "flags, names",
    [
        (["--method", "mc"], [
            "integral_no_notch[mc]",
            "integral_notch[mc] v=7/24", "notch_region_volume[mc] v=7/24",
            "integral_notch[mc] v=1/3", "notch_region_volume[mc] v=1/3",
            "integral_notch[mc] v=7/12", "notch_region_volume[mc] v=7/12",
        ]),
        (["--method", "quad"], [
            "integral_no_notch[quad]",
            "integral_notch[quad] v=7/24", "integral_notch[quad] v=1/3", "integral_notch[quad] v=7/12",
        ]),
        (["--method", "mc", "--v", "0"], [
            "integral_no_notch[mc]", "integral_notch[mc] v=0", "notch_region_volume[mc] v=0",
        ]),
        (["--method", "quad", "--v", "0"], ["integral_no_notch[quad]", "integral_notch[quad] v=0"]),
    ],
)
def test_verify_bounds_check_names_in_order(capsys, flags, names):
    argv = ["verify-bounds", "--d-star", "7/3", "--samples", "1000", "--json", *flags]
    assert main(argv) in (0, 1)
    assert [c["name"] for c in json.loads(capsys.readouterr().out)] == names + EXACT_CHECKS


def test_verify_bounds_quad_tiny_d_star_is_exact(capsys):
    # the closed forms are subnormal floats here; the quadrature is exact,
    # so nothing underflows to a false failure
    assert main(["verify-bounds", "--method", "quad", "--d-star", "1e-80", "--json"]) == 0
    checks = json.loads(capsys.readouterr().out)
    assert all(c["pass"] for c in checks)
    quad = [c for c in checks if "[quad]" in c["name"]]
    assert len(quad) == 4
    assert all(c["abs_err"] == 0 for c in quad)
    # below 1e-80, d*^4/384 rounds to 0 as a float; the exact decisions
    # stand there too
    assert main(["verify-bounds", "--method", "quad", "--d-star", "1e-81"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_notch_optimum_grid_sees_an_excess_far_below_the_maximum(monkeypatch):
    # at d* = 1e-80 the maximum is about 3e-322; raising the quartic by a
    # millionth of it at the two grid points around d*/7 must still fail
    d_star = Fraction(1, 10**80)
    peak = 11 * d_star**4 / 343
    brackets = {d_star * 5714 / 40_000, d_star * 5715 / 40_000}
    quartic = bounds.notch_volume_bound

    def raised(d, v):
        return quartic(d, v) + (peak / 10**6 if v in brackets else 0)

    monkeypatch.setattr(bounds, "notch_volume_bound", raised)
    checks = {c.name: c.passed for c in bounds.bound_check_battery(d_star, method="quad")}
    assert [name for name, passed in checks.items() if not passed] == ["notch_optimum_grid"]


def test_notch_optimum_grid_estimate_is_the_full_grid_maximum():
    # the quartic is homogeneous of degree 4, so the full 10 001-point scan
    # at d* is exactly d*^4 times the scan at d* = 1, which runs once here
    unit = [bounds.notch_volume_bound(1, Fraction(i, 40_000)) for i in range(10_001)]
    top = max(unit)
    assert unit.index(top) in (40_000 // 7, 40_000 // 7 + 1)
    rng = random.Random(53)
    drawn = [Fraction(rng.randint(1, 999), rng.randint(1, 99)) for _ in range(50)]
    for d_star in drawn + [Fraction(1, 10**80), Fraction(10**20)]:
        checks = {c.name: c for c in bounds.bound_check_battery(d_star, method="quad")}
        assert checks["notch_optimum_grid"].estimate == float(d_star**4 * top)
        assert checks["notch_optimum_grid"].passed


def _plus(term):
    return lambda exact: lambda d, v: exact(d, v) + term(d, v)


@pytest.mark.parametrize(
    "function, check, replace",
    [
        # the first two terms vanish at v = d*/7 and v = d*/4, where
        # optimize_notch looks, so only the identity checks can see them
        ("notch_volume_bound", "notch_bound_identity",
         _plus(lambda d, v: d * v * (v - d / 7) * (v - d / 4) / 10**6)),
        ("notch_volume_bound_derivative", "derivative_factorization",
         _plus(lambda d, v: v * (v - d / 7) * (v - d / 4) / 10**6)),
        # optimize_notch rejects this quartic; the battery reports that
        ("notch_volume_bound", "notch_optimum_grid", lambda exact: lambda d, v: 0),
    ],
)
def test_verify_bounds_identity_checks_catch_perturbations(
    monkeypatch, capsys, function, check, replace
):
    monkeypatch.setattr(bounds, function, replace(getattr(bounds, function)))
    assert main(["verify-bounds", "--method", "quad", "--d-star", "7/3", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    failed = [c["name"] for c in json.loads(captured.out) if not c["pass"]]
    assert check in failed


def test_verify_bounds_sees_a_derivative_that_is_not_the_quartics(monkeypatch, capsys):
    # moving the notch integral by t and the quartic by -4t keeps the notch
    # identity; t has roots d*/8, d*/7 (double) and d*/4, so the integral
    # checks at those v, optimize_notch and the grid points around d*/7
    # still pass, yet the quartic now exceeds 11 d*^4/343 further out.
    # Only the Simpson step sees that the stated derivative is not the
    # quartic's, which the monotonicity argument needs
    def t(d, v):
        return 20 * (v - d / 8) * (v - d / 7) ** 2 * (v - d / 4)

    integral, quartic = bounds.notch_integral_value, bounds.notch_volume_bound
    monkeypatch.setattr(bounds, "notch_integral_value", lambda d, v: integral(d, v) + t(d, v))
    monkeypatch.setattr(bounds, "notch_volume_bound", lambda d, v: quartic(d, v) - 4 * t(d, v))
    d_star = Fraction(7, 3)
    assert max(
        bounds.notch_volume_bound(d_star, d_star * i / 400) for i in range(101)
    ) > 11 * d_star**4 / 343
    assert main(["verify-bounds", "--method", "quad", "--d-star", "7/3", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    failed = [c["name"] for c in json.loads(captured.out) if not c["pass"]]
    assert failed == ["derivative_factorization"]


def test_verify_bounds_mc_failure_sets_exit_code(tmp_path):
    # at 50k samples this seed misses the 1 percent gate on two checks;
    # Philox streams are stable, so the failure is reproducible
    out = tmp_path / "checks.json"
    code = main(
        ["verify-bounds", "--samples", "50000", "--seed", "42", "--json", "--out", str(out)]
    )
    assert code == 1
    checks = json.loads(out.read_text())
    assert any(not c["pass"] for c in checks)


def test_mc_gate_cushion_is_float_rounding_only(capsys):
    # at v = 0 the pocket estimate has std error 0 and is d*^4/24 in floats,
    # an ulp or two off the rounded closed form
    for d_star in ("11/3", "1e-80"):
        argv = ["verify-bounds", "--v", "0", "--d-star", d_star, "--samples", "200000"]
        assert main(argv) == 0, d_star
    capsys.readouterr()
    # a relative error of 1e-12 is not rounding at any scale
    for d_star in (Fraction(1, 10**6), Fraction(11, 3), Fraction(10**6)):
        closed = bounds.notch_region_volume(bounds.NotchConfig(d_star, 0))
        estimate = bounds.IntegralEstimate(float(closed) * (1 + 1e-12), 0.0, 1, "monte_carlo", 0)
        assert not bounds._mc_check("pocket", estimate, closed).passed, d_star


def test_usage_error_exits_2(tmp_path, lattice_file, capsys):
    with pytest.raises(SystemExit) as err:
        main(["cover", "--n", "2"])
    assert err.value.code == 2
    capsys.readouterr()

    def assert_usage_error(argv):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps({"n": 3, "basis": [[2, 0, 0], [0, 2, 0], [0, 0, 2]]}))
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"n": 2, "basis": [[5, 0], [')
    singular = tmp_path / "singular.json"
    singular.write_text(json.dumps({"n": 2, "basis": [[1, 2], [2, 4]]}))
    fractional = tmp_path / "fractional.json"
    fractional.write_text(json.dumps({"n": 2, "basis": [[2.7, 0], [0, 1]]}))
    strings = tmp_path / "strings.json"
    strings.write_text(json.dumps({"n": 2, "basis": [["3", "0"], ["0", "1"]]}))
    fractional_n = tmp_path / "fractional_n.json"
    fractional_n.write_text(json.dumps({"n": 2.5, "basis": [[2, 0], [0, 1]]}))
    # a basis that does not fit n
    shapes = {
        "basis rows have length 3, not 2": {"n": 2, "basis": [[5, 0, 0], [2, 1, 0], [0, 0, 1]]},
        "empty generating set": {"n": 2, "basis": []},
    }
    for i, (message, lattice) in enumerate(shapes.items()):
        shapes[message] = tmp_path / f"shape{i}.json"
        shapes[message].write_text(json.dumps(lattice))
    # deeper than the JSON decoder's recursion limit
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    # JSON booleans are not integers, though operator.index takes them
    booleans = []
    for i, lattice in enumerate((
        {"n": 2, "basis": [[True, 0], [False, True]]},  # would tile as the identity
        {"n": True, "basis": [[2]]},  # would be read as n = 1
        {"n": 2, "basis": [[5, 0], [True, 1]]},
    )):
        booleans.append(tmp_path / f"boolean{i}.json")
        booleans[-1].write_text(json.dumps(lattice))
    # each is reported in one line on stderr before any compute
    for argv in (
        ["search-f", "--n", "0", "--d", "2"],
        ["search-f", "--n", "2", "--d", "-1"],
        ["search-f", "--n", "2", "--d", "2", "--index-cap", "0"],
        ["density-table", "--n", "0", "--d-range", "1..2"],
        ["tile", "--lattice", str(cube), "--ascii"],
        ["tile", "--lattice", str(malformed)],
        ["tile", "--lattice", str(singular)],
        ["tile", "--lattice", str(fractional)],
        ["tile", "--lattice", str(strings)],
        ["tile", "--lattice", str(fractional_n)],
        *(["tile", "--lattice", str(path)] for path in shapes.values()),
        *(["cover", "--n", "2", "--d", "1", "--lattice", str(path)] for path in shapes.values()),
        ["cover", "--n", "2", "--d", "1", "--lattice", str(malformed)],
        ["tile", "--lattice", str(nested)],
        ["cover", "--n", "2", "--d", "1", "--lattice", str(nested)],
        *(["tile", "--lattice", str(path)] for path in booleans),
        *(["cover", "--n", "2", "--d", "1", "--lattice", str(path)] for path in booleans),
        ["verify-bounds", "--samples", "0"],
        ["verify-bounds", "--method", "quad", "--nodes", "0"],
        ["verify-bounds", "--d-star", "0"],
        ["verify-bounds", "--d-star", "1", "--v", "1/2"],
        # a seed outside 64 bits would alias one inside: 2^64 + 1729 and 1729
        ["verify-bounds", "--seed", "-1"],
        ["verify-bounds", "--seed", str(2**64)],
        ["verify-bounds", "--method", "quad", "--seed", str(2**64 + 1729)],
        ["theta-bounds", "--d", "-1"],
        ["search-f", "--n", "2", "--d", "2", "--threads", "0"],
        ["search-f", "--n", "2", "--d", "2", "--threads", "-4"],
        ["density-table", "--n", "2", "--d-range", "1..2", "--threads", "0"],
        ["verify-bounds", "--d-star", "1e100"],
        # d*^4/384 is 0 as a float: every Monte-Carlo check would pass at 0
        ["verify-bounds", "--d-star", "1e-81"],
        ["verify-bounds", "--method", "mc", "--d-star", "1e-400", "--v", "0"],
        ["theta-bounds", "--n-max", "0"],
        ["theta-bounds", "--n-max", "-3", "--csv"],
    ):
        assert_usage_error(argv)

    for path in booleans:
        assert main(["tile", "--lattice", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path} is not a lattice file: "
            "lattice JSON holds a boolean where an integer belongs\n"
        )
    for message, path in shapes.items():
        assert main(["tile", "--lattice", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path} is not a lattice file: {message}\n"

    # values the argument parser rejects: usage line, then one error line
    shape, order = "d-range must look like A..B", "d-range must satisfy 0 <= A <= B"
    for argv, error in (
        (["verify-bounds", "--d-star", "1/0"], "argument --d-star: '1/0' has a zero denominator"),
        (["verify-bounds", "--v", "1/0"], "argument --v: '1/0' has a zero denominator"),
        *(
            (["density-table", "--n", "2", f"--d-range={text}"], f"argument --d-range: {message}")
            for text, message in (
                ("5", shape), ("a..b", shape), ("..", shape), ("3..1", order), ("-1..2", order)
            )
        ),
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert [line for line in captured.err.splitlines() if "error:" in line] == [
            f"cayleycover {argv[0]}: error: {error}"
        ]


# one bad value per integer flag and command, with its one stderr line, byte
# for byte; where several flags are bad, the first in _LEAST's order is
# reported
@pytest.mark.parametrize(
    "argv, message",
    [
        (["search-f", "--n", "0", "--d", "2"], "--n must be a positive integer, got 0"),
        (["search-f", "--n", "2", "--d", "-1"], "--d must be nonnegative, got -1"),
        (["search-f", "--n", "2", "--d", "2", "--index-cap", "0"],
         "--index-cap must be a positive integer, got 0"),
        (["search-f", "--n", "2", "--d", "2", "--threads", "-4"],
         "--threads must be a positive integer, got -4"),
        (["density-table", "--n", "-1", "--d-range", "1..2"],
         "--n must be a positive integer, got -1"),
        (["density-table", "--n", "2", "--d-range", "1..2", "--index-cap", "-1"],
         "--index-cap must be a positive integer, got -1"),
        (["density-table", "--n", "2", "--d-range", "1..2", "--threads", "0"],
         "--threads must be a positive integer, got 0"),
        (["cover", "--n", "0", "--d", "2"], "--n must be a positive integer, got 0"),
        (["cover", "--n", "2", "--d", "-1"], "--d must be nonnegative, got -1"),
        (["cover", "--n", "2", "--d", "2", "--resolution", "0"],
         "--resolution must be a positive integer, got 0"),
        (["verify-bounds", "--samples", "0"], "--samples must be a positive integer, got 0"),
        (["verify-bounds", "--nodes", "-1"], "--nodes must be a positive integer, got -1"),
        (["theta-bounds", "--n-max", "1"], "--n-max must be at least 2, got 1"),
        (["theta-bounds", "--d", "-1"], "--d must be nonnegative, got -1"),
        (["search-f", "--n", "2", "--d", "-1", "--index-cap", "0", "--threads", "0"],
         "--index-cap must be a positive integer, got 0"),
        (["theta-bounds", "--n-max", "0", "--d", "-1"], "--n-max must be at least 2, got 0"),
        (["verify-bounds", "--samples", "0", "--nodes", "0", "--seed", "-1"],
         "--samples must be a positive integer, got 0"),
    ],
)
def test_integer_flag_errors_byte_for_byte(argv, message, lattice_file, capsys):
    if argv[0] == "cover":
        argv = argv + ["--lattice", lattice_file]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_battery_input_errors_exit_2_and_nothing_else_does(monkeypatch, capsys):
    assert main(["verify-bounds", "--method", "quad", "--seed", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: seed must lie in [0, 2^64), got -1\n")
    # an error of the run itself is not a usage error
    def broken(*args):
        raise ValueError("not an input error")

    monkeypatch.setattr(bounds, "_region_estimates", broken)
    with pytest.raises(ValueError, match="not an input error"):
        main(["verify-bounds", "--method", "quad"])


def test_a_search_too_large_exits_2_with_one_line(monkeypatch, tmp_path, capsys):
    # with no type for the fit test, the first block tested has none
    monkeypatch.setattr(search, "_FIT_TYPES", ())
    out = tmp_path / "out"
    for argv, message in [
        (["search-f", "--n", "2", "--d", "5"],
         "n = 2, d = 5: the lattices of index 16 with diagonal (4, 4)"),
        (["density-table", "--n", "3", "--d-range", "1..3"],
         "n = 3, d = 1: the lattices of index 4 with diagonal (2, 1, 2)"),
    ]:
        for extra in ([], ["--out", str(out)]):
            assert main(argv + extra) == 2
            assert capsys.readouterr() == (
                "", f"error: {message} could overflow int64 in the fit test\n"
            )
    assert not out.exists()


def test_out_of_memory_exits_2(lattice_file, monkeypatch, capsys):
    def exhausted(lattice):
        raise MemoryError

    monkeypatch.setattr(cli, "build_tile", exhausted)
    assert main(["tile", "--lattice", lattice_file]) == 2
    assert capsys.readouterr() == ("", "error: out of memory\n")


def test_out_of_memory_exits_2_under_an_address_space_limit(tmp_path):
    # det 10^15 asks the tile scan for a 10^15-byte table; the limit
    # applies to the child alone
    resource = pytest.importorskip("resource")
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 1, "basis": [[10**15]]}))

    def limit():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        soft = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    src = str(Path(cli.__file__).parents[1])
    run = subprocess.run(
        [sys.executable, "-m", "cayleycover.cli", "tile", "--lattice", str(path)],
        capture_output=True, text=True, preexec_fn=limit, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (run.returncode, run.stdout, run.stderr) == (2, "", "error: out of memory\n")


def test_version_names_the_package_version(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out == f"cayleycover {cayleycover.__version__} (kernel: numpy)\n"
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "(.*)"$', pyproject, re.M)[1] == cayleycover.__version__


def test_shared_parser_keeps_no_state_between_calls(tmp_path, lattice_file, capsys):
    out = tmp_path / "table.csv"
    calls = [
        ["tile", "--lattice", lattice_file],
        ["tile", "--lattice", lattice_file, "--ascii"],
        ["cover", "--n", "2"],  # rejected by the argument parser
        ["cover", "--n", "2", "--d", "2", "--lattice", lattice_file, "--continuous",
         "--resolution", "2"],
        ["cover", "--n", "2", "--d", "2", "--lattice", lattice_file, "--continuous"],
        ["search-f", "--n", "0", "--d", "2"],  # a usage error
        ["search-f", "--n", "2", "--d", "2"],
        ["density-table", "--n", "2", "--d-range", "1..3", "--out", str(out)],
        ["verify-bounds", "--method", "mc", "--samples", "3000", "--seed", "5", "--json"],
        ["verify-bounds", "--method", "mc", "--samples", "3000", "--json"],
        ["verify-bounds", "--method", "quad", "--d-star", "7/3"],
        ["theta-bounds", "--n-max", "4", "--csv"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        written = out.read_text() if out.exists() else None
        out.unlink(missing_ok=True)
        # search-f reports its wall time; every other byte must repeat
        text = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', captured.out)
        return code, text, captured.err, written

    cli._build_parser.cache_clear()
    shared = [run(argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    assert shared == fresh

    codes = [code for code, *_ in shared]
    assert codes[2] == ("exit", 2) and codes[5] == 2 and codes[11] == 0
    continuous = [json.loads(shared[i][1])["continuous"]["resolution"] for i in (3, 4)]
    assert continuous == [2, 4]
    assert shared[7][1] == "" and shared[7][3].startswith("d,best_density_num")
    seeded, default = (json.loads(shared[i][1]) for i in (8, 9))
    assert seeded != default


def test_missing_lattice_file_is_usage_error(tmp_path):
    assert main(["tile", "--lattice", str(tmp_path / "nope.json")]) == 2


def test_emit_report_float_formatting(tmp_path, capsys):
    emit_report({"x": 0.123456789012345678, "bignum": 2**70}, "json", None)
    out = capsys.readouterr().out
    record = json.loads(out)
    assert record["x"] == float(format(0.123456789012345678, ".12g"))
    assert record["bignum"] == 2**70
    # identical records serialize byte for byte
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    emit_report({"z": [1, 2, {"k": 0.1}]}, "json", str(path_a))
    emit_report({"z": [1, 2, {"k": 0.1}]}, "json", str(path_b))
    assert path_a.read_bytes() == path_b.read_bytes()


def _reference_json_ready(obj):
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    if isinstance(obj, float):
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {k: _reference_json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_json_ready(v) for v in obj]
    return obj


def reference_dump_json(record) -> str:
    """The stdlib path the writer replaces."""
    return json.dumps(_reference_json_ready(record), sort_keys=True, indent=2) + "\n"


_EDGE_FLOATS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308,
    0.1 + 0.2, 999999999999.5, 999999999999.4, 0.1234567890125, 1.0000000000005,
    123456789012.49, 9999999999999998.0, 1e16, 1e-4, 1e-5, 1.7976931348623157e308,
]
_ROW_ITEMS = st.one_of(
    st.integers(),
    st.booleans(),
    st.integers(4300, 4400).map(lambda k: (-1) ** k * (10**k + 7)),
)


@st.composite
def _int_rows(draw):
    """A list (or tuple) of rows: most often equal-length rows of exact ints,
    as list or tuple, which the writer joins in one call; otherwise rows
    holding a bool or of another length, or empty rows, which it must not."""
    k = draw(st.integers(0, 4))
    ints = st.lists(st.integers(), min_size=k, max_size=k)
    huge = st.lists(_ROW_ITEMS, min_size=k, max_size=k)
    rows = draw(
        st.one_of(
            st.lists(ints, min_size=1),
            st.lists(
                st.one_of(ints, ints.map(tuple), huge, st.lists(st.integers(), max_size=5)),
                min_size=1,
            ),
        )
    )
    return tuple(rows) if draw(st.booleans()) else rows


_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(4300, 4400).map(lambda k: 10**k + 7),
    st.integers(4300, 4400).map(lambda k: -(3**(k * 2))),
    st.floats(),
    st.sampled_from(_EDGE_FLOATS),
    st.builds(lambda m, e: m * 10.0**e, st.integers(-10**13, 10**13), st.integers(-30, 30)),
    st.fractions(),
    st.builds(Fraction, st.integers(-10**4400, 10**4400), st.integers(1, 10**50)),
    st.text(),
    st.sampled_from(['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é€\u2028😀", "\ud800"]),
    st.lists(st.one_of(st.integers(), st.booleans())),
    _int_rows(),
)
_RECORDS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.dictionaries(st.text(), inner),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None, database=None)
@given(_RECORDS)
def test_dump_json_matches_stdlib_writer(record):
    with cli._unlimited_int_digits():
        assert cli._dump_json(record) == reference_dump_json(record)


def test_tile_json_in_dimension_4_matches_stdlib_writer(tmp_path, capsys):
    for lattice in make_corpus(21, [(4, 96, 4)]):
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps(lattice_to_json_dict(lattice)))
        assert main(["tile", "--lattice", str(path)]) == 0
        record = tile_to_json_dict(build_tile(lattice))
        assert len(record["points"]) == lattice.det
        assert capsys.readouterr().out == reference_dump_json(record)


def test_dump_json_dict_keys_as_stdlib():
    for record in ({1: "a", -2: "b"}, {1.5: 0, -0.0: 1, math.inf: 2}, {None: 1}, {True: 0, False: 1}):
        assert cli._dump_json(record) == reference_dump_json(record)
    for record in ({(1, 2): 0}, {"a": 0, 1: 1}, {"x": object()}):
        with pytest.raises(TypeError):
            reference_dump_json(record)
        with pytest.raises(TypeError):
            cli._dump_json(record)
