import json

import pytest

from cayleycover.cli import emit_report, main


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


def test_tile_ascii(lattice_file, capsys):
    assert main(["tile", "--lattice", lattice_file, "--ascii"]) == 0
    out = capsys.readouterr().out
    assert out == "#v\n##\n##\n"


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
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(
            ["search-f", "--n", "2", "--d", "3", "--threads", "1", "--out", str(out)]
        ) == 0
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


def test_cover_continuous(lattice_file, box_lattice_file, capsys):
    code = main(
        ["cover", "--n", "2", "--d", "2", "--lattice", lattice_file, "--continuous"]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["continuous"] == {"D": 4, "resolution": 4, "witness": None}

    code = main(
        ["cover", "--n", "2", "--d", "1", "--lattice", box_lattice_file, "--continuous", "--resolution", "2"]
    )
    assert code == 1
    record = json.loads(capsys.readouterr().out)
    assert record["covered"] is False


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


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["cover", "--n", "2"])
    assert err.value.code == 2


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
