import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cayleycover.search as search_mod
from cayleycover import (
    CapTooSmall,
    IntegerLattice,
    brute_force_f,
    build_tile,
    density_trend,
    f2_closed_form,
    f3_upper_bound,
    f4_upper_bound,
    fits_diameter,
    fn_upper_bound,
    hnf_normalize,
    theta_lower_bound,
)
from cayleycover.lattices import count_sublattices, divisors, enumerate_sublattices
from conftest import bfs_quotient_diameter

# (n, d) -> candidates_scanned, with f and the witness fixed by
# the benchmark oracle
BENCH_GRID_SCANNED = {(2, 16): 44, (3, 3): 2792, (3, 4): 15208, (4, 2): 12666, (5, 1): 770}

# (n, d) -> (f, witness, candidates_scanned) beyond the benchmark grid
LARGER_POINTS = {
    (3, 5): (40, ((5, 0, 0), (0, 8, 0), (4, 5, 1)), 75877),
    (4, 3): (27, ((3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (1, 1, 1, 1)), 509409),
    (5, 2): (
        19,
        ((19, 0, 0, 0, 0), (2, 1, 0, 0, 0), (11, 0, 1, 0, 0), (13, 0, 0, 1, 0), (14, 0, 0, 0, 1)),
        872543,
    ),
}


def block_size(diag):
    """Number of HNFs with this diagonal: entry (i, j) ranges over [0, diag[j])."""
    return math.prod(diag[j] ** (len(diag) - 1 - j) for j in range(len(diag)))


def hnf_key(basis):
    """The search key of an HNF basis: its diagonal and its sub-diagonal
    cells, row by row."""
    diag = tuple(row[i] for i, row in enumerate(basis))
    return diag, [v for i, row in enumerate(basis) for v in row[:i]]


def test_f2_closed_form_values():
    assert f2_closed_form(0) == 1
    assert f2_closed_form(2) == 5
    assert f2_closed_form(10) == 48
    assert [f2_closed_form(d) for d in range(9)] == [
        (d + 2) ** 2 // 3 for d in range(9)
    ]


def test_f3_upper_bound_values():
    assert f3_upper_bound(2) == 15
    assert f3_upper_bound(0) == Fraction(81, 25)
    assert f3_upper_bound(1) == Fraction(192, 25)


def test_f4_upper_bound_values():
    assert f4_upper_bound(0) == Fraction(2816, 343)
    assert f4_upper_bound(3) == 77
    assert f4_upper_bound(10) == Fraction(11 * 38416, 343)


def test_fn_upper_bound_specializations():
    for d in range(101):
        assert fn_upper_bound(3, d) == f3_upper_bound(d)
        assert fn_upper_bound(4, d) == f4_upper_bound(d)
    assert fn_upper_bound(2, 1) == 3
    for d in range(30):
        assert fn_upper_bound(2, d) == Fraction((d + 2) ** 2, 3)


def test_theta_lower_bound_values():
    assert theta_lower_bound(3) == Fraction(25, 18)
    assert theta_lower_bound(4) == Fraction(343, 264)
    assert theta_lower_bound(2) == Fraction(3, 2)


def test_order_and_density_bounds_match_their_formulas_in_any_call_order():
    # both bounds share one factor per n; asked out of order, and n apart,
    # each must still be its formula, reduced from scratch by Fraction
    def factor(n):
        power = (2 * n - 1) ** (n - 1)
        return Fraction((n - 1) * power + (n - 1) ** (n - 1), power)

    rng = random.Random(5)
    calls = [(n, d) for n in range(2, 61) for d in (0, 1, 2, 7, 10**12)]
    rng.shuffle(calls)
    for n, d in calls:
        expected = Fraction((d + n) ** n * factor(n), n * math.factorial(n))
        assert fn_upper_bound(n, d) == expected
        assert theta_lower_bound(n) == n / factor(n)


def test_brute_force_small_examples():
    report = brute_force_f(2, 2)
    assert report.f_value == 5
    assert report.witness.det == 5
    for n in (1, 2, 3, 4):
        zero = brute_force_f(n, 0)
        assert zero.f_value == 1
        assert zero.witness.det == 1
    assert brute_force_f(3, 1).f_value == 4


def test_witness_revalidated_independently():
    for n, d in [(2, 2), (2, 5), (3, 1), (3, 2)]:
        report = brute_force_f(n, d)
        assert report.witness.det == report.f_value
        assert bfs_quotient_diameter(report.witness) <= d
        assert hnf_normalize(report.witness.basis) == report.witness


def test_report_invariants():
    previous = {}
    for n, ds in [(2, range(7)), (3, range(3))]:
        for d in ds:
            report = brute_force_f(n, d)
            assert report.f_value <= report.binomial_cap
            assert report.f_value <= math.floor(report.paper_upper)
            assert report.exhaustive
            if (n, d - 1) in previous:
                assert previous[(n, d - 1)] <= report.f_value
            previous[(n, d)] = report.f_value


def test_user_cap_marks_non_exhaustive():
    capped = brute_force_f(2, 2, index_cap=3)
    assert capped.f_value == 3
    assert not capped.exhaustive
    # a generous user cap still allows an exhaustive scan
    roomy = brute_force_f(2, 2, index_cap=50)
    assert roomy.f_value == 5
    assert roomy.exhaustive


def test_search_beyond_64_sub_diagonal_cells():
    # n >= 12 has n(n-1)/2 > 64 sub-diagonal cells, more axes than an ndarray
    for n, d, cap, f_value in [(12, 1, 3, 3), (20, 2, 2, 2)]:
        report = brute_force_f(n, d, index_cap=cap)
        assert report.f_value == f_value
        tile = build_tile(report.witness)
        assert len(tile.points) == f_value and tile.m_diameter <= d


def test_diagonals_do_not_recurse_per_dimension():
    assert list(search_mod._diagonals(1500, 1)) == [(1,) * 1500]


def test_diagonals_of_a_prime_index_in_high_dimension():
    expected = [tuple(2 if j == i else 1 for j in range(1500)) for i in reversed(range(1500))]
    assert search_mod._diagonals(1500, 2) == expected


def test_cap_too_small_raises():
    with pytest.raises(CapTooSmall):
        brute_force_f(2, 2, index_cap=0)


def test_import_loads_no_process_machinery():
    # the search runs in one process, so the package never loads a pool
    src = os.path.dirname(os.path.dirname(search_mod.__file__))
    probe = (
        "import sys, cayleycover; "
        "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


NUMPY_PROBE = """
import contextlib, io, json, sys
import cayleycover
from cayleycover import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps([codes, 'numpy' in sys.modules]))
"""


def _numpy_after(calls):
    """Exit codes of in-process ``cli.main`` calls in a fresh interpreter
    that imported the package, and whether numpy was loaded after them."""
    src = os.path.dirname(os.path.dirname(search_mod.__file__))
    out = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, json.dumps(calls)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def test_one_shot_queries_do_not_load_numpy(tmp_path):
    # tile, cover and the exact bound queries never touch an array
    lattice = tmp_path / "l5.json"
    lattice.write_text(json.dumps({"n": 2, "basis": [[5, 0], [-2, 1]]}))
    calls = [
        ["tile", "--lattice", str(lattice)],
        ["cover", "--n", "2", "--d", "2", "--lattice", str(lattice)],
        ["cover", "--n", "2", "--d", "2", "--lattice", str(lattice), "--continuous"],
        ["theta-bounds", "--n-max", "4", "--d", "3"],
        ["verify-bounds", "--method", "quad", "--d-star", "7/3"],
    ]
    assert _numpy_after(calls) == [[0] * len(calls), False]
    # the search and Monte Carlo do load it, so the probe sees an import
    assert _numpy_after([["search-f", "--n", "2", "--d", "3"]]) == [[0], True]
    assert _numpy_after([["verify-bounds", "--method", "mc"]]) == [[0], True]


def test_candidates_scanned_pinned():
    for (n, d), scanned in BENCH_GRID_SCANNED.items():
        assert brute_force_f(n, d).candidates_scanned == scanned


def test_larger_points_pinned():
    for (n, d), (f_value, witness, scanned) in LARGER_POINTS.items():
        report = brute_force_f(n, d)
        assert report.f_value == f_value
        assert report.witness.basis == witness
        assert report.candidates_scanned == scanned
        assert bfs_quotient_diameter(report.witness) <= d


def test_search_matches_enumerator_at_6_1():
    # f(6, 1) = 7 is the binomial cap, and in most diagonals of index 7 in
    # Z^6 every cell is pinned
    report = brute_force_f(6, 1)
    assert (report.f_value, report.binomial_cap) == (7, 7)
    first = next(
        (k, lattice.basis)
        for k, lattice in enumerate(enumerate_sublattices(6, 7), 1)
        if fits_diameter(lattice, 1)
    )
    assert first == (report.candidates_scanned, report.witness.basis)
    assert report.candidates_scanned == 6069


# an index of Z^4 below 40 holds up to 2e5 lattices; the oracle builds each
@settings(max_examples=12, deadline=None, database=None)
@given(st.integers(1, 4), st.integers(1, 40), st.data())
def test_index_rows_match_enumerator(n, m, data):
    expected = [lattice.basis for lattice in enumerate_sublattices(n, m)]
    diags = list(search_mod._diagonals(n, m))
    rows = []
    for diag in diags:
        cells = search_mod._block_rows(diag, 0, block_size(diag)).tolist()
        block = [search_mod._basis(diag, c) for c in cells]
        assert block == sorted(block)  # C order is key order
        rows += block
    assert sorted(rows) == expected
    assert len(rows) == count_sublattices(n, m)
    # the rank rule: a basis's position in the enumeration order
    k = data.draw(st.integers(0, len(expected) - 1))
    assert sum(search_mod._rank(diag, hnf_key(expected[k])) for diag in diags) == k


@pytest.mark.parametrize("n, m", [(3, 12), (4, 8), (5, 4)])
def test_rank_rule_at_every_position(n, m):
    diags = search_mod._diagonals(n, m)
    for k, lattice in enumerate(enumerate_sublattices(n, m)):
        key = hnf_key(lattice.basis)
        assert sum(search_mod._rank(diag, key) for diag in diags) == k


def test_block_rows_match_dividing_every_cell():
    # the rows as made before cells of range 1 were skipped: one divmod
    # per sub-diagonal cell
    def every_cell(diag, lo, hi):
        shape = [diag[j] for i in range(len(diag)) for j in range(i)]
        rows = np.empty((hi - lo, len(shape)), dtype=np.int64)
        k = np.arange(lo, hi, dtype=np.int64)
        for c in range(len(shape) - 1, -1, -1):
            k, rows[:, c] = np.divmod(k, shape[c])
        return rows

    diags = [
        (1,), (5,), (1, 1), (1, 3), (3, 1), (1, 1, 3, 1, 2, 1), (2, 1, 1, 1, 1, 3),
        (1, 2, 1, 2, 1, 2, 1), (1,) * 12 + (2,), (3,) + (1,) * 10, (1,) * 40,
    ]
    for diag in diags:
        size = block_size(diag)
        for lo, hi in [(0, size), (0, 1), (size // 3, size), (size - 1, size)]:
            rows = search_mod._block_rows(diag, lo, hi)
            expected = every_cell(diag, lo, hi)
            assert rows.dtype == expected.dtype and rows.shape == expected.shape
            assert np.array_equal(rows, expected)


@st.composite
def hnf_group(draw):
    """Canonical HNFs of one diagonal (one batch group) plus a few of other
    diagonals, and a radius around the first one's diameter."""
    n = draw(st.integers(1, 5))
    diag = []
    rest = draw(st.integers(1, 40 if n < 4 else 16))
    for _ in range(n - 1):
        a = draw(st.sampled_from(divisors(rest)))
        diag.append(a)
        rest //= a
    diag.append(rest)

    def lattice(diag):
        rows = [
            tuple(draw(st.integers(0, diag[j] - 1)) for j in range(i))
            + (diag[i],) + (0,) * (n - i - 1)
            for i in range(n)
        ]
        return IntegerLattice(n, tuple(rows))

    lattices = [lattice(diag) for _ in range(draw(st.integers(1, 6)))]
    lattices += [lattice(draw(st.permutations(diag))) for _ in range(draw(st.integers(0, 3)))]
    d = max(0, bfs_quotient_diameter(lattices[0]) + draw(st.integers(-1, 1)))
    return lattices, d


@settings(max_examples=200, deadline=None, database=None)
@given(hnf_group())
def test_batched_fit_matches_scan_and_bfs(case):
    lattices, d = case
    n = lattices[0].dim
    simplex = search_mod._simplex(n, d)
    groups = {}
    for pos, lattice in enumerate(lattices):
        groups.setdefault(lattice.diagonal, []).append(pos)
    batched = [None] * len(lattices)
    for diag, members in groups.items():
        cells = np.array(
            [[v for i, row in enumerate(lattices[pos].basis) for v in row[:i]] for pos in members],
            dtype=np.int64,
        ).reshape(len(members), n * (n - 1) // 2)
        for pos, fits in zip(members, search_mod._fit_rows(diag, cells, simplex)):
            batched[pos] = bool(fits)
    expected = [fits_diameter(lattice, d) for lattice in lattices]
    assert batched == expected
    assert expected == [bfs_quotient_diameter(lattice) <= d for lattice in lattices]


def test_int64_fallback_gives_same_report(monkeypatch):
    assert search_mod._int64_safe((16, 2, 1), 4)
    assert not search_mod._int64_safe((1 << 21, 1 << 21, 1 << 21, 1), 4)
    # (5, 1) and (6, 1) mix free and pinned cells in one key
    cases = [(2, 5), (3, 2), (4, 1), (5, 1), (6, 1)]
    reports = [brute_force_f(n, d) for n, d in cases]
    calls = []

    def counted(lattice, d):
        calls.append(lattice)
        return fits_diameter(lattice, d)

    monkeypatch.setattr(search_mod, "fits_diameter", counted)
    # -1: every group falls back; 60: groups with larger bounds fall back
    for limit in (-1, 60):
        monkeypatch.setattr(search_mod, "_INT64_MAX", limit)
        calls.clear()
        assert [brute_force_f(n, d) for n, d in cases] == reports
        assert calls


def test_density_trend_values():
    rows = density_trend(2, [2, 6, 10, 20])
    densities = [row[1] for row in rows]
    assert densities == [
        Fraction(6, 5),
        Fraction(28, 21),
        Fraction(66, 48),
        Fraction(231, 161),
    ]
    assert all(a < b for a, b in zip(densities, densities[1:]))
    for (d, density, witness) in rows:
        assert 1 <= density < Fraction(3, 2)
        assert density <= Fraction(3, 2) + Fraction(1, d + 2)
        assert build_tile(witness).m_diameter <= d


def gap_fits(n, d):
    """The indices above the paper's cap floor(fn_upper_bound(n, d)) and at
    most the binomial cap C(d+n, n) where some lattice fits, scanned like
    the search scans an index; and the gap's size."""
    simplex = search_mod._simplex(n, d)
    gap = range(math.floor(fn_upper_bound(n, d)) + 1, len(simplex) + 1)
    fits = [m for m in gap if search_mod._scan_index(n, d, m, simplex)[1] is not None]
    return fits, len(gap)


# where the paper's cap is below the binomial one, the default search starts
# from it; a fit in the gap would mean a bug or a refuted theorem
@pytest.mark.parametrize("n,d", [(2, d) for d in range(2, 21)] + [(3, 8)])
def test_no_fit_between_the_paper_cap_and_the_binomial_cap(n, d):
    fits, size = gap_fits(n, d)
    assert size > 0 and fits == []


@pytest.mark.slow
def test_no_fit_between_the_paper_cap_and_the_binomial_cap_at_3_9():
    fits, size = gap_fits(3, 9)
    assert size == 13 and fits == []
