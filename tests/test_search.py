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
    IntegralEstimate,
    brute_force_f,
    build_tile,
    density_trend,
    enumerate_orthant_prec,
    f2_closed_form,
    f3_upper_bound,
    f4_upper_bound,
    fits_diameter,
    fn_upper_bound,
    hnf_normalize,
    optimize_notch,
    simplex_size,
    theta_lower_bound,
    tile_volume_bound_dim4,
)
from cayleycover.lattices import count_sublattices, divisors, enumerate_sublattices, reduce_mod
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


def all_rows(diag, lo, hi):
    """Rows lo..hi-1 of the diagonal's whole block as key cells: row k holds
    the mixed-radix digits of k over every sub-diagonal cell (i, j), of
    range diag[j], the last cell the least significant; one divmod per
    cell, and no row left out."""
    shape = [diag[j] for i in range(len(diag)) for j in range(i)]
    rows = np.empty((hi - lo, len(shape)), dtype=np.int64)
    k = np.arange(lo, hi, dtype=np.int64)
    for c in range(len(shape) - 1, -1, -1):
        k, rows[:, c] = np.divmod(k, shape[c])
    return rows


def search_cap(n, d):
    """Where the search starts: the binomial cap, and for n <= 4 the
    paper's cap when it is lower."""
    cap = simplex_size(n, d)
    return min(cap, math.floor(fn_upper_bound(n, d))) if 2 <= n <= 4 else cap


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


def test_search_starts_at_the_least_proven_cap(monkeypatch):
    # the paper's cap is below the binomial one at (4, 21) and (5, 44), but
    # it is proven only for n <= 4.  The stub fits at the first index the
    # search asks for, so nothing is scanned
    assert math.floor(f4_upper_bound(21)) == 12_527 < simplex_size(4, 21)
    assert math.floor(fn_upper_bound(5, 44)) < simplex_size(5, 44) == 1_906_884
    asked = []

    def fit_at_once(n, d, m, simplex):
        asked.append(m)
        rows = [[m if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)]
        return 1, hnf_normalize(rows)

    monkeypatch.setattr(search_mod, "_simplex", lambda n, d: None)
    monkeypatch.setattr(search_mod, "_scan_index", fit_at_once)
    for n, d, start in ((4, 21, 12_527), (5, 44, 1_906_884)):
        report = brute_force_f(n, d)
        assert asked == [start] and report.f_value == start and report.exhaustive
        asked.clear()


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: f2_closed_form(-1), "need d >= 0"),
        (lambda: f3_upper_bound(-1), "need d >= 0"),
        (lambda: f4_upper_bound(-1), "need d >= 0"),
        (lambda: fn_upper_bound(1, 0), "need n >= 2 and d >= 0"),
        (lambda: theta_lower_bound(1), "need n >= 2"),
        (lambda: brute_force_f(0, 1), "need n >= 1 and d >= 0"),
        (lambda: simplex_size(0, 1), "need n >= 1 and d >= 0"),
        (lambda: next(enumerate_orthant_prec(0)), "need n >= 1"),
        (lambda: optimize_notch(0), "d_star must be positive"),
        (lambda: tile_volume_bound_dim4(-1), "need d >= 0"),
        (
            lambda: IntegralEstimate(1.0, 0.0, 0, "monte_carlo", 0),
            "monte_carlo estimates need at least one sample",
        ),
    ],
)
def test_argument_guards_raise_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


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


MODULES_PROBE = """
import contextlib, io, json, sys
import cayleycover
from cayleycover import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
roots = json.loads(sys.argv[2])
print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] in roots)]))
"""


def _modules_after(calls, roots):
    """Exit codes of in-process ``cli.main`` calls in a fresh interpreter
    that imported the package, and the loaded modules under the top-level
    packages ``roots`` after them."""
    src = os.path.dirname(os.path.dirname(search_mod.__file__))
    out = subprocess.run(
        [sys.executable, "-c", MODULES_PROBE, json.dumps(calls), json.dumps(roots)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def _numpy_after(calls):
    """Exit codes of the calls, as ``_modules_after`` makes them, and
    whether numpy was loaded after them."""
    codes, loaded = _modules_after(calls, ["numpy"])
    return [codes, "numpy" in loaded]


def _one_shot_calls(tmp_path):
    lattice = tmp_path / "l5.json"
    lattice.write_text(json.dumps({"n": 2, "basis": [[5, 0], [-2, 1]]}))
    return [
        ["tile", "--lattice", str(lattice)],
        ["cover", "--n", "2", "--d", "2", "--lattice", str(lattice)],
        ["cover", "--n", "2", "--d", "2", "--lattice", str(lattice), "--continuous"],
        ["theta-bounds", "--n-max", "4", "--d", "3"],
        ["verify-bounds", "--method", "quad", "--d-star", "7/3"],
    ]


def test_one_shot_queries_do_not_load_numpy(tmp_path):
    # tile, cover and the exact bound queries never touch an array
    calls = _one_shot_calls(tmp_path)
    assert _numpy_after(calls) == [[0] * len(calls), False]
    # the search and Monte Carlo do load it, so the probe sees an import
    assert _numpy_after([["search-f", "--n", "2", "--d", "3"]]) == [[0], True]
    assert _numpy_after([["verify-bounds", "--method", "mc"]]) == [[0], True]


def test_one_shot_queries_load_no_pool(tmp_path):
    # only the Monte-Carlo battery runs workers, on threads alone
    calls = _one_shot_calls(tmp_path) + [["verify-bounds", "--method", "mc"]]
    assert _modules_after(calls, ["concurrent", "multiprocessing"]) == [[0] * len(calls), []]


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


# (n, d) -> rows one brute_force_f sends to the fit test, after the
# diagonal skip and with one row per class of trailing unit rows
FIT_ROWS = {(2, 16): 39, (3, 3): 2041, (3, 4): 10845, (4, 2): 5264, (5, 1): 244}


def fit_rows_tested(monkeypatch, n, d):
    rows = []
    fit_rows = search_mod._fit_rows

    def counted(diag, cells, simplex):
        rows.append(len(cells))
        return fit_rows(diag, cells, simplex)

    monkeypatch.setattr(search_mod, "_fit_rows", counted)
    brute_force_f(n, d)
    return sum(rows)


@pytest.mark.parametrize("n, d", sorted(FIT_ROWS))
def test_rows_reaching_the_fit_test_pinned(monkeypatch, n, d):
    assert fit_rows_tested(monkeypatch, n, d) == FIT_ROWS[n, d]


@pytest.mark.slow
@pytest.mark.parametrize("n, d, rows", [(5, 2, 211003), (4, 3, 216283)])
def test_rows_reaching_the_fit_test_pinned_at_larger_points(monkeypatch, n, d, rows):
    assert fit_rows_tested(monkeypatch, n, d) == rows


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


# f pinned by a second path, which shares no code with the batched fit
# test: fits_diameter over enumerate_sublattices, from the search's cap down
@pytest.mark.slow
@pytest.mark.parametrize(
    "n, d, f_value, witness, scanned",
    [
        (3, 6, 57, ((19, 0, 0), (4, 3, 0), (13, 2, 1)), 276987),
        (3, 7, 84, ((12, 0, 0), (2, 7, 0), (9, 6, 1)), 769204),
    ],
)
def test_f_pinned_by_the_enumerator(n, d, f_value, witness, scanned):
    def first_fit():
        k = 0
        for m in range(search_cap(n, d), 0, -1):
            for lattice in enumerate_sublattices(n, m):
                k += 1
                if fits_diameter(lattice, d):
                    return m, lattice, k

    m, lattice, k = first_fit()
    assert (m, lattice.basis, k) == (f_value, witness, scanned)
    report = brute_force_f(n, d)
    assert (report.f_value, report.witness.basis, report.candidates_scanned) == (m, witness, k)
    assert bfs_quotient_diameter(lattice) <= d


# an index of Z^4 below 40 holds up to 2e5 lattices; the oracle builds each
@settings(max_examples=12, deadline=None, database=None)
@given(st.integers(1, 4), st.integers(1, 40), st.data())
def test_index_rows_match_enumerator(n, m, data):
    expected = [lattice.basis for lattice in enumerate_sublattices(n, m)]
    diags = list(search_mod._diagonals(n, m))
    rows = []
    for diag in diags:
        cells = all_rows(diag, 0, block_size(diag)).tolist()
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
    # every row of the block when fewer than two unit entries trail the
    # diagonal; else the rows whose row number's last t base-m digits,
    # most significant first, are non-decreasing; in either integer type
    diags = [
        (1,), (5,), (1, 1), (1, 3), (3, 1), (1, 1, 3, 1, 2, 1), (2, 1, 1, 1, 1, 3),
        (1, 2, 1, 2, 1, 2, 1), (1,) * 12 + (2,), (3,) + (1,) * 10, (1,) * 40,
        (2, 3, 1, 1, 1),
    ]
    for diag in diags:
        size = block_size(diag)
        m = math.prod(diag)
        t = len(diag) - max((i + 1 for i, a in enumerate(diag) if a > 1), default=0)
        for lo, hi in [(0, size), (0, 1), (size // 3, size), (size - 1, size)]:
            expected = all_rows(diag, lo, hi)
            if t >= 2:
                digits = [[k // m**s % m for s in reversed(range(t))] for k in range(lo, hi)]
                expected = expected[[ds == sorted(ds) for ds in digits]]
            for dtype in ("int32", "int64"):
                rows = search_mod._block_rows(diag, lo, hi, dtype)
                assert rows.dtype == dtype and rows.shape == expected.shape
                assert np.array_equal(rows, expected), diag
    # 1291^3 rows pass 2^31 - 1, though the reduction bound at d = 1 is far
    # inside it, and 1290^3 rows do not: the row numbers pick the type
    assert search_mod._fit_type((1290, 1, 1, 1), 1) == "int32"
    diag = (1291, 1, 1, 1)
    dtype = search_mod._fit_type(diag, 1)
    assert dtype == "int64"
    # the first row number past 2^31 whose digits are non-decreasing
    first = 1288 * 1291**2 + 1288 * 1291
    assert 2**31 < first < 2**31 + 10**6
    for lo, hi in [(first - 2000, first + 2000), (1291**3 - 1291, 1291**3)]:
        digits = [[k // 1291**s % 1291 for s in (2, 1, 0)] for k in range(lo, hi)]
        expected = [[ds[0], ds[1], 0, ds[2], 0, 0] for ds in digits if ds == sorted(ds)]
        rows = search_mod._block_rows(diag, lo, hi, dtype)
        assert len(expected) > 0 and rows.tolist() == expected


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
        fits = search_mod._fit_rows(diag, cells, simplex)
        assert search_mod._fit_type(diag, d) == "int32"
        assert np.array_equal(search_mod._fit_rows(diag, cells.astype(np.int32), simplex), fits)
        for pos, fit in zip(members, fits):
            batched[pos] = bool(fit)
    expected = [fits_diameter(lattice, d) for lattice in lattices]
    assert batched == expected
    assert expected == [bfs_quotient_diameter(lattice) <= d for lattice in lattices]


@pytest.mark.parametrize("n, d, f_value, lattices", [(3, 3, 16, 3334), (5, 1, 6, 3751)])
def test_fit_rows_match_the_scan_on_every_lattice_down_to_f(n, d, f_value, lattices):
    # every lattice from the cap down to f, each checked on its own
    simplex = search_mod._simplex(n, d)
    checked = fitting = 0
    for m in range(search_cap(n, d), f_value - 1, -1):
        for diag in search_mod._diagonals(n, m):
            assert search_mod._fit_type(diag, d) == "int32"
            cells = all_rows(diag, 0, block_size(diag))
            expected = [
                fits_diameter(IntegerLattice(n, search_mod._basis(diag, row)), d)
                for row in cells.tolist()
            ]
            assert search_mod._fit_rows(diag, cells, simplex).tolist() == expected
            assert search_mod._fit_rows(diag, cells.astype(np.int32), simplex).tolist() == expected
            checked += len(expected)
            fitting += sum(expected)
    assert checked == lattices and fitting > 0


def sorted_representative(diag, row):
    """The key cells of the HNF made by permuting the coordinates of the
    trailing rows with diagonal entry 1 so that those rows' cells come in
    sorted order.  Such a row is (cells, e_i), its cells 0 past the leading
    coordinates, and the permutation maps the simplex onto itself."""
    n = len(diag)
    lead = n
    while lead and diag[lead - 1] == 1:
        lead -= 1
    groups = sorted(tuple(row[i * (i - 1) // 2 : i * (i - 1) // 2 + lead]) for i in range(lead, n))
    rep = list(row[: lead * (lead - 1) // 2])
    for i, group in zip(range(lead, n), groups):
        rep += list(group) + [0] * (i - lead)
    return tuple(rep)


def check_classes_and_skips(n, d, f_value):
    """Over every block of every index from the search's cap down to f:
    the fit test over all rows gives each row the verdict of its sorted
    representative, the search's row maker makes exactly the rows that are
    their own representative (over any range of rows), and every block the
    diagonal skip names holds no fit.  Returns the blocks skipped and the
    rows never made."""
    simplex = search_mod._simplex(n, d)
    skipped = masked = 0
    for m in range(search_cap(n, d), f_value - 1, -1):
        for diag in search_mod._diagonals(n, m):
            size = block_size(diag)
            cells = all_rows(diag, 0, size)
            fits = search_mod._fit_rows(diag, cells, simplex).tolist()
            assert search_mod._fit_rows(diag, cells.astype(np.int32), simplex).tolist() == fits
            if search_mod._ruled_out(diag, d):
                assert not any(fits), diag
                skipped += 1
            rows = [tuple(row) for row in cells.tolist()]
            verdict = dict(zip(rows, fits))
            reps = [sorted_representative(diag, row) for row in rows]
            assert [verdict[rep] for rep in reps] == fits, diag
            least = [rep == row for rep, row in zip(reps, rows)]
            for lo, hi in [(0, size), (size // 3, size), (1, (size + 1) // 2), (size - 1, size)]:
                made = search_mod._block_rows(diag, lo, hi, search_mod._fit_type(diag, d))
                made = [tuple(row) for row in made.tolist()]
                assert made == [row for row, own in zip(rows[lo:hi], least[lo:hi]) if own], diag
            masked += size - sum(least)
    return skipped, masked


# (n, d) -> (f, blocks the diagonal skip drops from the cap down to f)
CLASS_POINTS = {(3, 3): (16, 27), (3, 4): (27, 57), (4, 2): (13, 24), (5, 1): (6, 17)}


@pytest.mark.parametrize("n, d", sorted(CLASS_POINTS))
def test_class_rows_share_their_verdict_and_skipped_blocks_hold_no_fit(n, d):
    f_value, skipped = CLASS_POINTS[n, d]
    assert check_classes_and_skips(n, d, f_value)[0] == skipped


@pytest.mark.slow
@pytest.mark.parametrize("n, d, f_value", [(3, 5, 40), (4, 3, 27)])
def test_class_rows_and_skipped_blocks_at_larger_points(n, d, f_value):
    skipped, masked = check_classes_and_skips(n, d, f_value)
    assert skipped > 0 and masked > 0


def flat_bases(diag, cells):
    """Each row's HNF basis read row by row up to its diagonal entry, the
    entries above it being 0 in every basis."""
    n = len(diag)
    cols = []
    for i in range(n):
        cols += [cells[:, i * (i - 1) // 2 + j] for j in range(i)]
        cols.append(np.full(len(cells), diag[i], dtype=np.int64))
    return np.stack(cols, axis=1)


def unreduced_search(n, d, chunk=1 << 12):
    """(f, witness basis, candidates_scanned) by fitting the rows of every
    block, with no block skipped and no row masked; the witness's position
    is counted by comparing flattened bases, not by ``_rank``."""
    simplex = search_mod._simplex(n, d)
    above = 0
    for m in range(search_cap(n, d), 0, -1):
        diags = search_mod._diagonals(n, m)
        fits = []
        for diag in diags:
            size = block_size(diag)
            for lo in range(0, size, chunk):
                cells = all_rows(diag, lo, min(lo + chunk, size))
                hits = np.flatnonzero(search_mod._fit_rows(diag, cells, simplex))
                if len(hits):
                    fits.append(search_mod._basis(diag, cells[hits[0]].tolist()))
                    break
        if fits:
            witness = min(fits)
            key = np.array([v for i, row in enumerate(witness) for v in row[: i + 1]])
            below = 0
            for diag in diags:
                size = block_size(diag)
                for lo in range(0, size, chunk):
                    flat = flat_bases(diag, all_rows(diag, lo, min(lo + chunk, size)))
                    differ = flat != key
                    first = differ.argmax(axis=1)
                    less = flat[np.arange(len(flat)), first] < key[first]
                    below += int((differ.any(axis=1) & less).sum())
            return m, witness, above + below + 1
        above += sum(block_size(diag) for diag in diags)
    raise AssertionError("the identity lattice always fits")


@pytest.mark.parametrize(
    "n, d",
    [(2, d) for d in range(13)] + [(3, d) for d in range(5)] + [(4, d) for d in range(3)]
    + [(5, 0), (5, 1), (6, 1), (7, 1)],
)
def test_search_matches_the_unreduced_scan(n, d):
    report = brute_force_f(n, d)
    got = (report.f_value, report.witness.basis, report.candidates_scanned)
    assert got == unreduced_search(n, d)


def test_fit_rows_near_the_int64_bound_with_negative_intermediates():
    # coordinates up to d, where one more would leave the type picked (int32
    # or int64); with the last coordinate near d and the others near 0, the
    # loop over free cells drives coordinates 0 and 1 to about -2d/3 before
    # their reductions.  One point per class mod 3 meets every coset here;
    # each point's own multiple of 3 means a wrapped or truncated
    # intermediate would show.  Each d is also run at the next one up,
    # where int32 gives way to int64 and int64 to the exact scan.
    diag = (3, 3, 3)
    cells = all_rows(diag, 0, block_size(diag))
    lattices = [IntegerLattice(3, search_mod._basis(diag, row)) for row in cells.tolist()]
    for d, dtype, wider in [
        ((2**31 - 1) // 27, "int32", "int64"),
        ((2**31 - 1) // 27 + 1, "int64", "int64"),
        ((2**63 - 1) // 27, "int64", None),
    ]:
        assert search_mod._fit_type(diag, d) == dtype
        assert search_mod._fit_type(diag, d + 1) == wider
        rng = random.Random(27)
        residues = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
        top = (d - 2) // 3
        low = [(a, b, 3 * rng.randint(top - 10**6, top) + c) for a, b, c in residues]
        spread = [tuple(3 * rng.randint(0, top) + x for x in r) for r in residues]
        sets = [low, spread, low[:13] + spread[13:]]
        sets += [s[:k] + s[k + 1:] for s in sets for k in (0, 13)]
        seen = set()
        for subset in sets:
            simplex = np.array(subset, dtype=np.int64)
            got = search_mod._fit_rows(diag, cells.astype(dtype), simplex).tolist()
            assert got == [len({reduce_mod(lattice, p) for p in subset}) == 27 for lattice in lattices]
            seen.update(got)
        assert seen == {True, False}


def test_fit_test_flat_index_stays_within_int64():
    # the fit test scatters rows x m cells through one flat index, in the
    # type picked from m, the row count and the reduction bound
    assert search_mod._FIT_TYPES == tuple(
        (name, int(np.iinfo(name).max)) for name in ("int32", "int64")
    )
    assert search_mod._CHUNK_CELLS <= min(most for _, most in search_mod._FIT_TYPES)
    assert search_mod._fit_type((1 << 15, 1 << 15), 0) == "int32"
    assert search_mod._fit_type((1 << 16, 1 << 15), 0) == "int64"
    assert search_mod._fit_type((1 << 31, 1 << 31), 0) == "int64"
    assert search_mod._fit_type((1 << 32, 1 << 31), 0) is None
    diags = [diag for n, m in [(2, 108), (3, 20), (3, 35), (4, 15), (5, 6)]
             for diag in search_mod._diagonals(n, m)]
    diags += [(1 << 21, 1, 1), (1 << 40, 1), (1, 1 << 20), (3, 5, 7, 11, 13, 17)]
    for diag in diags:
        m = math.prod(diag)
        for points in (1, 35, 10**6, 10**7):
            rows = search_mod._chunk_rows(diag, points)
            assert rows >= 1
            assert rows * max(points, m) <= search_mod._CHUNK_CELLS or rows == 1
            assert rows * m <= max(search_mod._CHUNK_CELLS, m)


def test_int64_fallback_gives_same_report(monkeypatch):
    assert search_mod._fit_type((16, 2, 1), 4) == "int32"
    assert search_mod._fit_type((1 << 21, 1 << 21, 1 << 21, 1), 4) is None
    # (5, 1) and (6, 1) mix free and pinned cells in one key
    cases = [(2, 5), (3, 2), (4, 1), (5, 1), (6, 1)]
    calls, types = [], []
    fit_rows = search_mod._fit_rows

    def typed(diag, cells, simplex):
        types.append(str(cells.dtype))
        return fit_rows(diag, cells, simplex)

    def counted(lattice, d):
        calls.append(lattice)
        return fits_diameter(lattice, d)

    monkeypatch.setattr(search_mod, "_fit_rows", typed)
    monkeypatch.setattr(search_mod, "fits_diameter", counted)
    reports = [brute_force_f(n, d) for n, d in cases]
    assert set(types) == {"int32"} and not calls
    # no type: every block falls back; int64 said to end at 60: blocks with
    # larger bounds fall back; int64 alone: every block runs in int64
    for table, fallback, batched in [
        ((), True, set()),
        ((("int64", 60),), True, {"int64"}),
        ((("int64", 2**63 - 1),), False, {"int64"}),
    ]:
        monkeypatch.setattr(search_mod, "_FIT_TYPES", table)
        calls.clear()
        types.clear()
        assert [brute_force_f(n, d) for n, d in cases] == reports
        assert bool(calls) == fallback and set(types) == batched


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


def test_density_trend_searches_prefixes_of_one_simplex(monkeypatch):
    expected = []
    for d in (3, 1, 2, 3):
        report = brute_force_f(3, d)
        expected.append((d, Fraction(simplex_size(3, d), report.f_value), report.witness))
    built = []
    simplex = search_mod._simplex
    monkeypatch.setattr(search_mod, "_simplex", lambda n, d: built.append(d) or simplex(n, d))
    assert density_trend(3, [3, 1, 2, 3]) == expected
    assert built == [3]
    assert density_trend(3, []) == [] and built == [3]
    with pytest.raises(ValueError, match="need n >= 1 and d >= 0"):
        density_trend(3, [2, -1])


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


@pytest.mark.slow
def test_no_fit_between_the_paper_cap_and_the_binomial_cap_at_3_10():
    fits, size = gap_fits(3, 10)
    assert size == 23 and fits == []
