import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleycover import (
    CayleyTile,
    IntegerLattice,
    MultipleMinimalNotches,
    NotACovering,
    build_tile,
    enumerate_orthant_prec,
    find_notch,
    fits_diameter,
    hnf_normalize,
    is_tiling,
    reduce_mod,
    tile_from_difference,
)
from cayleycover import tiles
from cayleycover.lattices import graded_positive_points_in_difference_body
from cayleycover.tiles import prec_key

from conftest import (
    bfs_quotient_diameter,
    brute_notch_candidates,
    brute_tile,
    check_graded_positive_half,
    hnfs,
    make_corpus,
    mix_columns,
    mixed_diagonals,
    simplex_points_brute,
)

L5 = hnf_normalize([(5, 0), (3, 1)])
L22 = hnf_normalize([(2, 0), (0, 2)])
I2 = hnf_normalize([(1, 0), (0, 1)])

SEQ2 = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (0, 3), (1, 2), (2, 1), (3, 0)]
SEQ3 = [
    (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0),
    (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1),
]


def test_prec_is_total_on_published_sequences():
    for seq in (SEQ2, SEQ3):
        for a, b in zip(seq, seq[1:]):
            assert prec_key(a) < prec_key(b)


def test_prec_compatible_with_addition():
    rng = random.Random(30)
    for _ in range(10_000):
        n = rng.choice([2, 3, 4])
        x = tuple(rng.randrange(6) for _ in range(n))
        y = tuple(rng.randrange(6) for _ in range(n))
        z = tuple(rng.randrange(6) for _ in range(n))
        if prec_key(x) < prec_key(y):
            assert prec_key(tuple(a + c for a, c in zip(x, z))) < prec_key(
                tuple(b + c for b, c in zip(y, z))
            )


def test_enumerate_orthant_first_points():
    assert list(itertools.islice(enumerate_orthant_prec(2), 6)) == SEQ2[:6]
    assert list(itertools.islice(enumerate_orthant_prec(1), 4)) == [(0,), (1,), (2,), (3,)]
    assert list(itertools.islice(enumerate_orthant_prec(3), 8)) == SEQ3


def test_enumerate_orthant_strictly_increasing_and_complete():
    for n, d in [(2, 5), (3, 4), (4, 3)]:
        count = len(simplex_points_brute(n, d))
        pts = list(itertools.islice(enumerate_orthant_prec(n), count))
        keys = [prec_key(p) for p in pts]
        assert keys == sorted(keys)
        assert len(set(pts)) == count
        # the first C(d+n, n) points are exactly the radius-d simplex
        assert set(pts) == simplex_points_brute(n, d)


def test_build_tile_identity():
    tile = build_tile(I2)
    assert tile.points == ((0, 0),)
    assert tile.m_diameter == 0


def test_build_tile_staircase():
    tile = build_tile(L5)
    assert tile.points == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1))
    assert tile.m_diameter == 2
    # scan claims cosets in the order 0, 2, 1, 4, 3 of the quotient map
    residues = [reduce_mod(L5, p)[0] for p in tile.points]
    assert residues == [0, 2, 1, 4, 3]


def test_build_tile_box():
    tile = build_tile(L22)
    assert tile.points == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert tile.m_diameter == 2


def test_find_notch_examples():
    assert find_notch(build_tile(L22)) is None
    assert find_notch(build_tile(I2)) is None
    assert find_notch(build_tile(L5)) == (1, 2)
    assert build_tile(L5).notch == (1, 2)


def test_find_notch_agrees_with_direct_scan():
    for lat in make_corpus(32, [(2, 60, 30), (3, 40, 25), (4, 20, 10)]):
        tile = build_tile(lat)
        candidates, minimal = brute_notch_candidates(tile.points, tile.dim)
        assert len(minimal) <= 1
        expected = minimal[0] if minimal else None
        assert find_notch(tile) == expected
        if expected is not None:
            assert all(
                all(e <= c for e, c in zip(expected, cand)) for cand in candidates
            )


# index caps keep the brute-force box scan of the oracle fast
_NOTCH_CAPS = {1: 40, 2: 60, 3: 40, 4: 24, 5: 16}


@settings(max_examples=200, deadline=None, database=None)
@given(
    st.one_of(
        st.integers(1, 5).flatmap(lambda n: hnfs(n, _NOTCH_CAPS[n])), mixed_diagonals()
    )
)
def test_find_notch_matches_brute_force(lat):
    tile = build_tile(lat)
    _, minimal = brute_notch_candidates(tile.points, tile.dim)
    assert len(minimal) <= 1
    notch = find_notch(tile)
    assert notch == (minimal[0] if minimal else None)
    if notch is not None:
        # an outer corner of the tile with every coordinate positive
        assert notch not in tile.point_set and min(notch) >= 1
        for k in range(tile.dim):
            assert notch[:k] + (notch[k] - 1,) + notch[k + 1 :] in tile.point_set


def test_find_notch_raises_on_two_minimal_candidates():
    # downward closure of (1, 3), (2, 2), (3, 1): outer corners (2, 3) and (3, 2)
    tops = [(1, 3), (2, 2), (3, 1)]
    points = tuple(
        p for p in itertools.product(range(4), repeat=2)
        if any(p[0] <= a and p[1] <= b for a, b in tops)
    )
    tile = CayleyTile(dim=2, points=points, m_diameter=4, source_lattice=None)
    with pytest.raises(MultipleMinimalNotches, match=r"\[\(2, 3\), \(3, 2\)\]"):
        find_notch(tile)


def _down_closure(tops, n):
    """The downward-closed set spanned by ``tops``, as a CayleyTile with no
    lattice behind it (find_notch reads only the points)."""
    box = itertools.product(*(range(max(t[i] for t in tops) + 1) for i in range(n)))
    points = tuple(
        sorted(
            (p for p in box if any(all(a <= b for a, b in zip(p, t)) for t in tops)),
            key=prec_key,
        )
    )
    return CayleyTile(dim=n, points=points, m_diameter=sum(points[-1]), source_lattice=None)


# coordinate caps keep the oracle's box scan small
_CLOSURE_CAPS = {2: 7, 3: 4, 4: 3}


@settings(max_examples=150, deadline=None, database=None)
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.lists(
            st.tuples(*[st.integers(0, _CLOSURE_CAPS[n])] * n), min_size=1, max_size=5
        )
    )
)
def test_find_notch_on_downward_closed_sets(tops):
    # not tiles, so there may be any number of outer corners
    n = len(tops[0])
    tile = _down_closure(tops, n)
    _, minimal = brute_notch_candidates(tile.points, n)
    if len(minimal) > 1:
        ordered = sorted(minimal, key=prec_key)
        with pytest.raises(MultipleMinimalNotches) as info:
            find_notch(tile)
        assert str(info.value) == f"{len(ordered)} minimal notch candidates: {ordered[:4]}"
    else:
        assert find_notch(tile) == (minimal[0] if minimal else None)


def test_find_notch_names_both_corners_in_3d():
    # outer corners (1, 1, 2) and (1, 2, 1): each p - e_k lies below a top
    tile = _down_closure([(1, 1, 1), (0, 2, 2), (1, 0, 2), (1, 2, 0)], 3)
    assert brute_notch_candidates(tile.points, 3)[1] == [(1, 1, 2), (1, 2, 1)]
    with pytest.raises(MultipleMinimalNotches) as info:
        find_notch(tile)
    assert str(info.value) == "2 minimal notch candidates: [(1, 1, 2), (1, 2, 1)]"


def test_tile_from_difference_examples():
    assert tile_from_difference(I2, 0) == frozenset({(0, 0)})
    assert tile_from_difference(L5, 2) == frozenset(
        {(0, 0), (0, 1), (1, 0), (0, 2), (1, 1)}
    )
    assert tile_from_difference(L22, 2) == frozenset(
        {(0, 0), (0, 1), (1, 0), (1, 1)}
    )
    # the clipping vectors agree with reducing every point of the cube
    cases = [(I2, 0), (L5, 2), (L5, 4), (L22, 2), (L22, 3)]
    for lat in make_corpus(36, [(2, 40, 10), (3, 30, 10), (4, 16, 4)]):
        d = build_tile(lat).m_diameter
        cases += [(lat, d), (lat, d + 1)]
    for lat, d in cases:
        found = graded_positive_points_in_difference_body(lat, d)
        check_graded_positive_half(found, lat, d)


def test_incomplete_scan_raises(monkeypatch):
    # a character that sends every point to the origin's coset, so shell 1
    # adds nothing
    monkeypatch.setattr(
        tiles, "coset_character", lambda lattice: ((lattice.det,), ((0,),) * lattice.dim)
    )
    with pytest.raises(RuntimeError, match="no new coset in shell 1"):
        build_tile(L5)
    with pytest.raises(RuntimeError, match="no new coset in shell 1"):
        fits_diameter(L22, 3)


def test_difference_set_size_is_checked(monkeypatch):
    # no clipping vectors: the whole radius-2 simplex, 6 points, is left
    monkeypatch.setattr(
        tiles, "graded_positive_points_in_difference_body", lambda lattice, d: []
    )
    with pytest.raises(RuntimeError, match="has 6 points, expected det = 5"):
        tile_from_difference(L5, 2)


def test_tile_from_difference_requires_covering():
    with pytest.raises(NotACovering) as err:
        tile_from_difference(L5, 1)
    assert err.value.witness == (0, 2)


# index caps keep the difference body, about C(2n, n)/n! d^n / det
# vectors at d = diameter + 3, small
_DIFFERENCE_CAPS = {1: 30, 2: 40, 3: 24, 4: 12, 5: 8}


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(1, 5).flatmap(lambda n: hnfs(n, _DIFFERENCE_CAPS[n])))
def test_tile_from_difference_matches_scan(lat):
    tile = build_tile(lat)
    diam = tile.m_diameter
    for d in (diam, diam + 1, diam + 3):
        assert tile_from_difference(lat, d) == set(tile.points)
    for d in sorted({diam - 1, 0, -1, -5}):
        if d >= diam:
            continue
        with pytest.raises(NotACovering) as err:
            tile_from_difference(lat, d)
        assert str(err.value) == f"simplex radius {d} is below the tile diameter {diam}"
        assert err.value.witness == next(p for p in tile.points if sum(p) > d)


def test_tile_from_difference_never_scans_when_the_radius_covers(monkeypatch):
    lattices = [I2, L5, L22] + make_corpus(37, [(2, 40, 6), (3, 30, 6), (4, 16, 4)])
    expected = [(lat, build_tile(lat)) for lat in lattices]

    def no_scan(*args):
        raise AssertionError("tile scan ran")

    monkeypatch.setattr(tiles, "build_tile", no_scan)
    monkeypatch.setattr(tiles, "_scan", no_scan)
    for lat, tile in expected:
        assert tile_from_difference(lat, tile.m_diameter) == tile.point_set


def test_tile_from_difference_in_high_dimension():
    # n = 6, det 200 and n = 7, det 300: cyclic quotients, and the quotients
    # Z/2 + Z/10 + Z/10 and Z/5 + Z/6 + Z/10 mixed as in mixed_diagonals;
    # two lattices each, of diameter at most 7, as the mask has (d+1)^n cells
    rng = random.Random(40)
    diagonals = [
        (200,) + (1,) * 5, (300,) + (1,) * 6, (2, 1, 10, 1, 1, 10), (1, 5, 1, 6, 1, 1, 10)
    ]
    for diag in diagonals:
        n = len(diag)
        kept = 0
        while kept < 2:
            ops = [(rng.randrange(n), rng.randrange(n), rng.randint(-2, 2)) for _ in range(30)]
            lat = mix_columns(diag, ops)
            tile = build_tile(lat)
            if tile.m_diameter > 7:
                continue
            kept += 1
            assert len(tile) == lat.det
            assert tile.m_diameter == bfs_quotient_diameter(lat)
            assert tile_from_difference(lat, tile.m_diameter) == tile.point_set


@pytest.mark.slow
def test_tile_from_difference_at_n8():
    # cyclic, det 400: row i >= 1 is e_i plus the entry below in column 0
    column = (98, 206, 45, 248, 119, 388, 10)
    rows = [(400,) + (0,) * 7] + [
        (c,) + (0,) * (i - 1) + (1,) + (0,) * (7 - i) for i, c in enumerate(column, 1)
    ]
    lat = IntegerLattice(8, tuple(rows))
    tile = build_tile(lat)
    assert tile.m_diameter == bfs_quotient_diameter(lat) == 7
    assert tile_from_difference(lat, 7) == tile.point_set
    with pytest.raises(NotACovering):
        tile_from_difference(lat, 6)


def test_is_tiling():
    tile = build_tile(L5)
    assert is_tiling(tile.points, L5)
    # swapping (1, 1) for the lattice vector (3, 1) collides with the origin
    broken = (set(tile.points) - {(1, 1)}) | {(3, 1)}
    assert not is_tiling(broken, L5)
    assert not is_tiling([], I2)


def test_fits_diameter_matches_full_scan():
    for lat in make_corpus(33, [(2, 50, 20), (3, 30, 15)]):
        diameter = build_tile(lat).m_diameter
        assert fits_diameter(lat, diameter)
        if diameter > 0:
            assert not fits_diameter(lat, diameter - 1)


def test_fits_diameter_rejects_negative_radius():
    # the diameter is never negative, not even at det 1 where it is 0
    for lat in (L5, I2):
        for d in (-1, -7):
            assert not fits_diameter(lat, d)
    assert fits_diameter(I2, 0)


# index caps keep the graded-lex walk of the oracle short
_SCAN_CAPS = {1: 30, 2: 60, 3: 40, 4: 24, 5: 16, 6: 10}


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.one_of(
        st.integers(1, 6).flatmap(lambda n: hnfs(n, _SCAN_CAPS[n])), mixed_diagonals()
    )
)
def test_frontier_scan_matches_graded_lex_definition(lat):
    tile = build_tile(lat)
    assert tile.points == brute_tile(lat)
    assert tile.m_diameter == bfs_quotient_diameter(lat)
    for k in range(-1, tile.m_diameter + 2):
        assert fits_diameter(lat, k) == (k >= tile.m_diameter)


def test_tile_in_high_dimension_with_few_free_cells():
    # n = 300, det 6: the character works on the 2 x 2 block of the free
    # rows, and every other e_i maps to minus its entries there
    rng = random.Random(38)
    n, free = 300, {41: 2, 229: 3}
    rows = [
        tuple(rng.randrange(free[j]) if j in free and j < i else 0 for j in range(n))
        for i in range(n)
    ]
    lat = IntegerLattice(
        n, tuple(r[:i] + (free.get(i, 1),) + r[i + 1 :] for i, r in enumerate(rows))
    )
    tile = build_tile(lat)
    assert len(tile) == lat.det == 6
    assert is_tiling(tile.points, lat)
    assert tile.m_diameter == bfs_quotient_diameter(lat)


def test_tile_properties_over_corpus():
    for lat in make_corpus(34, [(2, 60, 25), (3, 60, 25), (4, 30, 12)]):
        tile = build_tile(lat)
        pts = tile.point_set
        assert len(pts) == lat.det
        # downward closure: dropping any positive coordinate stays inside
        for p in pts:
            for j in range(tile.dim):
                if p[j] > 0:
                    assert p[:j] + (p[j] - 1,) + p[j + 1 :] in pts
        assert is_tiling(tile.points, lat)
        assert tile.m_diameter == bfs_quotient_diameter(lat)
        assert tile_from_difference(lat, tile.m_diameter) == pts

