import itertools
import random

import pytest

from cayleycover import (
    DimensionMismatch,
    NotACovering,
    build_tile,
    enumerate_orthant_prec,
    find_notch,
    fits_diameter,
    hnf_normalize,
    is_tiling,
    m_diameter,
    prec_compare,
    reduce_mod,
    silhouette,
    tile_from_difference,
)
from cayleycover import _tilescan_py, tiles
from cayleycover.lattices import lattice_points_in_box
from cayleycover.tiles import prec_key

try:
    from cayleycover import _tilescan
except ImportError:
    _tilescan = None

from conftest import (
    bfs_quotient_diameter,
    brute_notch_candidates,
    cube_positive_lattice_vectors,
    make_corpus,
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


def test_prec_compare_examples():
    assert prec_compare((0, 1), (1, 0)) == -1
    assert prec_compare((3, 7), (3, 7)) == 0
    assert prec_compare((0, 0, 2), (0, 1, 1)) == -1
    assert prec_compare((1, 0), (0, 1)) == 1
    with pytest.raises(DimensionMismatch):
        prec_compare((1, 0), (1, 0, 0))


def test_prec_is_total_on_published_sequences():
    for seq in (SEQ2, SEQ3):
        for a, b in zip(seq, seq[1:]):
            assert prec_compare(a, b) == -1


def test_prec_compatible_with_addition():
    rng = random.Random(30)
    for _ in range(10_000):
        n = rng.choice([2, 3, 4])
        x = tuple(rng.randrange(6) for _ in range(n))
        y = tuple(rng.randrange(6) for _ in range(n))
        z = tuple(rng.randrange(6) for _ in range(n))
        if prec_compare(x, y) == -1:
            assert prec_compare(tuple(a + c for a, c in zip(x, z)),
                                tuple(b + c for b, c in zip(y, z))) == -1


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
    assert m_diameter(tile) == 0


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


def test_silhouette_examples():
    assert silhouette(build_tile(I2)).projections == (
        frozenset({(0, 0)}),
        frozenset({(0, 0)}),
    )
    s = silhouette(build_tile(L5))
    assert s.projections[0] == frozenset({(0, 0), (0, 1), (0, 2)})
    assert s.projections[1] == frozenset({(0, 0), (1, 0)})
    s = silhouette(build_tile(L22))
    assert s.projections[0] == frozenset({(0, 0), (0, 1)})
    assert s.projections[1] == frozenset({(0, 0), (1, 0)})


def test_silhouette_projections_downward_closed():
    for lat in make_corpus(31, [(2, 40, 15), (3, 30, 15)]):
        tile = build_tile(lat)
        for axis, proj in enumerate(silhouette(tile).projections):
            for p in proj:
                for j in range(tile.dim):
                    if p[j] > 0:
                        q = p[:j] + (p[j] - 1,) + p[j + 1 :]
                        assert q in proj


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
        box = lattice_points_in_box(lat, (-d,) * lat.dim, (d,) * lat.dim)
        vectors = [v for v in box if tiles._graded_positive(v)]
        assert len(vectors) == len(set(vectors))
        assert set(vectors) == cube_positive_lattice_vectors(lat, d)


def test_incomplete_scan_raises(monkeypatch):
    monkeypatch.setattr(tiles, "_scan", lambda lattice, prune: (False, -1, ()))
    with pytest.raises(RuntimeError):
        build_tile(L5)


def test_difference_set_size_is_checked(monkeypatch):
    monkeypatch.setattr(tiles, "lattice_points_in_box", lambda lattice, lo, hi: iter(()))
    with pytest.raises(RuntimeError):
        tile_from_difference(L5, 2)


def test_tile_from_difference_requires_covering():
    with pytest.raises(NotACovering) as err:
        tile_from_difference(L5, 1)
    assert err.value.witness == (0, 2)


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


@pytest.mark.skipif(_tilescan is None, reason="compiled kernel not built")
def test_kernels_agree():
    for lat in make_corpus(35, [(2, 60, 20), (3, 40, 15), (4, 25, 10)]):
        args = (lat.diagonal, lat.flat(), lat.det, -1)
        assert _tilescan.scan_tile(*args) == _tilescan_py.scan_tile(*args)
        probe = max(0, build_tile(lat).m_diameter - 1)
        args = (lat.diagonal, lat.flat(), lat.det, probe)
        assert _tilescan.scan_tile(*args) == _tilescan_py.scan_tile(*args)
