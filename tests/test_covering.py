import math
import random
from fractions import Fraction

import pytest

from cayleycover import (
    DiscreteSimplex,
    NotACovering,
    SingularAfterRounding,
    brute_force_f,
    build_tile,
    continuous_cover_falsify,
    covers_discrete,
    discrete_density,
    f3_upper_bound,
    f4_upper_bound,
    hnf_normalize,
    lift_to_continuous,
    reduce_mod,
    round_scaled_lattice,
    simplex_size,
    tile_from_difference,
)
from cayleycover import tiles
from conftest import (
    grid_cover_falsify,
    grid_point_covered,
    make_corpus,
    random_hnf,
    simplex_points_brute,
)

L5 = hnf_normalize([(5, 0), (3, 1)])
L22 = hnf_normalize([(2, 0), (0, 2)])
I2 = hnf_normalize([(1, 0), (0, 1)])


def test_simplex_size_examples():
    assert simplex_size(4, 0) == 1
    assert simplex_size(2, 2) == 6
    assert simplex_size(3, 2) == 10
    for n, d in [(2, 2), (3, 2), (3, 5), (4, 3)]:
        assert simplex_size(n, d) == len(simplex_points_brute(n, d))


def test_discrete_simplex_points():
    simplex = DiscreteSimplex(3, 2)
    pts = list(simplex.points())
    assert len(pts) == simplex.size == 10
    assert set(pts) == simplex_points_brute(3, 2)
    assert all(sum(p) <= 2 for p in pts)


def test_covers_discrete_examples():
    verdict = covers_discrete(2, 2, L5)
    assert verdict.covered and verdict.density == Fraction(6, 5)
    assert verdict.tile_diameter == 2 and verdict.witness is None

    verdict = covers_discrete(2, 1, L5)
    assert not verdict.covered and verdict.density is None
    assert verdict.witness == (0, 2)

    for d in range(4):
        verdict = covers_discrete(2, d, I2)
        assert verdict.covered
        assert verdict.density == simplex_size(2, d)


def test_witness_coset_is_unreached():
    # no simplex point may share the witness's coset
    cases = [(2, 1, L5), (2, 1, hnf_normalize([(4, 0), (0, 3)]))]
    for lat in make_corpus(40, [(2, 50, 10), (3, 40, 10)]):
        diameter = build_tile(lat).m_diameter
        if diameter > 0:
            cases.append((lat.dim, diameter - 1, lat))
    for n, d, lat in cases:
        verdict = covers_discrete(n, d, lat)
        if verdict.covered:
            continue
        target = reduce_mod(lat, verdict.witness)
        assert all(
            reduce_mod(lat, p) != target for p in simplex_points_brute(n, d)
        )


def test_covered_is_monotone_in_d():
    for lat in make_corpus(41, [(2, 40, 10), (3, 30, 10)]):
        diameter = build_tile(lat).m_diameter
        assert not covers_discrete(lat.dim, max(0, diameter - 1), lat).covered or diameter == 0
        for d in (diameter, diameter + 1, diameter + 3):
            assert covers_discrete(lat.dim, d, lat).covered


def test_density_examples_and_floor():
    assert discrete_density(2, 2, L5) == Fraction(6, 5)
    assert discrete_density(3, 4, hnf_normalize([(1, 0, 0), (0, 1, 0), (0, 0, 1)])) == simplex_size(3, 4)
    best10 = brute_force_f(2, 10, threads=1)
    assert best10.f_value == 48
    assert discrete_density(2, 10, best10.witness) == Fraction(66, 48)
    with pytest.raises(NotACovering):
        discrete_density(2, 1, L5)


def test_density_at_least_one_when_covered():
    for lat in make_corpus(42, [(2, 50, 15), (3, 40, 15), (4, 25, 8)]):
        d = build_tile(lat).m_diameter
        assert discrete_density(lat.dim, d, lat) >= 1


def test_finite_d_density_inequalities():
    for lat in make_corpus(43, [(3, 60, 20), (4, 30, 12)]):
        d = build_tile(lat).m_diameter
        density = discrete_density(lat.dim, d, lat)
        if lat.dim == 3:
            assert density >= math.comb(d + 3, 3) / f3_upper_bound(d)
        else:
            assert density >= math.comb(d + 4, 4) / f4_upper_bound(d)


def test_lift_examples():
    lift = lift_to_continuous(2, 2, L5)
    assert lift.D == 4 and lift.continuous_density == Fraction(8, 5)
    for n in (2, 3, 4):
        identity = hnf_normalize([[int(i == j) for j in range(n)] for i in range(n)])
        lift = lift_to_continuous(n, 0, identity)
        assert lift.D == n
        assert lift.continuous_density == Fraction(n**n, math.factorial(n))
    i3 = hnf_normalize([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    for d in (1, 2, 5):
        assert lift_to_continuous(3, d, i3).continuous_density == Fraction((d + 3) ** 3, 6)
    with pytest.raises(NotACovering):
        lift_to_continuous(2, 1, L5)


def test_round_scaled_lattice_examples():
    for n in (2, 3):
        identity = [[float(i == j) for j in range(n)] for i in range(n)]
        lat = round_scaled_lattice(identity, 7)
        assert lat.diagonal == (7,) * n
    lat = round_scaled_lattice([(1.2, 0.0), (0.4, 1.0)], 10)
    assert lat.det == 120
    assert hnf_normalize([(12, 0), (4, 10)]) == lat


def test_round_ties_go_up():
    lat = round_scaled_lattice([(0.5, 0.0), (0.0, -0.5)], 5)
    # 2.5 rounds to 3 and -2.5 to -2, both toward +infinity
    assert lat.det == abs(3 * -2)


def test_round_singular_raises():
    with pytest.raises(SingularAfterRounding):
        round_scaled_lattice([(0.01, 0.0), (0.02, 0.0)], 1)


def test_round_scaled_determinant_trend():
    rng = random.Random(44)
    for _ in range(10):
        n = rng.choice([2, 3])
        basis = [[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)]
        dets = {}
        for k in (40, 41):
            try:
                dets[k] = round_scaled_lattice(basis, k).det
            except SingularAfterRounding:
                pytest.skip("degenerate random basis")
        # both determinants approximate k^n |det basis|; their scaled gap
        # is O(k^(n-1)) with a generous constant for entries within [-2, 2]
        gap = abs(dets[41] - dets[40] * (41 / 40) ** n)
        assert gap <= 60 * n * 41 ** (n - 1)


def test_falsifier_identity_and_lifted_instances():
    for n in (2, 3):
        identity = hnf_normalize([[int(i == j) for j in range(n)] for i in range(n)])
        assert continuous_cover_falsify(n, n, identity, 4) is None
    assert continuous_cover_falsify(2, 4, L5, 4) is None


def test_falsifier_broken_instance():
    witness = continuous_cover_falsify(2, 1, L22, 2)
    assert witness == (Fraction(0), Fraction(3, 2))
    # re-verify by direct enumeration of every candidate lattice vector
    D = Fraction(1)
    for a in range(-3, 4):
        for b in range(-3, 4):
            v = (2 * a, 2 * b)
            shifted = [p - c for p, c in zip(witness, v)]
            assert not (all(s >= 0 for s in shifted) and sum(shifted) <= D)


def test_falsifier_resolution_validation():
    with pytest.raises(ValueError):
        continuous_cover_falsify(2, 2, L22, 0)


def test_falsifier_matches_grid_oracle():
    rng = random.Random(45)
    for _ in range(60):
        n = rng.randint(1, 3)
        lat = random_hnf(rng, n, 30)
        top = build_tile(lat).m_diameter + n
        radii = [top, top - Fraction(1, 8), top - 1, Fraction(rng.randint(0, 4 * top), 4)]
        for D in radii:
            r = rng.randint(1, 4)
            expected = grid_cover_falsify(n, D, lat, r)
            assert continuous_cover_falsify(n, D, lat, r) == expected, (lat, D, r)


def test_continuous_cover_threshold_is_diameter_plus_n():
    # L + solid radius-D simplex covers R^n iff D >= d(L) + n: the lift is tight
    for lat in make_corpus(46, [(2, 30, 12)]) + [L5, L22, I2]:
        top = build_tile(lat).m_diameter + 2
        assert continuous_cover_falsify(2, top, lat, 17) is None
        witness = continuous_cover_falsify(2, top - Fraction(1, 8), lat, 17)
        assert witness is not None
        assert not grid_point_covered(witness, top - Fraction(1, 8), lat)


def test_covering_queries_skip_notch_detection(monkeypatch):
    def no_notch(tile):
        raise AssertionError("notch detection ran")

    monkeypatch.setattr(tiles, "find_notch", no_notch)
    for lat in (L5, L22, I2, *make_corpus(47, [(2, 30, 5), (3, 20, 5)])):
        n = lat.dim
        d = build_tile(lat).m_diameter
        assert covers_discrete(n, d, lat).covered
        assert len(tile_from_difference(lat, d)) == lat.det
        assert continuous_cover_falsify(n, d + n, lat, 2) is None
        continuous_cover_falsify(n, d + n - 1, lat, 2)
    monkeypatch.undo()
    assert build_tile(L5).notch == (1, 2)
