import itertools
import math
import random
from fractions import Fraction

import pytest

from cayleycover import (
    DimensionMismatch,
    SingularBasis,
    determinant,
    enumerate_sublattices,
    hnf_normalize,
    lattice_from_json_dict,
    lattice_to_json_dict,
    reduce_mod,
    same_coset,
)
from cayleycover.lattices import lattice_points_in_box
from conftest import (
    det_laplace,
    make_corpus,
    random_full_rank_matrix,
    sigma_divisors,
    unimodular_mix,
)

L5_ROWS = [(5, 0), (-2, 1)]


def test_hnf_identity():
    lat = hnf_normalize([(1, 0), (0, 1)])
    assert lat.basis == ((1, 0), (0, 1))
    assert lat.det == 1


def test_hnf_row_reduction_example():
    lat = hnf_normalize(L5_ROWS)
    assert lat.basis == ((5, 0), (3, 1))
    assert lat.det == 5


def test_hnf_already_canonical():
    lat = hnf_normalize([(2, 0), (0, 2)])
    assert lat.basis == ((2, 0), (0, 2))
    assert lat.det == 4


def test_hnf_idempotent():
    lat = hnf_normalize(L5_ROWS)
    again = hnf_normalize(lat.basis)
    assert again == lat


def test_hnf_accepts_redundant_generators():
    lat = hnf_normalize([(5, 0), (-2, 1), (3, 1), (8, 1)])
    assert lat.basis == ((5, 0), (3, 1))


def test_hnf_singular_raises():
    with pytest.raises(SingularBasis):
        hnf_normalize([(1, 2), (2, 4)])
    with pytest.raises(SingularBasis):
        hnf_normalize([(0, 0), (0, 0)])


def test_hnf_ragged_rows_raise():
    with pytest.raises(DimensionMismatch):
        hnf_normalize([(1, 0), (0, 1, 2)])


def test_determinant_examples():
    assert determinant(hnf_normalize([(1, 0), (0, 1)])) == 1
    assert determinant(hnf_normalize(L5_ROWS)) == 5
    assert determinant(hnf_normalize([(2, 0), (0, 2)])) == 4


def test_reduce_mod_examples():
    identity = hnf_normalize([(1, 0), (0, 1)])
    assert reduce_mod(identity, (37, -12)) == (0, 0)
    l5 = hnf_normalize(L5_ROWS)
    assert reduce_mod(l5, (6, 1)) == (3, 0)
    l22 = hnf_normalize([(2, 0), (0, 2)])
    assert reduce_mod(l22, (-1, 3)) == (1, 1)


def test_reduce_mod_dimension_mismatch():
    l5 = hnf_normalize(L5_ROWS)
    with pytest.raises(DimensionMismatch):
        reduce_mod(l5, (1, 2, 3))


def test_reduce_mod_is_retraction():
    rng = random.Random(20)
    for _ in range(60):
        n = rng.choice([2, 3])
        lat = hnf_normalize(random_full_rank_matrix(rng, n))
        x = [rng.randint(-30, 30) for _ in range(n)]
        r = reduce_mod(lat, x)
        assert reduce_mod(lat, r) == r
        assert all(0 <= r[i] < lat.basis[i][i] for i in range(n))
        # shifting by a lattice combination must not change the residue
        shift = [0] * n
        for row in lat.basis:
            c = rng.randint(-4, 4)
            shift = [s + c * b for s, b in zip(shift, row)]
        assert reduce_mod(lat, [a + b for a, b in zip(x, shift)]) == r


def test_residue_count_over_box():
    rng = random.Random(21)
    for _ in range(25):
        n = rng.choice([2, 3])
        lat = hnf_normalize(random_full_rank_matrix(rng, n, span=3))
        box = 2 * max(lat.diagonal)
        seen = set()
        import itertools

        for p in itertools.product(range(box), repeat=n):
            seen.add(reduce_mod(lat, p))
        assert len(seen) == lat.det


def test_same_coset():
    l5 = hnf_normalize(L5_ROWS)
    assert same_coset(l5, (7, -3), (7, -3))
    assert same_coset(l5, (0, 0), (5, 0))
    assert not same_coset(l5, (0, 0), (1, 0))
    with pytest.raises(DimensionMismatch):
        same_coset(l5, (0, 0), (1, 0, 0))


def test_enumerate_counts():
    assert len(list(enumerate_sublattices(2, 1))) == 1
    assert len(list(enumerate_sublattices(2, 5))) == 6
    assert len(list(enumerate_sublattices(2, 4))) == 7
    for m in range(1, 61):
        assert len(list(enumerate_sublattices(2, m))) == sigma_divisors(m)


def test_enumerate_is_canonical_unique_and_ordered():
    for n, m in [(2, 12), (3, 8), (4, 6)]:
        flats = []
        for lat in enumerate_sublattices(n, m):
            assert lat.det == m
            assert hnf_normalize(lat.basis) == lat
            flats.append(lat.flat())
        assert flats == sorted(flats)
        assert len(set(flats)) == len(flats)


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        list(enumerate_sublattices(0, 3))
    with pytest.raises(ValueError):
        list(enumerate_sublattices(2, 0))


def test_hnf_canonical_under_unimodular_transforms():
    rng = random.Random(22)
    for _ in range(500):
        n = rng.choice([2, 3, 4])
        rows = random_full_rank_matrix(rng, n)
        lat = hnf_normalize(rows)
        mixed = unimodular_mix(rng, rows)
        assert hnf_normalize(mixed) == lat
        assert lat.det == abs(det_laplace(rows))


def test_rational_ops():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert math.floor(Fraction(16, 3)) == 5
    assert 3 * Fraction(5) ** 3 / 25 == 15
    half = Fraction(-4, 8)
    assert (half.numerator, half.denominator) == (-1, 2)
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Fraction(0)


def test_lattice_json_roundtrip():
    lat = hnf_normalize(L5_ROWS)
    obj = lattice_to_json_dict(lat)
    assert obj == {"n": 2, "basis": [[5, 0], [3, 1]]}
    # parsers normalize arbitrary generating sets on load
    assert lattice_from_json_dict({"n": 2, "basis": [[5, 0], [-2, 1]]}) == lat
    with pytest.raises(ValueError):
        lattice_from_json_dict({"basis": [[1]]})


def test_lattice_points_in_box_matches_reduction():
    rng = random.Random(17)
    for lat in make_corpus(18, [(1, 20, 5), (2, 40, 10), (3, 30, 10)]):
        n = lat.dim
        lo = [rng.randint(-6, 2) for _ in range(n)]
        hi = [a + rng.randint(-1, 7) for a in lo]
        box = itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
        expected = {p for p in box if reduce_mod(lat, p) == (0,) * n}
        found = list(lattice_points_in_box(lat, lo, hi))
        assert len(found) == len(set(found))
        assert set(found) == expected
