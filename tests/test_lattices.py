import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cayleycover import (
    DimensionMismatch,
    IntegerLattice,
    SingularBasis,
    enumerate_sublattices,
    hnf_normalize,
    lattice_from_json_dict,
    lattice_to_json_dict,
    reduce_mod,
    same_coset,
)
from cayleycover.lattices import count_sublattices, lattice_points_in_difference_body
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


def per_entry_canonical_check(n, basis):
    """The canonical-form check of ``IntegerLattice``, entry by entry: the
    (type, message) of the error it must raise, or None."""
    if n < 1 or len(basis) != n or any(len(r) != n for r in basis):
        return DimensionMismatch, f"basis must be a {n}x{n} integer matrix"
    for i, row in enumerate(basis):
        if row[i] < 1:
            return SingularBasis, "diagonal entries must be positive"
        if any(row[j] != 0 for j in range(i + 1, n)):
            return ValueError, "basis must be lower triangular"
        if any(not 0 <= row[j] < basis[j][j] for j in range(i)):
            return ValueError, "entries below the diagonal must be reduced"
    return None


REDUCED = "entries below the diagonal must be reduced"
MALFORMED_BASES = [
    (0, (), DimensionMismatch, "basis must be a 0x0 integer matrix"),
    (3, ((1, 0, 0), (0, 1, 0)), DimensionMismatch, "basis must be a 3x3 integer matrix"),
    (2, ((1, 0), (0, 1, 0)), DimensionMismatch, "basis must be a 2x2 integer matrix"),
    (2, ((0, 0), (0, 1)), SingularBasis, "diagonal entries must be positive"),
    (3, ((1, 0, 0), (0, 1, 0), (0, 0, -1)), SingularBasis, "diagonal entries must be positive"),
    (2, ((1, 1), (0, 1)), ValueError, "basis must be lower triangular"),
    (3, ((2, 0, 0), (1, 3, 0, 0), (0, 0, 1)), DimensionMismatch,
     "basis must be a 3x3 integer matrix"),
    (3, ((2, 0, 0), (1, 3, 0), (1, 3, 1)), ValueError, REDUCED),  # equals its diagonal
    (3, ((2, 0, 0), (1, 3, 0), (0, -1, 1)), ValueError, REDUCED),
    (2, ((2, 0), (2, 1)), ValueError, REDUCED),
    # the first bad row decides, and within a row the diagonal comes first
    (2, ((1, 5), (0, 0)), ValueError, "basis must be lower triangular"),
    (2, ((2, 0), (3, 0)), SingularBasis, "diagonal entries must be positive"),
    (3, ((2, 0, 0), (0, 2, 1), (5, 0, 1)), ValueError, "basis must be lower triangular"),
    (3, ((2, 0, 0), (9, 2, 0), (0, 0, 0)), ValueError, REDUCED),
]


@pytest.mark.parametrize("n,basis,error,message", MALFORMED_BASES)
def test_malformed_basis_raises_its_error(n, basis, error, message):
    assert per_entry_canonical_check(n, basis) == (error, message)
    with pytest.raises(error) as info:
        IntegerLattice(n, basis)
    assert type(info.value) is error and str(info.value) == message


def test_canonical_check_matches_per_entry_check():
    rng = random.Random(17)
    outcomes = set()
    for _ in range(3000):
        n = rng.randint(1, 4)
        basis = tuple(
            tuple(rng.choice((-1, 0, 0, 1, 1, 2, 3)) for _ in range(n)) for _ in range(n)
        )
        expected = per_entry_canonical_check(n, basis)
        if expected is None:
            assert IntegerLattice(n, basis).basis == basis
            outcomes.add(None)
            continue
        with pytest.raises(expected[0]) as info:
            IntegerLattice(n, basis)
        assert (type(info.value), str(info.value)) == expected
        outcomes.add(expected)
    # valid, singular, not lower triangular, not reduced
    assert len(outcomes) == 4


def test_determinant_examples():
    assert hnf_normalize([(1, 0), (0, 1)]).det == 1
    assert hnf_normalize(L5_ROWS).det == 5
    assert hnf_normalize([(2, 0), (0, 2)]).det == 4


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


def test_reduce_mod_rejects_non_integers():
    l5 = hnf_normalize(L5_ROWS)
    # int() would truncate (2.7, 0.9) to (2, 0), a different coset
    with pytest.raises(TypeError):
        reduce_mod(l5, (2.7, 0.9))
    with pytest.raises(TypeError):
        reduce_mod(l5, (Fraction(5, 2), 0))


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
        # 2^n whole fundamental boxes, so every coset is hit
        seen = set()
        for p in itertools.product(*(range(2 * a) for a in lat.diagonal)):
            r = reduce_mod(lat, p)
            assert all(0 <= v < a for v, a in zip(r, lat.diagonal))
            assert reduce_mod(lat, r) == r
            seen.add(r)
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


def test_count_sublattices_matches_enumeration():
    for n in (1, 2, 3):
        for m in range(1, 41):
            assert count_sublattices(n, m) == len(list(enumerate_sublattices(n, m)))
    # dimension 4 up to m = 12 here; test_index_rows_match_enumerator draws
    # up to m = 40, where an index holds up to 2e5 lattices
    for m in range(1, 13):
        assert count_sublattices(4, m) == len(list(enumerate_sublattices(4, m)))
    for m in range(1, 61):
        assert count_sublattices(2, m) == sigma_divisors(m)
    # index p: the hyperplanes of (Z/p)^n
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(1, 7):
            assert count_sublattices(n, p) == (p**n - 1) // (p - 1)
    # far past the recursion limit: one dimension at a time
    assert count_sublattices(1500, 2) == 2**1500 - 1
    with pytest.raises(ValueError):
        count_sublattices(0, 1)
    with pytest.raises(ValueError):
        count_sublattices(2, 0)


def test_enumerate_is_canonical_unique_and_ordered():
    for n, m in [(2, 12), (3, 8), (4, 6)]:
        flats = []
        for lat in enumerate_sublattices(n, m):
            assert lat.det == m
            assert hnf_normalize(lat.basis) == lat
            flats.append(tuple(v for row in lat.basis for v in row))
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


def test_lattice_points_in_difference_body_matches_reduction():
    rng = random.Random(17)
    for lat in make_corpus(18, [(1, 20, 5), (2, 40, 10), (3, 30, 10)]):
        n = lat.dim
        d = rng.randint(-2, 7)
        cube = itertools.product(range(-d, d + 1), repeat=n)
        expected = {
            p for p in cube
            if reduce_mod(lat, p) == (0,) * n
            and sum(max(a, 0) for a in p) <= d
            and sum(max(-a, 0) for a in p) <= d
        }
        found = lattice_points_in_difference_body(lat, d)
        assert len(found) == len(set(found))
        assert set(found) == expected


@st.composite
def generating_sets(draw):
    """n = 1..4 and n to n + 2 integer rows of length n with entries in
    [-12, 12], plus a row operation (negate row i when i == j, else add c
    times row j to row i) and a row permutation."""
    n = draw(st.integers(1, 4))
    size = n + draw(st.integers(0, 2))
    row = st.lists(st.integers(-12, 12), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=size, max_size=size))
    op = (draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1)), draw(st.integers(-5, 5)))
    return rows, op, draw(st.permutations(range(size)))


def _in_span(square, row):
    """Whether ``row`` is an integer combination of the rows of the
    nonsingular ``square``, by Cramer's rule."""
    det = det_laplace(square)
    for k in range(len(square)):
        replaced = [row if i == k else r for i, r in enumerate(square)]
        if det_laplace(replaced) % det:
            return False
    return True


@settings(max_examples=200, deadline=None, database=None)
@given(generating_sets())
def test_hnf_properties_on_random_generating_sets(case):
    rows, (i, j, c), perm = case
    n = len(rows[0])
    squares = [list(sub) for sub in itertools.combinations(rows, n) if det_laplace(list(sub))]
    assume(squares)
    lat = hnf_normalize(rows)

    assert hnf_normalize(lat.basis) == lat
    moved = [list(r) for r in rows]
    if i == j:
        moved[i] = [-v for v in moved[i]]
    else:
        moved[i] = [a + c * b for a, b in zip(moved[i], moved[j])]
    assert hnf_normalize(moved) == lat
    assert hnf_normalize([rows[k] for k in perm]) == lat

    # a nonsingular n-subset generates a sublattice of L; it is all of L
    # exactly when every row is in its span, and then |det| = det(L)
    for square in squares:
        assert abs(det_laplace(square)) % lat.det == 0
        if all(_in_span(square, row) for row in rows):
            assert abs(det_laplace(square)) == lat.det
        else:
            assert abs(det_laplace(square)) > lat.det

    if lat.det <= 60:
        assert lat in enumerate_sublattices(n, lat.det)
