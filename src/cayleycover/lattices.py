"""Exact algebra for full-rank sublattices of Z^n.

A sublattice is stored through its canonical Hermite normal form: rows are
basis vectors, the matrix is lower triangular with positive diagonal, and
every entry below a diagonal entry is reduced into ``[0, diagonal)`` within
its column.  Two generating sets span the same lattice exactly when they
normalize to the same matrix, so lattices can be compared, hashed and
deduplicated structurally.  The determinant (product of the diagonal) equals
the index ``[Z^n : L]``, i.e. the order of the quotient group.

Everything here is exact: plain Python integers for matrices,
``fractions.Fraction`` for densities and bound values (``Rational`` below).
Division by a zero Fraction raises the built-in ``ZeroDivisionError``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Sequence

from .errors import DimensionMismatch, SingularBasis

Rational = Fraction


@dataclass(frozen=True)
class IntegerLattice:
    """A full-rank sublattice of Z^n in canonical Hermite normal form."""

    dim: int
    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.dim
        if n < 1 or len(self.basis) != n or any(len(r) != n for r in self.basis):
            raise DimensionMismatch(f"basis must be a {n}x{n} integer matrix")
        diag = []
        for i, row in enumerate(self.basis):
            if row[i] < 1:
                raise SingularBasis("diagonal entries must be positive")
            if any(row[i + 1 :]):
                raise ValueError("basis must be lower triangular")
            below = row[:i]
            if i and not (min(below) >= 0 and all(map(operator.lt, below, diag))):
                raise ValueError("entries below the diagonal must be reduced")
            diag.append(row[i])

    @property
    def det(self) -> int:
        """Index of the lattice in Z^n; product of the diagonal."""
        d = 1
        for i in range(self.dim):
            d *= self.basis[i][i]
        return d

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.basis[i][i] for i in range(self.dim))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with x*a + y*b == g == gcd(a, b)."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return g, x, y


def hnf_normalize(rows: Iterable[Sequence[int]]) -> IntegerLattice:
    """Canonical Hermite normal form of the lattice generated by ``rows``.

    Accepts any generating set (at least n rows of length n); raises
    :class:`SingularBasis` when the rows do not span full rank and
    ``TypeError`` when an entry is not an integer.  Idempotent:
    feeding back the returned basis reproduces it bit for bit.
    """
    mat = [[operator.index(v) for v in r] for r in rows]
    if not mat:
        raise SingularBasis("empty generating set")
    n = len(mat[0])
    if any(len(r) != n for r in mat):
        raise DimensionMismatch("rows must all have the same length")

    active = mat
    pivots: list[list[int]] = []
    for col in range(n - 1, -1, -1):
        carrier = None
        rest = []
        for r in active:
            if r[col] == 0:
                rest.append(r)
                continue
            if carrier is None:
                carrier = r
                continue
            # fold r into the carrier with a unimodular 2x2 combination;
            # columns above `col` are already zero in both rows
            a, b = carrier[col], r[col]
            g, x, y = _xgcd(a, b)
            ag, bg = a // g, b // g
            for j in range(col + 1):
                cj, rj = carrier[j], r[j]
                carrier[j] = x * cj + y * rj
                r[j] = ag * rj - bg * cj
            rest.append(r)
        if carrier is None:
            raise SingularBasis(f"generators do not span coordinate {col}")
        if carrier[col] < 0:
            carrier = [-v for v in carrier]
        pivots.append(carrier)
        active = rest
    pivots.reverse()

    # reduce entries below each diagonal entry into [0, diagonal)
    for i in range(n):
        row = pivots[i]
        for j in range(i - 1, -1, -1):
            q = row[j] // pivots[j][j]
            if q:
                pj = pivots[j]
                for k in range(j + 1):
                    row[k] -= q * pj[k]

    return IntegerLattice(n, tuple(tuple(r) for r in pivots))


def reduce_mod(lattice: IntegerLattice, x: Sequence[int]) -> tuple[int, ...]:
    """Canonical representative of ``x + L`` in the fundamental box.

    Back-substitutes through the HNF rows from the last coordinate to the
    first, leaving ``0 <= r[i] < diagonal[i]``.  A retraction:
    ``reduce_mod(L, r) == r`` and ``x - r`` is a lattice vector.  Raises
    ``TypeError`` when an entry is not an integer.
    """
    n = lattice.dim
    if len(x) != n:
        raise DimensionMismatch(f"expected a vector of length {n}")
    r = [operator.index(v) for v in x]
    basis = lattice.basis
    for i in range(n - 1, -1, -1):
        q = r[i] // basis[i][i]
        if q:
            row = basis[i]
            for j in range(i + 1):
                r[j] -= q * row[j]
    return tuple(r)


def coset_character(
    lattice: IntegerLattice,
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The quotient map Z^n -> Z^n/L = Z/s_1 + ... + Z/s_m as
    ``(factors, images)``: the invariant factors s_1 | s_2 | ... | s_m, all
    above 1 (none when det is 1), and for each i the image of e_i, a tuple
    of residues in ``[0, s_k)``.

    The map is a homomorphism, so x and y lie in one coset exactly when
    ``sum(x[i] * images[i][k])`` and ``sum(y[i] * images[i][k])`` agree
    modulo s_k for every k; and the product of the factors is det.

    Let F be the indices with diagonal entry above 1, K = |F| <= log2 det.
    A row i outside F is e_i plus entries in the columns of F only (an
    entry below a diagonal 1 is reduced to 0), so e_i is congruent to
    minus those entries, and Z^n/L is Z^F modulo the K x K block M of the
    rows and columns of F.  Row and column operations bring M to Smith form
    ``U M V = diag(1, ..., 1, s_1, ..., s_m)``; then x in Z^F lies in the
    row lattice of M iff ``x V`` does in that of the diagonal, i.e. iff
    ``(x V)_k`` vanishes mod each s_k.  So e_j (j in F) maps to row j of V
    read mod the factors.  Only V is kept, and the cost is O(K^3 + nK).
    """
    basis = lattice.basis
    free = [j for j in range(lattice.dim) if basis[j][j] > 1]
    k = len(free)
    a = [[basis[i][j] for j in free] for i in free]
    v = [[int(i == j) for j in range(k)] for i in range(k)]
    for t in range(k):
        while True:
            _, i, j = min(
                (abs(a[i][j]), i, j) for i in range(t, k) for j in range(t, k) if a[i][j]
            )
            a[t], a[i] = a[i], a[t]
            for row in a + v:
                row[t], row[j] = row[j], row[t]
            p = a[t][t]
            for i in range(t + 1, k):
                q = a[i][t] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, k):
                q = a[t][j] // p
                if q:
                    for row in a + v:  # column j -= q column t, in M and V
                        row[j] -= q * row[t]
            if any(a[i][t] for i in range(t + 1, k)) or any(a[t][t + 1 :]):
                continue  # a remainder below |p|: pivot on it
            bad = next(
                (i for i in range(t + 1, k) if any(x % p for x in a[i][t + 1 :])), None
            )
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]  # fold in a row p does not divide

    big = [t for t in range(k) if abs(a[t][t]) > 1]
    factors = tuple(abs(a[t][t]) for t in big)
    image_of_free = {j: [v[f][t] for t in big] for f, j in enumerate(free)}
    images = []
    for i, row in enumerate(basis):
        image = image_of_free.get(i)
        if image is None:
            image = [
                -sum(row[j] * image_of_free[j][c] for j in free if j < i)
                for c in range(len(big))
            ]
        images.append(tuple(x % s for x, s in zip(image, factors)))
    return factors, tuple(images)


def graded_positive_points_in_difference_body(
    lattice: IntegerLattice, d: int
) -> list[tuple[int, ...]]:
    """Graded-positive lattice vectors v whose positive coordinates sum to
    at most d and whose negative coordinates sum to at least -d.

    The body holds the differences of two points of the radius-d simplex.
    The walk takes integer combinations of the HNF rows from the last row to
    the first, depth first over one coordinate list.  Rows below i have no
    entry in column i, so choosing the coefficient z of row i pins
    coordinate i.  With ``pos`` and ``neg`` the positive and negative sums of
    the coordinates already pinned, coordinate i ranges over
    ``[-(d - neg), d - pos]``.  The ranges are exact and the enumeration is
    complete.  Only lattice vectors are visited, and a tuple is built only
    for a completed vector.

    The walk covers half the body:

    1. the body is symmetric under v -> -v, as negation swaps the positive
       and negative coordinate sums, and so is L;
    2. so of each pair v, -v of nonzero body vectors, exactly one has its
       highest-index nonzero coordinate positive, and the walk keeps only
       that one;
    3. coordinate j is ``a + z * row[j][j]``, where a collects the rows
       after j, already chosen.  Every pinned coordinate is 0 exactly when
       every z so far is 0: if some z is not, the last row with one pins its
       coordinate to z times the diagonal, with a = 0.  So while every z so
       far is 0, coordinate i has the sign of z, and the walk takes z >= 0.
       The first positive z makes coordinate i the highest-index nonzero
       one, and positive; after it the walk is unrestricted.  The vector
       with every z equal to 0 is 0, and is skipped.

    Each kept vector v is then emitted as whichever of v and -v is
    graded-positive: coordinate sum above zero, or zero sum with the first
    nonzero coordinate positive, which for nonzero v is ``v > (0,) * n`` in
    tuple order.  So every graded-positive vector of the body appears
    exactly once.
    """
    n = lattice.dim
    basis = lattice.basis
    # per row, the columns left of the diagonal where it has an entry
    heads = [[(j, b) for j, b in enumerate(row[:i]) if b] for i, row in enumerate(basis)]
    found: list[tuple[int, ...]] = []
    acc = [0] * n

    def walk(i: int, pos: int, neg: int, origin: bool) -> None:
        step = basis[i][i]
        a = acc[i]
        lo = 0 if origin else -((d - neg + a) // step)
        hi = (d - pos - a) // step
        if lo > hi:
            return
        if i == 0:
            total = pos - neg
            for z in range(1 if origin else lo, hi + 1):  # origin: skip v = 0
                x = a + z * step
                acc[0] = x
                v = tuple(acc)
                s = total + x
                if s > 0 or (s == 0 and v > (0,) * n):
                    found.append(v)
                else:
                    found.append(tuple([-c for c in v]))
            acc[0] = a
            return
        head = heads[i]
        for j, b in head:
            acc[j] += lo * b
        for z in range(lo, hi + 1):
            x = a + z * step
            acc[i] = x
            if x > 0:
                walk(i - 1, pos + x, neg, origin and not z)
            else:
                walk(i - 1, pos, neg - x, origin and not z)
            for j, b in head:
                acc[j] += b
        for j, b in head:
            acc[j] -= (hi + 1) * b
        acc[i] = a

    if d >= 0:
        walk(n - 1, 0, 0, True)
    # walk refers to itself through its closure; dropping the name frees the
    # closure now rather than at the next garbage collection
    del walk
    return found


def same_coset(lattice: IntegerLattice, x: Sequence[int], y: Sequence[int]) -> bool:
    """True iff ``x - y`` is a lattice vector."""
    return reduce_mod(lattice, x) == reduce_mod(lattice, y)


def divisors(m: int) -> list[int]:
    """Positive divisors of m in ascending order."""
    small, large = [], []
    i = 1
    while i * i <= m:
        if m % i == 0:
            small.append(i)
            if i != m // i:
                large.append(m // i)
        i += 1
    return small + large[::-1]


def enumerate_sublattices(n: int, index: int) -> Iterator[IntegerLattice]:
    """All canonical HNF sublattices of Z^n with the given index.

    Yields each lattice exactly once, ordered lexicographically by the
    flattened basis matrix.  For n = 2 the count equals the sum of divisors
    of the index.
    """
    if n < 1 or index < 1:
        raise ValueError("need n >= 1 and index >= 1")

    def rec(i: int, remaining: int, rows: list[tuple[int, ...]], diag: list[int]):
        if i == n - 1:
            for prefix in product(*(range(d) for d in diag)):
                yield IntegerLattice(n, tuple(rows + [prefix + (remaining,)]))
            return
        for prefix in product(*(range(d) for d in diag)):
            for d in divisors(remaining):
                row = prefix + (d,) + (0,) * (n - i - 1)
                yield from rec(i + 1, remaining // d, rows + [row], diag + [d])

    yield from rec(0, index, [], [])


def count_sublattices(n: int, index: int) -> int:
    """Number of sublattices of Z^n with the given index, i.e. how many
    ``enumerate_sublattices`` yields.

    A first diagonal entry e leaves e choices for each of the n-1 entries
    below it, so count(n, m) = sum over e | m of e^(n-1) count(n-1, m/e),
    with count(1, m) = 1.
    """
    if n < 1 or index < 1:
        raise ValueError("need n >= 1 and index >= 1")
    divs = {x: divisors(x) for x in divisors(index)}
    counts = dict.fromkeys(divs, 1)
    for k in range(1, n):
        counts = {x: sum(e**k * counts[x // e] for e in ds) for x, ds in divs.items()}
    return counts[index]


def lattice_to_json_dict(lattice: IntegerLattice) -> dict:
    return {"n": lattice.dim, "basis": [list(row) for row in lattice.basis]}


def lattice_from_json_dict(obj: dict) -> IntegerLattice:
    """Parse the lattice text format; normalizes any generating set to HNF."""
    try:
        n = obj["n"]
        rows = obj["basis"]
    except (KeyError, TypeError) as exc:
        raise ValueError("lattice JSON must have keys 'n' and 'basis'") from exc
    lattice = hnf_normalize(rows)
    # JSON's true and false pass operator.index as 1 and 0
    if isinstance(n, bool) or any(isinstance(v, bool) for row in rows for v in row):
        raise TypeError("lattice JSON holds a boolean where an integer belongs")
    if lattice.dim != operator.index(n):
        raise DimensionMismatch(f"basis rows have length {lattice.dim}, not {n}")
    return lattice
