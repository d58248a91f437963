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


def lattice_points_in_difference_body(
    lattice: IntegerLattice, d: int
) -> list[tuple[int, ...]]:
    """Lattice vectors v whose positive coordinates sum to at most d and
    whose negative coordinates sum to at least -d.

    These are the differences of two points of the radius-d simplex.  Walks
    integer combinations of the HNF rows from the last row to the first,
    one row per pass over the partial vectors.  Rows below i have no entry
    in column i, so choosing the coefficient of row i pins coordinate i;
    with ``pos`` and ``neg`` the positive and negative sums of the
    coordinates already pinned, coordinate i ranges over
    ``[-(d - neg), d - pos]``.  The ranges are exact and the enumeration
    complete, and only lattice vectors are ever visited.
    """
    n = lattice.dim
    partial = [((0,) * n, 0, 0)]
    for i in range(n - 1, -1, -1):
        row = lattice.basis[i]
        step, head = row[i], row[:i]
        pinned = []
        for acc, pos, neg in partial:
            a, tail = acc[i], acc[i + 1 :]
            for z in range(-((d - neg + a) // step), (d - pos - a) // step + 1):
                x = a + z * step
                pinned.append((
                    tuple([c + z * b for c, b in zip(acc, head)]) + (x,) + tail,
                    pos + x if x > 0 else pos,
                    neg - x if x < 0 else neg,
                ))
        partial = pinned
    return [v for v, _, _ in partial]


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
    if lattice.dim != operator.index(n):
        raise DimensionMismatch(f"basis rows have length {lattice.dim}, not {n}")
    return lattice
