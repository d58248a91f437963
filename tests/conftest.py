"""Shared oracles and corpus builders for the test suite.

Everything here is deliberately independent of the package's own code
paths: determinants by Laplace expansion, diameters by breadth-first
search over coset residues, tiles by the graded-lex walk of the whole
orthant, notch candidates by a direct scan of the definition, continuous
coverings by the grid falsifier that enumerates candidate lattice vectors
in a box for every grid point, difference-tile vectors by reducing every
point of the cube, and region integrals by exact integration over the
polytope their inequalities cut out.  Tests compare package output
against these.
"""

import itertools
import math
import random
from collections import deque
from fractions import Fraction
from itertools import product

from hypothesis import strategies as st

from cayleycover import (
    DimensionMismatch,
    IntegerLattice,
    enumerate_orthant_prec,
    hnf_normalize,
    reduce_mod,
)
from cayleycover.lattices import divisors


def det_laplace(rows):
    """Exact determinant by cofactor expansion (oracle for small n)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[r[k] for k in range(n) if k != j] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_laplace(minor)
    return total


def sigma_divisors(m):
    """Sum of divisors by trial division."""
    return sum(divisors(m))


def random_full_rank_matrix(rng, n, span=9):
    while True:
        rows = [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
        if det_laplace(rows) != 0:
            return rows


def unimodular_mix(rng, rows, steps=12):
    """Apply random elementary integer row operations (det is +-1 overall)."""
    rows = [list(r) for r in rows]
    n = len(rows)
    for _ in range(steps):
        op = rng.randrange(3)
        if n == 1:
            rows[0] = [-v for v in rows[0]]
            continue
        i, j = rng.sample(range(n), 2)
        if op == 0:
            rows[i], rows[j] = rows[j], rows[i]
        elif op == 1:
            rows[i] = [-v for v in rows[i]]
        else:
            c = rng.randint(-3, 3)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


def random_hnf(rng, n, max_index):
    """Random canonical lattice with index at most max_index."""
    m = rng.randint(1, max_index)
    diag = []
    rem = m
    for _ in range(n - 1):
        d = rng.choice(divisors(rem))
        diag.append(d)
        rem //= d
    diag.append(rem)
    rows = []
    for i in range(n):
        row = [rng.randrange(diag[j]) for j in range(i)] + [diag[i]] + [0] * (n - i - 1)
        rows.append(tuple(row))
    return IntegerLattice(n, tuple(rows))


@st.composite
def hnfs(draw, n, max_index):
    """Hypothesis strategy: canonical lattices of dimension n and index at
    most max_index, drawn like :func:`random_hnf`."""
    rest = draw(st.integers(1, max_index))
    diag = []
    for _ in range(n - 1):
        d = draw(st.sampled_from(divisors(rest)))
        diag.append(d)
        rest //= d
    diag.append(rest)
    rows = [
        tuple(draw(st.integers(0, diag[j] - 1)) for j in range(i))
        + (diag[i],) + (0,) * (n - i - 1)
        for i in range(n)
    ]
    return IntegerLattice(n, tuple(rows))


# diagonals whose quotients are not cyclic, some with a diagonal 1 between
# the factors and some with three factors sharing a prime; and det 1 at
# n = 1 and 6
NONCYCLIC_DIAGONALS = [
    (2, 2, 6), (4, 1, 8, 3), (2, 4, 6), (3, 3, 3), (2, 2, 2, 2),
    (1, 2, 1, 2, 1, 6), (1, 3, 1, 1, 3, 2), (1,), (1,) * 6,
]


def mix_columns(diag, ops):
    """The lattice spanned by the rows of diag(d) V, V the product of the
    elementary column operations ``ops``: (i, j, 0) swaps columns i and j,
    and (i, j, c) with i != j adds c times column i to column j.  V is
    unimodular, so Z^n/L is Z/d_1 + ... + Z/d_n whatever V is, while the
    HNF varies."""
    n = len(diag)
    rows = [[d if j == i else 0 for j in range(n)] for i, d in enumerate(diag)]
    for i, j, c in ops:
        for r in rows:
            if c == 0:
                r[i], r[j] = r[j], r[i]
            elif i != j:
                r[j] += c * r[i]
    return hnf_normalize(rows)


@st.composite
def mixed_diagonals(draw, diagonals=NONCYCLIC_DIAGONALS):
    """Hypothesis strategy: :func:`mix_columns` of a diagonal drawn from
    ``diagonals`` and up to 8 column operations with c in [-2, 2]."""
    diag = draw(st.sampled_from(diagonals))
    n = len(diag)
    ops = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2))
    return mix_columns(diag, draw(st.lists(ops, max_size=8)))


def make_corpus(seed, spec):
    """Deterministic lattice corpus; spec is [(n, max_index, count), ...]."""
    rng = random.Random(seed)
    corpus = []
    for n, max_index, count in spec:
        for _ in range(count):
            corpus.append(random_hnf(rng, n, max_index))
    return corpus


def bfs_quotient_diameter(lattice):
    """Diameter of the quotient digraph with the standard generators."""
    n = lattice.dim
    start = reduce_mod(lattice, (0,) * n)
    dist = {start: 0}
    queue = deque([start])
    diameter = 0
    while queue:
        u = queue.popleft()
        du = dist[u]
        for i in range(n):
            step = list(u)
            step[i] += 1
            r = reduce_mod(lattice, step)
            if r not in dist:
                dist[r] = du + 1
                diameter = max(diameter, du + 1)
                queue.append(r)
    assert len(dist) == lattice.det
    return diameter


def brute_tile(lattice):
    """The tile by its definition: walk the orthant in graded-lex order and
    keep the first point of every coset, in the order met."""
    first = {}
    for p in enumerate_orthant_prec(lattice.dim):
        first.setdefault(reduce_mod(lattice, p), p)
        if len(first) == lattice.det:
            return tuple(first.values())


def brute_notch_candidates(points, n):
    """Direct scan of the notch-candidate definition; returns (all, minimal)."""
    pts = set(points)
    maxes = [max(p[i] for p in pts) for i in range(n)]
    candidates = []
    for p in itertools.product(*(range(m + 2) for m in maxes)):
        if p in pts:
            continue
        dominated_everywhere = all(
            any(all(t[j] >= p[j] for j in range(n) if j != axis) for t in pts)
            for axis in range(n)
        )
        if dominated_everywhere:
            candidates.append(p)
    minimal = [
        c
        for c in candidates
        if not any(
            o != c and all(oj <= cj for oj, cj in zip(o, c)) for o in candidates
        )
    ]
    return candidates, minimal


def simplex_points_brute(n, d):
    """All orthant points with coordinate sum at most d, by raw product."""
    return {
        p for p in itertools.product(range(d + 1), repeat=n) if sum(p) <= d
    }


def graded_positive(v):
    """Coordinate sum above zero, or zero sum with the first nonzero
    coordinate positive."""
    s = sum(v)
    nonzero = [a for a in v if a]
    return s > 0 or (s == 0 and bool(nonzero) and nonzero[0] > 0)


def difference_body_by_cube(lattice, d):
    """Lattice vectors in [-d, d]^n whose positive coordinates sum to at
    most d and whose negative coordinates sum to at least -d, by reducing
    every cube point."""
    n = lattice.dim
    return {
        p for p in itertools.product(range(-d, d + 1), repeat=n)
        if reduce_mod(lattice, p) == (0,) * n
        and sum(a for a in p if a > 0) <= d
        and sum(-a for a in p if a < 0) <= d
    }


def check_graded_positive_half(found, lattice, d):
    """``found`` is the graded-positive half of the difference body: with
    its negatives and 0 it is the cube's body, it holds no vector twice and
    no v together with -v, and every vector in it is graded-positive."""
    n = lattice.dim
    kept = set(found)
    negatives = {tuple(-a for a in v) for v in found}
    assert len(kept) == len(found)
    assert not kept & negatives
    assert all(graded_positive(v) for v in found)
    origin = {(0,) * n} if d >= 0 else set()
    assert kept | negatives | origin == difference_body_by_cube(lattice, d)


def _lattice_points_in_box(lattice, lo, hi, min_sum):
    """Lattice vectors v with lo <= v <= hi componentwise (rational bounds),
    leaving out only vectors whose coordinate sum is below ``min_sum``.

    Walks integer combinations of the HNF rows back to front; each step pins
    one coordinate, so the ranges are exact and the enumeration complete.
    The coordinates still to be pinned are at most hi, so a step that
    leaves the sum unable to reach min_sum is not taken.  v is integral, so
    every bound is first rounded inward to an integer.
    """
    n = lattice.dim
    basis = lattice.basis
    lo = [math.ceil(a) for a in lo]
    hi = [math.floor(b) for b in hi]
    # what coordinate i must reach, less the sum of those pinned before it
    need = [math.ceil(min_sum) - sum(hi[:i]) for i in range(n)]

    def rec(i: int, acc: list, pinned: int):
        if i < 0:
            yield tuple(acc)
            return
        d = basis[i][i]
        zlo = -((acc[i] - max(lo[i], need[i] - pinned)) // d)
        zhi = (hi[i] - acc[i]) // d
        # descending: vectors close to the upper corner come out first,
        # which lets covering queries succeed after a few candidates
        for z in range(zhi, zlo - 1, -1):
            nxt = [acc[j] + z * basis[i][j] for j in range(n)]
            yield from rec(i - 1, nxt, pinned + nxt[i])

    yield from rec(n - 1, [0] * n, 0)


def grid_cover_falsify(n, D, lattice, resolution=4):
    """Search one fundamental box for a point no simplex translate covers.

    Scans the grid (1/resolution) * Z^n inside the fundamental box.  A point
    p is covered iff some lattice vector v satisfies p - v >= 0 with
    coordinate sum at most D; candidate vectors live in the box
    [p_i - D, p_i]^n.  Returns the lexicographically first uncovered sample,
    or None.  None is evidence of covering, a witness is a proof of
    non-covering.
    """
    if lattice.dim != n:
        raise DimensionMismatch(f"lattice has dimension {lattice.dim}, not {n}")
    if resolution < 1:
        raise ValueError("resolution must be a positive integer")
    D = Fraction(D)
    diag = lattice.diagonal
    for t in product(*(range(resolution * diag[i]) for i in range(n))):
        p = tuple(Fraction(ti, resolution) for ti in t)
        if not grid_point_covered(p, D, lattice):
            return p
    return None


def grid_point_covered(p, D: Fraction, lattice):
    lo = [pi - D for pi in p]
    for v in _lattice_points_in_box(lattice, lo, p, sum(p) - D):
        if all(pi >= vi for pi, vi in zip(p, v)) and sum(p) - sum(v) <= D:
            return True
    return False


def polytope_integral(halfspaces, f):
    """Exact integral of the affine ``f`` over the bounded polytope
    {x in R^3 : a.x <= b for every (a, b) in ``halfspaces``}, in Fraction.

    The vertices are the feasible points where three independent planes
    meet.  A facet is the set of vertices on one plane, taken once however
    many halfspaces share the plane, and two vertices span an edge of a
    facet when another facet holds both.  Coning each facet's edges to the
    facet's centroid and then to the centroid c of all the vertices cuts
    the polytope into tetrahedra, on each of which the integral of an
    affine f is the volume times f at the tetrahedron's centroid.
    """
    def dot(a, x):
        return sum(ai * xi for ai, xi in zip(a, x))

    def centroid(points):
        return tuple(sum(p[j] for p in points) / len(points) for j in range(3))

    vertices = set()
    for trio in itertools.combinations(halfspaces, 3):
        det = det_laplace([a for a, _ in trio])
        if det == 0:
            continue
        point = tuple(  # Cramer's rule
            Fraction(det_laplace([[b if k == j else a[k] for k in range(3)] for a, b in trio]), det)
            for j in range(3)
        )
        if all(dot(a, point) <= b for a, b in halfspaces):
            vertices.add(point)
    if len(vertices) < 4:
        return Fraction(0)
    c = centroid(vertices)
    planes = {frozenset(p for p in vertices if dot(a, p) == b) for a, b in halfspaces}
    facets = [face for face in planes if len(face) >= 3]
    total = Fraction(0)
    for face in facets:
        g = centroid(face)
        for p, q in itertools.combinations(face, 2):
            if any(other != face and p in other and q in other for other in facets):
                volume = abs(det_laplace([[x[j] - c[j] for j in range(3)] for x in (g, p, q)])) / 6
                total += volume * f(centroid((c, g, p, q)))
    return total


def far_facet_region(d):
    """The halfspaces of the no-notch region
    {x >= 0, sum(x) <= d, d - sum(x) <= x_i}, as (a, b) for a.x <= b."""
    axes = [tuple(int(k == i) for k in range(3)) for i in range(3)]
    return (
        [(tuple(-a for a in e), 0) for e in axes]
        + [((1, 1, 1), d)]
        + [(tuple(-1 - a for a in e), -d) for e in axes]
    )


def notch_pocket(d, v):
    """The halfspaces of the pocket {x_i >= v, d - sum(x) >= v}."""
    axes = [tuple(int(k == i) for k in range(3)) for i in range(3)]
    return [(tuple(-a for a in e), -v) for e in axes] + [((1, 1, 1), d - v)]
