"""Shared oracles and corpus builders for the test suite.

Everything here is deliberately independent of the package's own code
paths: determinants by Laplace expansion, diameters by breadth-first
search over coset residues, notch candidates by a direct scan of the
definition, continuous coverings by the grid falsifier that enumerates
candidate lattice vectors in a box for every grid point, difference-tile
vectors by reducing every point of the cube.  Tests compare package output
against these.
"""

import itertools
import math
import random
from collections import deque
from fractions import Fraction
from itertools import product

from cayleycover import DimensionMismatch, IntegerLattice, reduce_mod
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


def cube_positive_lattice_vectors(lattice, d):
    """Graded-positive lattice vectors in [-d, d]^n, by reducing every cube
    point."""
    n = lattice.dim
    out = set()
    for p in itertools.product(range(-d, d + 1), repeat=n):
        if reduce_mod(lattice, p) != (0,) * n:
            continue
        s = sum(p)
        nonzero = [a for a in p if a]
        if s > 0 or (s == 0 and nonzero and nonzero[0] > 0):
            out.add(p)
    return out


def _lattice_points_in_box(lattice, lo, hi):
    """Lattice vectors v with lo <= v <= hi componentwise (rational bounds).

    Walks integer combinations of the HNF rows back to front; each step pins
    one coordinate, so the ranges are exact and the enumeration complete.
    """
    n = lattice.dim
    basis = lattice.basis

    def rec(i: int, acc: list):
        if i < 0:
            yield tuple(acc)
            return
        d = basis[i][i]
        zlo = math.ceil(Fraction(lo[i] - acc[i], d))
        zhi = math.floor(Fraction(hi[i] - acc[i], d))
        # descending: vectors close to the upper corner come out first,
        # which lets covering queries succeed after a few candidates
        for z in range(zhi, zlo - 1, -1):
            nxt = [acc[j] + z * basis[i][j] for j in range(n)]
            yield from rec(i - 1, nxt)

    yield from rec(n - 1, [0] * n)


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
    for v in _lattice_points_in_box(lattice, lo, p):
        if all(pi >= vi for pi, vi in zip(p, v)) and sum(p) - sum(v) <= D:
            return True
    return False
