"""Reference checks for the benchmark, written from the definitions.

Nothing here imports the package: cosets are reduced by back-substitution
through the HNF rows, tile facts come from a breadth-first search over the
quotient group, and continuous coverings are decided through the coset
distances.  The benchmark compares every package output against these.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from itertools import product

# Exhaustive search results at the commit that defined this benchmark:
# (n, d) -> (f(n, d), lexicographically least witness basis).  An exact
# search must keep both; n = 2 is also checked against the closed form.
EXPECTED_SEARCH = {
    (2, 16): (108, ((18, 0), (6, 6))),
    (3, 1): (4, ((2, 0, 0), (0, 2, 0), (1, 1, 1))),
    (3, 2): (9, ((3, 0, 0), (0, 3, 0), (1, 2, 1))),
    (3, 3): (16, ((4, 0, 0), (0, 4, 0), (1, 1, 1))),
    (3, 4): (27, ((9, 0, 0), (1, 3, 0), (4, 1, 1))),
    (4, 1): (5, ((5, 0, 0, 0), (1, 1, 0, 0), (2, 0, 1, 0), (3, 0, 0, 1))),
    (4, 2): (13, ((13, 0, 0, 0), (1, 1, 0, 0), (5, 0, 1, 0), (8, 0, 0, 1))),
    (5, 1): (
        6,
        (
            (2, 0, 0, 0, 0),
            (0, 3, 0, 0, 0),
            (0, 1, 1, 0, 0),
            (1, 1, 0, 1, 0),
            (1, 2, 0, 0, 1),
        ),
    ),
}


def f2_closed_form(d: int) -> int:
    """Largest quotient order for two generators: floor((d+2)^2 / 3)."""
    return (d + 2) ** 2 // 3


def expected_f(n: int, d: int) -> int:
    if n == 2:
        return f2_closed_form(d)
    return EXPECTED_SEARCH[(n, d)][0]


def paper_cap(n: int, d: int) -> Fraction:
    """((d+n)^n / (n n!)) (n-1 + ((n-1)/(2n-1))^(n-1))."""
    factor = (n - 1) + Fraction(n - 1, 2 * n - 1) ** (n - 1)
    return Fraction((d + n) ** n, n * math.factorial(n)) * factor


def det(basis) -> int:
    return math.prod(basis[i][i] for i in range(len(basis)))


def reduce(basis, x) -> tuple:
    """Representative of x + L in the box [0, diag_0) x ... x [0, diag_n-1)."""
    r = list(x)
    for i in range(len(basis) - 1, -1, -1):
        q = r[i] // basis[i][i]
        if q:
            row = basis[i]
            for j in range(i + 1):
                r[j] -= q * row[j]
    return tuple(r)


def coset_distances(basis) -> dict:
    """Shortest word length of every coset, by BFS with the unit generators."""
    n = len(basis)
    start = (0,) * n
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for i in range(n):
            step = list(u)
            step[i] += 1
            r = reduce(basis, step)
            if r not in dist:
                dist[r] = du + 1
                queue.append(r)
    return dist


def diameter(basis) -> int:
    return max(coset_distances(basis).values())


def _shell(s: int, n: int):
    """Nonnegative n-tuples with sum s, in lexicographic order."""
    if n == 1:
        yield (s,)
        return
    for a in range(s + 1):
        for rest in _shell(s - a, n - 1):
            yield (a,) + rest


def notch_box(basis, dist) -> int:
    """Points of the box [0, axis max + 1]^n over the tile's axis maxima.

    The tile holds the first point of each coset in graded-lex order (norm,
    then lex); each such point is a shortest word, so a shell of norm s
    only adds points of cosets at distance s.
    """
    n = len(basis)
    seen, maxes = set(), [0] * n
    for s in range(max(dist.values()) + 1):
        for p in _shell(s, n):
            r = reduce(basis, p)
            if dist[r] == s and r not in seen:
                seen.add(r)
                maxes = [max(a, b) for a, b in zip(maxes, p)]
    return math.prod(a + 2 for a in maxes)


def is_canonical_hnf(basis) -> bool:
    """Lower triangular, positive diagonal, entries below it in [0, diag)."""
    n = len(basis)
    return all(
        len(row) == n
        and row[i] > 0
        and all(v == 0 for v in row[i + 1 :])
        and all(0 <= row[j] < basis[j][j] for j in range(i))
        for i, row in enumerate(basis)
    )


def hnf_bases(n: int, m: int):
    """Every canonical HNF basis of index m, in no particular order."""

    def diagonals(i, rest):
        if i == n - 1:
            yield (rest,)
            return
        for a in range(1, rest + 1):
            if rest % a == 0:
                for tail in diagonals(i + 1, rest // a):
                    yield (a,) + tail

    for diag in diagonals(0, m):
        ranges = [range(diag[j]) for i in range(n) for j in range(i)]
        for below in product(*ranges):
            rows, k = [], 0
            for i in range(n):
                row = list(below[k : k + i]) + [diag[i]] + [0] * (n - i - 1)
                k += i
                rows.append(tuple(row))
            yield tuple(rows)


def random_hnf(rng, n: int, m: int) -> tuple:
    """A random canonical HNF basis of index m."""
    diag, rest = [], m
    for _ in range(n - 1):
        a = rng.choice([a for a in range(1, rest + 1) if rest % a == 0])
        diag.append(a)
        rest //= a
    diag.append(rest)
    return tuple(
        tuple([rng.randrange(diag[j]) for j in range(i)] + [diag[i]] + [0] * (n - i - 1))
        for i in range(n)
    )


def generating_set(rng, basis) -> list:
    """The same lattice as a scrambled, redundant generating set."""
    rows = [list(r) for r in basis]
    n = len(rows)
    for _ in range(3 * n):
        if n == 1:
            break
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    extra = [a - b for a, b in zip(rows[0], rows[-1])]
    return rows + [extra]


def tile_problems(basis, dist, points, diam) -> list:
    """Why ``points`` is not the Cayley tile of the lattice, if it is not.

    A tile holds one point per coset, is downward closed, and each point is
    a shortest word for its coset, so its norm is the coset distance.
    """
    problems = []
    n = len(basis)
    pts = [tuple(p) for p in points]
    pset = set(pts)
    if len(pts) != det(basis) or len(pset) != len(pts):
        problems.append(f"tile has {len(pts)} points for det {det(basis)}")
    if {reduce(basis, p) for p in pts} != set(dist):
        problems.append("tile misses a coset")
    for p in pts:
        if min(p) < 0 or sum(p) != dist.get(reduce(basis, p)):
            problems.append(f"tile point {p} is not a shortest coset word")
            break
        for i in range(n):
            if p[i] > 0 and p[:i] + (p[i] - 1,) + p[i + 1 :] not in pset:
                problems.append(f"tile is not downward closed at {p}")
                break
    true_diam = max(dist.values())
    if diam != true_diam:
        problems.append(f"diameter {diam}, BFS says {true_diam}")
    return problems


def first_uncovered(basis, dist, D: int, resolution: int):
    """First point of (1/resolution) Z^n in the fundamental box, in lex
    order, that no translate of the solid radius-D simplex covers.

    A point p = z + t with z integral and t in [0,1)^n is covered iff some
    lattice vector v has v <= z and sum(z - v) + sum(t) <= D, i.e. iff the
    distance of the coset of z plus sum(t) is at most D.
    """
    n = len(basis)
    r = resolution
    for t in product(*(range(r * basis[i][i]) for i in range(n))):
        z = [ti // r for ti in t]
        frac = sum(ti % r for ti in t)
        if r * dist[reduce(basis, z)] + frac > r * D:
            return tuple(Fraction(ti, r) for ti in t)
    return None
