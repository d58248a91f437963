"""Cayley tiles of Z^n: the graded order, tile construction, and structure.

Points of the nonnegative orthant are ordered by Manhattan norm (sum of
coordinates) with lexicographic tie-breaking.  Scanning the orthant in this
order and keeping the first point of every coset of a sublattice yields a
complete set of coset representatives, the tile.  Its largest norm equals
the diameter of the Cayley digraph of the quotient group with the standard
generators, which is what the covering and search modules consume.

The scan (``_scan``) is one frontier scan in Python integers, with no size
limit: it grows each shell of the tile from the one before and keeps one
set of seen coset residues.  It builds every tile and is the oracle for the
search's batched fit test, which counts residues of the radius-d simplex in
numpy (see ``search``).  Here numpy is imported only by
``tile_from_difference``, for its cone mask, so a tile or covering query
never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import count, islice
from typing import Iterator, Optional, Sequence

from .errors import MultipleMinimalNotches, NotACovering
from .lattices import IntegerLattice, lattice_points_in_difference_body, reduce_mod

Point = tuple[int, ...]


def kernel_backend() -> str:
    """Name of the kernel behind the search's fit test."""
    return "numpy"


def _scan(lattice: IntegerLattice, prune: Optional[int]) -> Optional[tuple[Point, ...]]:
    """Graded-lex scan of the nonnegative orthant, one point per coset.

    Returns the tile, the first point of every coset in graded-lex order,
    in that order; with ``prune`` not None, returns None instead as soon
    as the tile is seen to have a point of norm above ``prune``.

    The scan grows the tile one shell of constant norm at a time: the
    candidates for shell s are the points ``t + e_i`` for t a tile point of
    shell s - 1 (the origin for shell 0), taken in lexicographic order, and
    it keeps each candidate whose coset (``reduce_mod`` residue) is new.
    This is the graded-lex scan of the whole orthant, because

    1. the tile T is downward closed: let q <= p componentwise with q not
       in T, and let q' be the point of T in q's coset, which precedes q.
       The order is compatible with addition, so ``q' + (p - q)`` is a
       point of the orthant in p's coset that precedes p, and p is not in
       T;
    2. so every tile point p of shell s >= 1 is a candidate: ``p - e_i``
       lies in T for any i with p_i > 0.  By induction on s, the cosets
       seen before shell s are those whose tile point has norm below s.  A
       candidate of shell s whose coset is new therefore has its coset's
       tile point in shell s, and the lexicographically first such
       candidate is that tile point, as all other points of the coset in
       shell s follow it;
    3. a shell that adds no point while cosets are missing would leave T
       with no point of that norm and hence, by 1, none above it, although
       T has a point in every coset.  It cannot happen for a correct
       ``reduce_mod`` and raises ``RuntimeError``.
    """
    n = lattice.dim
    det = lattice.det
    seen = set()
    points: list[Point] = []
    shell = [(0,) * n]
    for s in count(0):
        if prune is not None and s > prune:
            return None
        first = len(points)
        for p in shell:
            r = reduce_mod(lattice, p)
            if r not in seen:
                seen.add(r)
                points.append(p)
                if len(points) == det:
                    return tuple(points)
        if len(points) == first:
            raise RuntimeError(f"tile scan found no new coset in shell {s}")
        shell = sorted(
            {t[:i] + (t[i] + 1,) + t[i + 1 :] for t in points[first:] for i in range(n)}
        )


def prec_key(p: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Sort key realizing the graded-lex order on the orthant."""
    return (sum(p), tuple(p))


def _compositions(total: int, n: int) -> Iterator[Point]:
    """Nonnegative n-tuples with the given sum, in lexicographic order."""
    c = [0] * n
    c[n - 1] = total
    while True:
        yield tuple(c)
        p = n - 1
        while p >= 0 and c[p] == 0:
            p -= 1
        if p <= 0:
            return
        rest = c[p] - 1
        c[p] = 0
        c[p - 1] += 1
        c[n - 1] = rest


def enumerate_orthant_prec(n: int) -> Iterator[Point]:
    """All points of the nonnegative orthant in strictly increasing order.

    Emits shells of constant norm, each shell lexicographically; the first
    C(d+n, n) points are exactly the discrete simplex of radius d.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    for s in count(0):
        yield from _compositions(s, n)


@dataclass(frozen=True)
class CayleyTile:
    """Coset representatives of a sublattice, in scan order."""

    dim: int
    points: tuple[Point, ...]
    m_diameter: int
    source_lattice: IntegerLattice

    @cached_property
    def point_set(self) -> frozenset[Point]:
        return frozenset(self.points)

    @cached_property
    def notch(self) -> Optional[Point]:
        """The tile's notch (see :func:`find_notch`), found on first use."""
        return find_notch(self)

    def __len__(self) -> int:
        return len(self.points)


def build_tile(lattice: IntegerLattice) -> CayleyTile:
    """Scan the orthant and keep the first point of each coset.

    The result has exactly ``det`` points, is downward closed, and its
    largest norm equals the diameter of the quotient Cayley digraph.
    """
    points = _scan(lattice, None)
    diameter = sum(points[-1])  # the scan ends on the largest norm
    return CayleyTile(
        dim=lattice.dim, points=points, m_diameter=diameter, source_lattice=lattice
    )


def fits_diameter(lattice: IntegerLattice, d: int) -> bool:
    """True iff the tile of the lattice has M-diameter at most d."""
    return _scan(lattice, d) is not None


def find_notch(tile: CayleyTile) -> Optional[Point]:
    """Unique minimal point outside the tile whose projections are all
    silhouette-dominated, or None when no such point exists.

    Write T for the tile and C for the candidates: p is in C iff p is not
    in T and, for every axis i, p with coordinate i set to 0 lies in T (T
    is downward closed, so the axis-i silhouette is the set of points of T
    with coordinate i zero).  Then

    1. every p in C has all coordinates >= 1: if p_i = 0, zeroing
       coordinate i leaves p, which is not in T;
    2. if p is in C and p - e_k is not in T, then p - e_k is in C (each of
       its zeroed points lies below the matching one of p), so a minimal
       element of C is an outer corner: p not in T and p - e_k in T for
       every k (which needs every coordinate >= 1, as T is in the orthant);
    3. an outer corner is in C, since zeroing coordinate k gives a point
       below p - e_k; and it is minimal in C, since any q < p lies below
       some p - e_k and so in T;
    4. every outer corner p is ``t + e_0`` for a tile point t: p_0 >= 1 by
       2, and t = p - e_0 is in T.

    The minimal candidates are therefore exactly the outer corners, all found
    by walking ``p = t + e_0`` over T and checking ``p - e_k`` in T for
    k = 1..n-1, with O(|T| n) set lookups.  Raises
    :class:`MultipleMinimalNotches` when there are several, which would
    contradict the single-notch structure of lattice tiles.
    """
    n = tile.dim
    points = tile.point_set
    minimal = set()
    for t in tile.points:
        p = (t[0] + 1,) + t[1:]
        if p not in points and all(
            p[:k] + (p[k] - 1,) + p[k + 1 :] in points for k in range(1, n)
        ):
            minimal.add(p)
    if not minimal:
        return None
    if len(minimal) != 1:
        ordered = sorted(minimal, key=prec_key)
        raise MultipleMinimalNotches(
            f"{len(ordered)} minimal notch candidates: {ordered[:4]}"
        )
    return minimal.pop()


def is_tiling(points, lattice: IntegerLattice) -> bool:
    """True iff the points are one representative of every coset."""
    pts = list(points)
    if len(pts) != lattice.det:
        return False
    residues = {reduce_mod(lattice, p) for p in pts}
    return len(residues) == len(pts)


def _graded_positive(v: Sequence[int]) -> bool:
    """Positivity in the graded order extended to Z^n.

    Positive means coordinate sum above zero, or zero sum with the first
    nonzero coordinate positive; exactly one of v, -v is positive for every
    nonzero v.
    """
    s = sum(v)
    if s != 0:
        return s > 0
    for a in v:
        if a:
            return a > 0
    return False


def tile_from_difference(lattice: IntegerLattice, d: int) -> frozenset[Point]:
    """Simplex of radius d minus its translates by graded-positive lattice
    vectors.

    Requires d to be at least the tile diameter (i.e. the simplex covers
    Z^n under the lattice); otherwise :class:`NotACovering` is raised with
    an unreached coset representative as witness.

    Inside the orthant the clipped region of a vector v is the cone above
    its positive part v+, so the subtraction reduces to marking cones.  The
    cone meets the simplex only if v+ lies in it, i.e. sum(v+) <= d; and a
    graded-positive v has sum(v) >= 0, so sum(v-) <= sum(v+) <= d.  The
    vectors of :func:`lattice_points_in_difference_body` are therefore all
    that can clip the simplex.

    A simplex point p is removed exactly when ``p - v`` is an orthant point
    for some graded-positive lattice vector v, i.e. when an earlier point
    of the orthant lies in p's coset.  The difference set is thus the tile
    intersected with the simplex, and it has ``det`` points exactly when d
    is at least the diameter.  The tile scan runs only to explain a
    shortfall.
    """
    import numpy as np
    n = lattice.dim
    result: frozenset[Point] = frozenset()
    if d >= 0:
        clamped = {
            tuple(max(a, 0) for a in v)
            for v in lattice_points_in_difference_body(lattice, d)
            if _graded_positive(v)
        }
        covered = np.zeros((d + 1,) * n, dtype=bool)
        for v in clamped:
            covered[tuple(slice(x, None) for x in v)] = True
        simplex = islice(enumerate_orthant_prec(n), math.comb(d + n, n))
        result = frozenset(p for p in simplex if not covered[p])
    if len(result) != lattice.det:
        base = build_tile(lattice)
        if d < base.m_diameter:
            witness = next(p for p in base.points if sum(p) > d)
            raise NotACovering(
                f"simplex radius {d} is below the tile diameter {base.m_diameter}",
                witness=witness,
            )
        raise RuntimeError(
            f"difference set has {len(result)} points, expected det = {lattice.det}"
        )
    return result


def tile_to_json_dict(tile: CayleyTile) -> dict:
    return {
        "n": tile.dim,
        "det": tile.source_lattice.det,
        "diameter": tile.m_diameter,
        "points": [list(p) for p in tile.points],
        "notch": list(tile.notch) if tile.notch is not None else None,
    }
