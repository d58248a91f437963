"""Cayley tiles of Z^n: the graded order, tile construction, and structure.

Points of the nonnegative orthant are ordered by Manhattan norm (sum of
coordinates) with lexicographic tie-breaking.  Scanning the orthant in this
order and keeping the first point of every coset of a sublattice yields a
complete set of coset representatives, the tile.  Its largest norm equals
the diameter of the Cayley digraph of the quotient group with the standard
generators, which is what the covering and search modules consume.

The scan (``_scan``) runs in Python integers, so it has no determinant or
dimension limit; it builds every tile and is the oracle for the search's
batched fit test, which counts residues of the radius-d simplex in numpy
(see ``search``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, MultipleMinimalNotches, NotACovering
from .lattices import IntegerLattice, lattice_points_in_box, reduce_mod

_DENSE_SEEN_LIMIT = 1 << 22

Point = tuple[int, ...]


def kernel_backend() -> str:
    """Name of the kernel behind the search's fit test."""
    return "numpy"


def _scan(lattice: IntegerLattice, prune: int):
    """Graded-lex scan of the nonnegative orthant, one point per coset.

    ``prune`` -1 scans until all ``det`` cosets are represented; otherwise
    the scan aborts as soon as a shell above ``prune`` starts with cosets
    still missing.

    Returns ``(complete, diameter, points)``.  On completion ``points`` is
    the full tile in scan order and ``diameter`` its largest norm; on a
    pruned abort the result is ``(False, -1, ())``.
    """
    diag = lattice.diagonal
    flat = lattice.flat()
    det = lattice.det
    n = len(diag)
    strides = [1] * n
    for i in range(1, n):
        strides[i] = strides[i - 1] * diag[i - 1]
    # residues are encoded in mixed radix over the fundamental box
    dense = det <= _DENSE_SEEN_LIMIT
    seen = bytearray(det) if dense else set()
    points = []
    found = 0
    diameter = 0
    s = 0
    c = [0] * n
    while True:
        if prune >= 0 and s > prune:
            return (False, -1, ())
        if s > det:
            raise RuntimeError("scan passed the determinant shell bound")
        for j in range(n - 1):
            c[j] = 0
        c[n - 1] = s
        while True:
            r = c.copy()
            for i in range(n - 1, -1, -1):
                q = r[i] // diag[i]
                if q:
                    base = i * n
                    for j in range(i + 1):
                        r[j] -= q * flat[base + j]
            idx = 0
            for j in range(n):
                idx += r[j] * strides[j]
            if dense:
                fresh = not seen[idx]
                if fresh:
                    seen[idx] = 1
            else:
                fresh = idx not in seen
                if fresh:
                    seen.add(idx)
            if fresh:
                points.append(tuple(c))
                found += 1
                diameter = s
                if found == det:
                    return (True, diameter, tuple(points))
            # advance to the next composition of s in lexicographic order
            p = n - 1
            while p >= 0 and c[p] == 0:
                p -= 1
            if p <= 0:
                break
            m = c[p] - 1
            c[p] = 0
            c[p - 1] += 1
            c[n - 1] = m
        s += 1


def m_norm(p: Sequence[int]) -> int:
    """Manhattan distance from the origin."""
    return sum(p)


def prec_key(p: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Sort key realizing the graded-lex order on the orthant."""
    return (sum(p), tuple(p))


def prec_compare(x: Sequence[int], y: Sequence[int]) -> int:
    """-1, 0 or 1 as x precedes, equals or follows y in the graded order."""
    if len(x) != len(y):
        raise DimensionMismatch("points must have equal dimension")
    kx, ky = prec_key(x), prec_key(y)
    if kx < ky:
        return -1
    if kx > ky:
        return 1
    return 0


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


@dataclass(frozen=True)
class Silhouette:
    """Per-axis projections of a tile onto the coordinate hyperplanes."""

    projections: tuple[frozenset[Point], ...]


def build_tile(lattice: IntegerLattice) -> CayleyTile:
    """Scan the orthant and keep the first point of each coset.

    The result has exactly ``det`` points, is downward closed, and its
    largest norm equals the diameter of the quotient Cayley digraph.
    """
    complete, diameter, points = _scan(lattice, -1)
    if not complete:
        raise RuntimeError("unpruned tile scan stopped before reaching every coset")
    return CayleyTile(
        dim=lattice.dim, points=points, m_diameter=diameter, source_lattice=lattice
    )


def fits_diameter(lattice: IntegerLattice, d: int) -> bool:
    """True iff the tile of the lattice has M-diameter at most d."""
    complete, _, _ = _scan(lattice, d)
    return complete


def m_diameter(tile: CayleyTile) -> int:
    return tile.m_diameter


def silhouette(tile: CayleyTile) -> Silhouette:
    """Projections of the tile points with one coordinate dropped to zero."""
    n = tile.dim
    projections = []
    for axis in range(n):
        proj = frozenset(p[:axis] + (0,) + p[axis + 1 :] for p in tile.points)
        projections.append(proj)
    return Silhouette(projections=tuple(projections))


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
       some p - e_k and so in T.

    The minimal candidates are therefore exactly the outer corners, each of
    the form ``t + e_i`` with t in T, found with O(|T| n^2) set lookups.
    Raises :class:`MultipleMinimalNotches` when there are several, which
    would contradict the single-notch structure of lattice tiles.
    """
    n = tile.dim
    points = tile.point_set
    minimal = set()
    for t in points:
        for i in range(n):
            p = t[:i] + (t[i] + 1,) + t[i + 1 :]
            if p not in points and all(
                p[:k] + (p[k] - 1,) + p[k + 1 :] in points for k in range(n)
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
    an unreached coset representative as witness.  Only vectors with every
    coordinate in [-d, d] can clip the simplex, and inside the orthant the
    clipped region of a vector equals the cone above its positive part, so
    the subtraction reduces to marking cones of clamped vectors.
    """
    base = build_tile(lattice)
    if d < base.m_diameter:
        witness = next(p for p in base.points if sum(p) > d)
        raise NotACovering(
            f"simplex radius {d} is below the tile diameter {base.m_diameter}",
            witness=witness,
        )
    n = lattice.dim
    clamped = {
        tuple(max(a, 0) for a in v)
        for v in lattice_points_in_box(lattice, (-d,) * n, (d,) * n)
        if _graded_positive(v)
    }
    minimal: list[Point] = []
    for v in sorted(clamped, key=prec_key):  # cones nest, keep the minimal ones
        if not any(all(mj <= vj for mj, vj in zip(m, v)) for m in minimal):
            minimal.append(v)
    covered = np.zeros((d + 1,) * n, dtype=bool)
    for v in minimal:
        covered[tuple(slice(x, None) for x in v)] = True
    pts = []
    for p in enumerate_orthant_prec(n):
        if sum(p) > d:
            break
        if not covered[p]:
            pts.append(p)
    result = frozenset(pts)
    if len(result) != lattice.det:
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
