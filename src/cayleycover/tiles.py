"""Cayley tiles of Z^n: the graded order, tile construction, and structure.

Points of the nonnegative orthant are ordered by Manhattan norm (sum of
coordinates) with lexicographic tie-breaking.  Scanning the orthant in this
order and keeping the first point of every coset of a sublattice yields a
complete set of coset representatives, the tile.  Its largest norm equals
the diameter of the Cayley digraph of the quotient group with the standard
generators, which is what the covering and search modules consume.

The scan (``_scan``) is one frontier scan in Python integers, with no size
limit: it grows each shell of the tile from the one before.  The quotient
map Z^n -> Z^n/L is a homomorphism, which ``lattices.coset_character``
gives as invariant factors and the images of the e_i; so each candidate is
one integer, its coordinates in the top digits and one field per
invariant factor below them, a step ``t -> t + e_i`` is one addition, and
its coset is read with one ``%`` per factor.  It builds every tile and is
the oracle for the search's batched fit test, which counts residues of the
radius-d simplex in numpy (see ``search``).

``tile_from_difference`` is an independent construction of the same tile,
as the simplex minus its translates by lattice vectors; it never uses the
scan or the coset character.  It marks the cones those translates clip in a
``(d+1)^n`` numpy mask, closed upward by a running OR along each axis, and
reads the tile off the mask with one ``argwhere``.  Numpy is imported only
there, so a tile or covering query never loads it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, count
from typing import Iterator, Optional, Sequence

from .errors import MultipleMinimalNotches, NotACovering
from .lattices import (
    IntegerLattice,
    coset_character,
    graded_positive_points_in_difference_body,
    reduce_mod,
)

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
    it keeps each candidate whose coset is new.  This is the graded-lex
    scan of the whole orthant, because

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
       coset key and raises ``RuntimeError``.

    A candidate p is one Python integer.  With ``coset_character`` giving
    the factors s_1..s_m and the images c_i of the e_i, b the bit length of
    det, o_1 = 1, o_(k+1) = o_k s_k det and top = o_(m+1), it is

        P = top * sum_i p_i 2^(b (n-1-i))  +  sum_k o_k f_k,
        f_k = sum_i p_i c_ik,

    so the step to ``p + e_i`` adds a constant weight w_i, and a shell is
    ``sorted({P + w_i})`` over the kept points of the shell before.

    4. Bounds.  Shell s has candidates only when shells 0..s-1 each kept a
       point and det was not reached, so s < det: every coordinate of a
       candidate is below det < 2^b, and f_k <= s (s_k - 1) < s_k det.
    5. Keys.  By 4, the fields below k sum to less than o_k and vanish under
       ``P // o_k``, and they cannot carry into field k or into the top
       part, which the sum of all fields stays below.  Every term above
       field k is a multiple of o_(k+1) / o_k = s_k det.  So
       ``P // o_k % s_k`` is f_k mod s_k, the k-th coordinate of p's image
       in Z/s_1 + ... + Z/s_m; the key puts these in mixed radix, in
       ``[0, det)``.  The character is a homomorphism with kernel L, so two
       points have equal keys exactly when they lie in one coset.
    6. Order.  By 4 and 5, ``P // top`` has the coordinates of p as its
       base-2^b digits, most significant first.  Two points of one shell
       differ in some coordinate, so integer order on a shell is
       lexicographic order.
    """
    n = lattice.dim
    det = lattice.det
    factors, images = coset_character(lattice)
    offsets = [1]
    for f in factors:
        offsets.append(offsets[-1] * f * det)
    top = offsets.pop()
    b = det.bit_length()
    shifts = [b * (n - 1 - i) for i in range(n)]
    weights = [
        (top << sh) + sum(map(operator.mul, image, offsets))
        for sh, image in zip(shifts, images)
    ]
    low = factors[0] if factors else 1  # det 1: no factor, one coset
    fields = []  # (offset, factor, mixed-radix place) of the other factors
    place = low
    for o, f in zip(offsets[1:], factors[1:]):
        fields.append((o, f, place))
        place *= f
    seen = bytearray(det)
    points: list[int] = []
    shell = [0]
    for s in count(0):
        if prune is not None and s > prune:
            return None
        keys = [P % low for P in shell]
        for o, f, place in fields:
            keys = [k + P // o % f * place for k, P in zip(keys, shell)]
        first = len(points)
        for P, k in zip(shell, keys):
            if not seen[k]:
                seen[k] = 1
                points.append(P)
        if len(points) == det:
            break
        if len(points) == first:
            raise RuntimeError(f"tile scan found no new coset in shell {s}")
        shell = sorted({P + w for P in points[first:] for w in weights})
    mask = (1 << b) - 1
    tops = [P // top for P in points]
    return tuple(zip(*[[t >> sh & mask for t in tops] for sh in shifts]))


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


def simplex_points(n: int, d: int) -> Iterator[Point]:
    """The radius-d simplex {x >= 0, sum(x) <= d}, shells 0..d of the graded
    order: the first C(d+n, n) points of ``enumerate_orthant_prec(n)``."""
    for s in range(d + 1):
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
    by set filters: start from the points ``t + e_0`` (t in T) not in T, and
    for k = 1..n-1 keep those p with ``p - e_k`` in T, with O(|T| n) set
    lookups.  Raises :class:`MultipleMinimalNotches` when there are
    several, which would contradict the single-notch structure of lattice
    tiles.
    """
    points = tile.point_set
    minimal = {(t[0] + 1,) + t[1:] for t in tile.points} - points
    for k in range(1, tile.dim):
        minimal = {p for p in minimal if p[:k] + (p[k] - 1,) + p[k + 1 :] in points}
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
    vectors of :func:`graded_positive_points_in_difference_body` are
    therefore all that can clip the simplex.

    The cones are marked in the box ``[0, d]^n``, which holds every v+:
    each v+ is set, and a running OR along each axis in turn closes the set
    upward, which is the union of the cones.  Setting the points of norm
    above d too leaves the simplex minus the cones unset, and the result is
    read off the mask with one ``argwhere``.

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
        vectors = graded_positive_points_in_difference_body(lattice, d)
        corners = np.fromiter(
            chain.from_iterable(vectors), dtype=np.intp, count=len(vectors) * n
        ).reshape(-1, n)
        np.maximum(corners, 0, out=corners)
        covered = np.zeros((d + 1,) * n, dtype=bool)
        covered[tuple(corners.T)] = True
        for axis in range(n):
            moved = np.moveaxis(covered, axis, 0)  # a view of covered
            for k in range(1, d + 1):
                moved[k, ...] |= moved[k - 1, ...]
        # norms in the box reach n * d, the bound that picks the dtype
        coordinate = np.arange(d + 1, dtype=np.min_scalar_type(n * d))
        covered |= reduce(np.add.outer, [coordinate] * n) > d
        result = frozenset(map(tuple, np.argwhere(~covered).tolist()))
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
