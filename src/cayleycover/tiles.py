"""Cayley tiles of Z^n: the graded order, tile construction, and structure.

Points of the nonnegative orthant are ordered by Manhattan norm (sum of
coordinates) with lexicographic tie-breaking.  Scanning the orthant in this
order and keeping the first point of every coset of a sublattice yields a
complete set of coset representatives, the tile.  Its largest norm equals
the diameter of the Cayley digraph of the quotient group with the standard
generators, which is what the covering and search modules consume.

The scan itself runs in a compiled kernel when available (``_tilescan``,
built from Cython) and otherwise in the pure-Python twin ``_tilescan_py``;
set ``CAYLEYCOVER_PURE=1`` to force the fallback.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from itertools import count, product
from typing import Iterator, Optional, Sequence

import numpy as np

from . import _tilescan_py as _pure
from .errors import DimensionMismatch, MultipleMinimalNotches, NotACovering
from .lattices import IntegerLattice, lattice_points_in_box, reduce_mod

try:
    from . import _tilescan as _compiled
except ImportError:  # extension not built
    _compiled = None

_FORCE_PURE = os.environ.get("CAYLEYCOVER_PURE", "") not in ("", "0")
# int64-safe bounds for the compiled kernel (see _tilescan docstring)
_COMPILED_DET_LIMIT = 1 << 22
_COMPILED_DIM_LIMIT = 8

Point = tuple[int, ...]


def kernel_backend() -> str:
    """Name of the scan kernel the dispatcher uses for small inputs."""
    if _compiled is not None and not _FORCE_PURE:
        return "compiled"
    return "pure"


def _scan(lattice: IntegerLattice, prune: int):
    det = lattice.det
    if (
        _compiled is not None
        and not _FORCE_PURE
        and det <= _COMPILED_DET_LIMIT
        and lattice.dim <= _COMPILED_DIM_LIMIT
    ):
        return _compiled.scan_tile(lattice.diagonal, lattice.flat(), det, prune)
    return _pure.scan_tile(lattice.diagonal, lattice.flat(), det, prune)


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


def _maximal_antichain(points: frozenset[Point]) -> list[Point]:
    """Componentwise-maximal elements, used as a dominance frontier."""
    ordered = sorted(points, key=lambda p: (-sum(p), p))
    frontier: list[Point] = []
    for p in ordered:
        if not any(all(fj >= pj for fj, pj in zip(f, p)) for f in frontier):
            frontier.append(p)
    return frontier


def find_notch(tile: CayleyTile) -> Optional[Point]:
    """Unique minimal point outside the tile whose projections are all
    silhouette-dominated, or None when no such point exists.

    Candidates are scanned over the box ``[0, axis max + 1]`` per axis; any
    point beyond that has a projection outside the silhouette.  Raises
    :class:`MultipleMinimalNotches` when minimality fails, which would
    contradict the single-notch structure of lattice tiles.
    """
    n = tile.dim
    points = tile.point_set
    maxes = [max(p[i] for p in points) for i in range(n)]
    # frontiers of the zeroed projections; axis i ignores coordinate i
    frontiers = [_maximal_antichain(proj) for proj in silhouette(tile).projections]

    def silhouette_dominated(p: Point, axis: int) -> bool:
        return any(
            all(f[j] >= p[j] for j in range(n) if j != axis)
            for f in frontiers[axis]
        )

    candidates = []
    for p in product(*(range(m + 2) for m in maxes)):
        if p in points:
            continue
        if all(silhouette_dominated(p, axis) for axis in range(n)):
            candidates.append(p)
    if not candidates:
        return None

    candidates.sort(key=prec_key)
    minimal = [
        c
        for c in candidates
        if not any(
            d != c and all(dj <= cj for dj, cj in zip(d, c)) for d in candidates
        )
    ]
    if len(minimal) != 1:
        raise MultipleMinimalNotches(
            f"{len(minimal)} minimal notch candidates: {minimal[:4]}"
        )
    notch = minimal[0]
    bad = [c for c in candidates if not all(nj <= cj for nj, cj in zip(notch, c))]
    if bad:
        raise MultipleMinimalNotches(
            f"candidate {bad[0]} is not above the minimal candidate {notch}"
        )
    return notch


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
