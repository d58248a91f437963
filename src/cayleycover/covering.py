"""Coverings of Z^n by translated discrete simplices, and the lift to E^n.

The discrete simplex of radius d is the set of nonnegative integer vectors
with coordinate sum at most d.  Translating it by a sublattice covers Z^n
exactly when the lattice's Cayley tile has M-diameter at most d, which is
how the covering decision is made here; the exact covering density is then
the simplex size over the lattice determinant.

The continuous side is read off the same tile.  Write x = z + t with z
integer and t in [0, 1)^n.  For a lattice vector v, x - v >= 0 forces
z - v >= 0 (each z_i - v_i is an integer above -1), and the converse
holds as t >= 0.  So x is covered iff some nonnegative point of z's coset has norm at
most D - sum(t); the least such norm is dist(z), the norm of the tile point
in z's coset:

    x is covered  iff  dist(z) + sum(t) <= D.

As dist reaches the tile diameter d(L) and sum(t) ranges over [0, n), the
lattice plus the solid radius-D simplex covers R^n iff D >= d(L) + n: the
discrete-to-continuous lift from d to d + n is tight.

The falsifier applies the rule to the grid (1/r) Z^n coset by coset, not
cell by cell: in z's coset the grid points failing it are those whose
fractional parts sum past D - dist(z), so each coset's lex-first one has a
closed form, and the first over the fundamental box is the least of these.

Every query takes a lattice or its built tile, and a radius, as the tile
queries do; n is the lattice's dimension: ``covers_discrete(lattice, d)``,
``discrete_density(lattice, d)``, ``lift_to_continuous(lattice, d)`` and
``continuous_cover_falsify(lattice, D, resolution=4)``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .errors import NotACovering, SingularAfterRounding, SingularBasis
from .lattices import IntegerLattice, hnf_normalize, reduce_mod
from .tiles import CayleyTile, Point, build_tile, simplex_points


@dataclass(frozen=True)
class DiscreteSimplex:
    """Nonnegative integer vectors with coordinate sum at most d."""

    n: int
    d: int

    @property
    def size(self) -> int:
        return simplex_size(self.n, self.d)

    def points(self) -> Iterator[Point]:
        return simplex_points(self.n, self.d)


def simplex_size(n: int, d: int) -> int:
    """Number of lattice points in the radius-d simplex: C(d+n, n)."""
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    return math.comb(d + n, n)


@dataclass(frozen=True)
class CoveringVerdict:
    covered: bool
    density: Optional[Fraction]
    witness: Optional[Point]
    tile_diameter: int


def _tile_of(lattice: IntegerLattice | CayleyTile) -> CayleyTile:
    return lattice if isinstance(lattice, CayleyTile) else build_tile(lattice)


def covers_discrete(lattice: IntegerLattice | CayleyTile, d: int) -> CoveringVerdict:
    """Decide whether the radius-d simplex plus the lattice covers Z^n.

    Covering holds iff the tile diameter is at most d.  On failure the
    witness is the scan-first tile point with norm above d: its coset is
    unreached by any simplex translate.
    """
    tile = _tile_of(lattice)
    diameter = tile.m_diameter
    if diameter <= d:
        density = Fraction(simplex_size(tile.dim, d), tile.source_lattice.det)
        return CoveringVerdict(True, density, None, diameter)
    witness = next(p for p in tile.points if sum(p) > d)
    return CoveringVerdict(False, None, witness, diameter)


def _covering(lattice: IntegerLattice | CayleyTile, d: int) -> tuple[CayleyTile, Fraction]:
    """The tile and the covering density at radius d; raises
    :class:`NotACovering`, with the unreached tile point as witness, when
    the radius-d simplex does not cover Z^n under the lattice."""
    tile = _tile_of(lattice)
    verdict = covers_discrete(tile, d)
    if not verdict.covered:
        raise NotACovering(
            f"simplex of radius {d} does not cover Z^{tile.dim} under this lattice",
            witness=verdict.witness,
        )
    return tile, verdict.density


def discrete_density(lattice: IntegerLattice | CayleyTile, d: int) -> Fraction:
    """Exact covering density C(d+n, n) / det, reduced."""
    return _covering(lattice, d)[1]


@dataclass(frozen=True)
class ContinuousLift:
    D: int
    continuous_density: Fraction


def lift_to_continuous(lattice: IntegerLattice | CayleyTile, d: int) -> ContinuousLift:
    """Continuous covering implied by a discrete one: radius grows to d+n.

    The lift is tight: the solid radius-D simplex covers R^n under L iff
    D >= d(L) + n.  Proof (module docstring): with t in [0, 1)^n, any
    lattice vector v with z + t - v >= 0 has z - v >= 0, so z + t is
    covered iff dist(z) + sum(t) <= D; below d(L) + n, the diameter tile
    point plus (1 - e) in every coordinate is uncovered for small e > 0.

    The reported density is vol(solid simplex of radius d+n) / det as an
    exact rational, i.e. (d+n)^n / (n! * det).
    """
    tile, _ = _covering(lattice, d)
    n = tile.dim
    D = d + n
    return ContinuousLift(D, Fraction(D**n, math.factorial(n) * tile.source_lattice.det))


def round_scaled_lattice(real_basis: Sequence[Sequence[float]], k: float) -> IntegerLattice:
    """Scale a real basis by k and round every coordinate, ties toward +inf."""
    rows = [[math.floor(k * a + 0.5) for a in row] for row in real_basis]
    try:
        return hnf_normalize(rows)
    except SingularBasis as exc:
        raise SingularAfterRounding(
            f"rounded basis is singular at scale k={k}"
        ) from exc


def continuous_cover_falsify(
    lattice: IntegerLattice | CayleyTile, D, resolution: int = 4
) -> Optional[tuple[Fraction, ...]]:
    """First point of the grid (1/resolution) * Z^n in the fundamental box
    that no simplex translate covers, in lexicographic order, or None.

    Each point z + t, t in [0, 1)^n, is decided exactly: covered iff
    dist(z) + sum(t) <= D, where dist(z) is the norm of the tile point in
    z's coset, because a lattice vector v with z + t - v >= 0 has
    z - v >= 0 (module docstring).  As sum(t) < n, L covers R^n iff
    D >= d(L) + n; there None is returned at once and is a proof.  A
    returned point is a proof of non-covering.

    The first uncovered point is found per coset, not per grid cell.  With
    r the resolution and B = floor(D r), a grid point is (z r + k) / r for z
    in the fundamental box and k in [0, r)^n, and it is uncovered iff
    dist(z) r + sum(k) > B, i.e. iff sum(k) >= need = B + 1 - dist(z) r.
    So z's coset holds an uncovered point iff need <= n (r - 1), and the
    lex-least such k puts the mass at the end:
    k_i = min(r - 1, max(0, need - (n - 1 - i)(r - 1))).  As 0 <= k_i < r,
    lex order on z r + k is lex order on (z_0, k_0, z_1, k_1, ...), so the
    first uncovered point of the box is the least of the cosets' first
    ones.  The tile points come in graded order, so need grows along
    ``reversed(tile.points)`` and the walk stops at the first coset with
    none.
    """
    r = operator.index(resolution)
    if r < 1:
        raise ValueError("resolution must be a positive integer")
    D = Fraction(D)
    tile = _tile_of(lattice)
    n = tile.dim
    if D >= tile.m_diameter + n:
        return None
    bound = math.floor(D * r)
    cells = []
    for p in reversed(tile.points):
        need = bound + 1 - sum(p) * r
        if need > n * (r - 1):
            break
        k = [min(r - 1, max(0, need - (n - 1 - i) * (r - 1))) for i in range(n)]
        cells.append([q * r + c for q, c in zip(reduce_mod(tile.source_lattice, p), k)])
    return tuple(Fraction(g, r) for g in min(cells)) if cells else None
