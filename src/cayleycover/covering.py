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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Optional, Sequence

from .errors import DimensionMismatch, NotACovering, SingularAfterRounding, SingularBasis
from .lattices import IntegerLattice, hnf_normalize, reduce_mod
from .tiles import Point, build_tile, enumerate_orthant_prec


@dataclass(frozen=True)
class DiscreteSimplex:
    """Nonnegative integer vectors with coordinate sum at most d."""

    n: int
    d: int

    @property
    def size(self) -> int:
        return simplex_size(self.n, self.d)

    def points(self) -> Iterator[Point]:
        for p in enumerate_orthant_prec(self.n):
            if sum(p) > self.d:
                return
            yield p


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


def covers_discrete(n: int, d: int, lattice: IntegerLattice) -> CoveringVerdict:
    """Decide whether the radius-d simplex plus the lattice covers Z^n.

    Covering holds iff the tile diameter is at most d.  On failure the
    witness is the scan-first tile point with norm above d: its coset is
    unreached by any simplex translate.
    """
    if lattice.dim != n:
        raise DimensionMismatch(f"lattice has dimension {lattice.dim}, not {n}")
    tile = build_tile(lattice)
    diameter = tile.m_diameter
    if diameter <= d:
        density = Fraction(simplex_size(n, d), lattice.det)
        return CoveringVerdict(True, density, None, diameter)
    witness = next(p for p in tile.points if sum(p) > d)
    return CoveringVerdict(False, None, witness, diameter)


def discrete_density(n: int, d: int, lattice: IntegerLattice) -> Fraction:
    """Exact covering density C(d+n, n) / det, reduced."""
    verdict = covers_discrete(n, d, lattice)
    if not verdict.covered:
        raise NotACovering(
            f"simplex of radius {d} does not cover Z^{n} under this lattice",
            witness=verdict.witness,
        )
    return verdict.density


@dataclass(frozen=True)
class ContinuousLift:
    D: int
    continuous_density: Fraction


def lift_to_continuous(n: int, d: int, lattice: IntegerLattice) -> ContinuousLift:
    """Continuous covering implied by a discrete one: radius grows to d+n.

    The lift is tight: the solid radius-D simplex covers R^n under L iff
    D >= d(L) + n.  Proof (module docstring): with t in [0, 1)^n, any
    lattice vector v with z + t - v >= 0 has z - v >= 0, so z + t is
    covered iff dist(z) + sum(t) <= D; below d(L) + n, the diameter tile
    point plus (1 - e) in every coordinate is uncovered for small e > 0.

    The reported density is vol(solid simplex of radius d+n) / det as an
    exact rational, i.e. (d+n)^n / (n! * det).
    """
    verdict = covers_discrete(n, d, lattice)
    if not verdict.covered:
        raise NotACovering(
            f"simplex of radius {d} does not cover Z^{n} under this lattice",
            witness=verdict.witness,
        )
    D = d + n
    return ContinuousLift(D, Fraction(D**n, math.factorial(n) * lattice.det))


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
    n: int,
    D,
    lattice: IntegerLattice,
    resolution: int = 4,
) -> Optional[tuple[Fraction, ...]]:
    """First point of the grid (1/resolution) * Z^n in the fundamental box
    that no simplex translate covers, or None.

    The grid is walked in lexicographic order and each point z + t, t in
    [0, 1)^n, is decided exactly: covered iff dist(z) + sum(t) <= D, where
    dist(z) is the norm of the tile point in z's coset, because a lattice
    vector v with z + t - v >= 0 has z - v >= 0 (module docstring).  As
    sum(t) < n, L covers R^n iff D >= d(L) + n; there None is returned at
    once and is a proof.  A returned point is a proof of non-covering.
    """
    if lattice.dim != n:
        raise DimensionMismatch(f"lattice has dimension {lattice.dim}, not {n}")
    if resolution < 1:
        raise ValueError("resolution must be a positive integer")
    D = Fraction(D)
    tile = build_tile(lattice)
    if D >= tile.m_diameter + n:
        return None
    # keyed by the coset's point in the fundamental box; grid points are
    # (z * r + k) / r with 0 <= k < r, decided in integers
    dist = {reduce_mod(lattice, p): sum(p) for p in tile.points}
    bound = math.floor(D * resolution)
    axes = [
        [divmod(g, resolution) for g in range(resolution * m)] for m in lattice.diagonal
    ]
    for cell in product(*axes):
        z = tuple(q for q, _ in cell)
        if dist[z] * resolution + sum(k for _, k in cell) > bound:
            return tuple(Fraction(q * resolution + k, resolution) for q, k in cell)
    return None
