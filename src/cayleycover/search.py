"""Exhaustive degree-diameter search over sublattices of Z^n.

``brute_force_f(n, d)`` computes the largest quotient-group order reachable
by an abelian Cayley digraph with n generators and diameter at most d, by
scanning lattice indices downward from a cap and testing every canonical
HNF sublattice at each index.  The cap combines the binomial bound
C(d+n, n) with the closed-form upper bound below, both of which the test
suite verifies independently.

A lattice's tile has diameter at most d exactly when the C(d+n, n) points
of the radius-d simplex meet every coset.  ``_first_fit`` tests that for
many lattices at once: it takes the enumeration in chunks, groups each
chunk by HNF diagonal, reduces the simplex through every basis of a group
with numpy (the sub-diagonal entries are an array axis) and checks that
each basis yields all ``det`` mixed-radix residues.  Groups whose
intermediates could leave int64 fall back to the exact per-lattice scan.
The first fit in enumeration order is returned, so the witness is the
lexicographically least successful basis.  The search runs in one process
and streams each index from the enumerator, one chunk at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import CapTooSmall
from .lattices import IntegerLattice, enumerate_sublattices
from .tiles import enumerate_orthant_prec, fits_diameter

# lattices per batch, and a cap on lattices x simplex points per batch
_CHUNK = 1024
_CHUNK_CELLS = 1 << 20
_INT64_MAX = 2**63 - 1


def f2_closed_form(d: int) -> int:
    """Largest order for two generators: floor((d+2)^2 / 3)."""
    if d < 0:
        raise ValueError("need d >= 0")
    return (d + 2) ** 2 // 3


def f3_upper_bound(d: int) -> Fraction:
    """Order bound for three generators: 3(d+3)^3 / 25."""
    if d < 0:
        raise ValueError("need d >= 0")
    return Fraction(3 * (d + 3) ** 3, 25)


def f4_upper_bound(d: int) -> Fraction:
    """Order bound for four generators: 11(d+4)^4 / 343."""
    if d < 0:
        raise ValueError("need d >= 0")
    return Fraction(11 * (d + 4) ** 4, 343)


def fn_upper_bound(n: int, d: int) -> Fraction:
    """General order bound ((d+n)^n / (n n!)) (n-1 + ((n-1)/(2n-1))^(n-1)).

    Specializes exactly to the three- and four-generator bounds above, and
    to (d+2)^2/3 for n = 2.
    """
    if n < 2 or d < 0:
        raise ValueError("need n >= 2 and d >= 0")
    factor = (n - 1) + Fraction(n - 1, 2 * n - 1) ** (n - 1)
    return Fraction((d + n) ** n, n * math.factorial(n)) * factor


def theta_lower_bound(n: int) -> Fraction:
    """Covering-density lower bound n / (n-1 + ((n-1)/(2n-1))^(n-1))."""
    if n < 2:
        raise ValueError("need n >= 2")
    return n / ((n - 1) + Fraction(n - 1, 2 * n - 1) ** (n - 1))


@dataclass(frozen=True)
class SearchReport:
    n: int
    d: int
    f_value: int
    witness: IntegerLattice
    binomial_cap: int
    paper_upper: Fraction
    candidates_scanned: int
    exhaustive: bool


def _int64_safe(diag: Sequence[int], d: int) -> bool:
    """True iff reducing points with coordinates in [0, d] through any HNF
    with this diagonal, and encoding the residues in mixed radix, keeps
    every intermediate within int64.

    Row i's quotient is at most the bound on coordinate i, and entry (i, j)
    is below diag[j], so coordinate j grows by at most that product.
    """
    bound = [d] * len(diag)
    for i in range(len(diag) - 1, 0, -1):
        for j in range(i):
            bound[j] += bound[i] * (diag[j] - 1)
    return max(max(bound) * max(diag), math.prod(diag)) <= _INT64_MAX


def _fit_mask(lattices: Sequence[IntegerLattice], d: int) -> list[bool]:
    """Per lattice, whether its tile has diameter at most d, i.e. whether
    the radius-d simplex meets every coset."""
    n = lattices[0].dim
    points = list(islice(enumerate_orthant_prec(n), math.comb(d + n, n)))
    simplex = np.array(points, dtype=np.int64).reshape(len(points), n)
    groups: dict[tuple[int, ...], list[int]] = {}
    for pos, lattice in enumerate(lattices):
        groups.setdefault(lattice.diagonal, []).append(pos)
    fits = [False] * len(lattices)
    for diag, members in groups.items():
        if not _int64_safe(diag, d):
            for pos in members:
                fits[pos] = fits_diameter(lattices[pos], d)
            continue
        basis = np.array([lattices[pos].basis for pos in members], dtype=np.int64)
        r = list(simplex.T)  # coordinate j of every point; gains the group axis
        for i in range(len(diag) - 1, -1, -1):
            q = r[i] // diag[i]
            r[i] = r[i] - q * diag[i]
            for j in range(i):
                r[j] = r[j] - q * basis[:, i, j, None]
        residue = np.zeros((len(members), len(points)), dtype=np.int64)
        stride = 1
        for j, a in enumerate(diag):
            residue += r[j] * stride
            stride *= a
        seen = np.zeros((len(members), stride), dtype=bool)
        seen[np.arange(len(members))[:, None], residue] = True
        for pos, hit in zip(members, seen.all(axis=1)):
            fits[pos] = bool(hit)
    return fits


def _first_fit(n: int, d: int, lattices: Iterable[IntegerLattice]):
    """First lattice, in the given order, whose tile has diameter at most d.

    Returns (inspected_count, lattice_or_None): the count runs up to and
    including the fit, or over all lattices when none fits.
    """
    size = max(1, min(_CHUNK, _CHUNK_CELLS // math.comb(d + n, n)))
    stream = iter(lattices)
    inspected = 0
    while chunk := list(islice(stream, size)):
        for i, fits in enumerate(_fit_mask(chunk, d)):
            if fits:
                return inspected + i + 1, chunk[i]
        inspected += len(chunk)
    return inspected, None


def brute_force_f(n: int, d: int, index_cap: Optional[int] = None) -> SearchReport:
    """Exhaustive value of the degree-diameter function for n generators.

    Scans indices downward from the cap and stops at the first index with a
    witness lattice; the witness is the lexicographically least successful
    HNF basis at that index.  With the default cap the scan is exhaustive.
    A user-supplied cap below the true value yields the best value under
    the cap, flagged non-exhaustive.  ``candidates_scanned`` counts the
    lattices enumerated up to and including the witness.
    """
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    binomial_cap = math.comb(d + n, n)
    paper_upper = fn_upper_bound(n, d) if n >= 2 else Fraction(d + 1)
    default_cap = min(binomial_cap, math.floor(paper_upper))
    if index_cap is None:
        start = default_cap
        exhaustive = True
    else:
        if index_cap < 1:
            raise CapTooSmall(f"index cap {index_cap} leaves nothing to scan")
        start = min(index_cap, default_cap)
        exhaustive = index_cap >= default_cap

    scanned = 0
    for m in range(start, 0, -1):
        inspected, witness = _first_fit(n, d, enumerate_sublattices(n, m))
        scanned += inspected
        if witness is not None:
            return SearchReport(
                n=n,
                d=d,
                f_value=m,
                witness=witness,
                binomial_cap=binomial_cap,
                paper_upper=paper_upper,
                candidates_scanned=scanned,
                exhaustive=exhaustive,
            )
    raise AssertionError("unreachable: the identity lattice always fits")


def density_trend(
    n: int, d_values: Sequence[int], index_cap: Optional[int] = None
) -> list[tuple[int, Fraction, IntegerLattice]]:
    """Minimum covering density per radius: C(d+n, n) / f(n, d).

    Each row carries the witness lattice attaining the minimum, for the CSV
    interface.  The densities approach the covering-density limit from
    below as d grows.
    """
    rows = []
    for d in d_values:
        report = brute_force_f(n, d, index_cap=index_cap)
        density = Fraction(math.comb(d + n, n), report.f_value)
        rows.append((d, density, report.witness))
    return rows
