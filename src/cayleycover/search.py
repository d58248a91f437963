"""Exhaustive degree-diameter search over sublattices of Z^n.

``brute_force_f(n, d)`` computes the largest quotient-group order reachable
by an abelian Cayley digraph with n generators and diameter at most d, by
scanning lattice indices downward from a cap and testing every canonical
HNF sublattice at each index.  The cap combines the binomial bound
C(d+n, n) with the closed-form upper bound below, both of which the test
suite verifies independently.

A lattice's tile has diameter at most d exactly when the C(d+n, n) points
of the radius-d simplex meet every coset.  The search tests that on whole
indices held as int64 arrays and builds a lattice object only for the
witness:

- The HNFs of index m fall into one block per diagonal (d0, ..., d_{n-1})
  with product m.  A block's rows are its sub-diagonal entries, taken in
  row-major order (1,0), (2,0), (2,1), (3,0), ..., entry (i, j) ranging
  over [0, d_j), so row k holds the mixed-radix digits of k.  Rows are
  made in chunks of at most ``_CHUNK_CELLS`` rows x max(simplex points, m)
  cells, so a block is never held whole.
- ``_fit_rows`` reduces the simplex through every row of a chunk at once,
  the diagonal a constant and the entries array columns, and a row fits
  when it yields all m mixed-radix residues.
- Within a block, C order is lexicographic order of the flattened basis,
  which is the order of ``enumerate_sublattices``; so a block's first
  fitting row is its least, and the witness is the least of the block
  minima.  Each block is scanned only below the best witness so far.
- ``candidates_scanned`` counts what ``enumerate_sublattices`` would
  yield up to and including the witness: every lattice of the indices
  above it, plus 1 + the witness's rank at its own index.  ``_rank``
  counts a block's rows below a basis without generating them.
- ``_int64_safe`` is checked once per block.  A block whose intermediates
  could leave int64 is tested lattice by lattice with the exact scan
  ``fits_diameter`` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from typing import Optional, Sequence

import numpy as np

from .errors import CapTooSmall
# enumerate_sublattices is not called here: it fixes the order the search reproduces
from .lattices import (
    IntegerLattice,
    count_sublattices,
    divisors,
    enumerate_sublattices,
)
from .tiles import enumerate_orthant_prec, fits_diameter

# a cap on rows x max(simplex points, index) per batch
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


def _diagonals(n: int, m: int) -> list[tuple[int, ...]]:
    """HNF diagonals of index m: ordered factorizations of m into n
    factors, in lexicographic order.  A head of leading factors that leaves
    1 is padded with 1s at once, so each diagonal costs about its length."""
    diags, heads = [], [((), m)]
    for k in range(1, n):
        heads = [(head + (a,), rest // a) for head, rest in heads for a in divisors(rest)]
        diags += [head + (1,) * (n - k) for head, rest in heads if rest == 1]
        heads = [(head, rest) for head, rest in heads if rest > 1]
    return sorted(diags + [head + (rest,) for head, rest in heads])


def _cell_shape(diag: Sequence[int]) -> tuple[int, ...]:
    """Ranges of the sub-diagonal entries (1,0), (2,0), (2,1), ... of the
    HNFs with this diagonal."""
    return tuple(diag[j] for i in range(len(diag)) for j in range(i))


def _block_rows(diag: Sequence[int], lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the diagonal's block, one column per sub-diagonal
    entry: row k holds the mixed-radix digits of k, the last cell the
    least significant.  A cell of range 1 has digit 0 and leaves k as it
    is, so only the cells of larger range are divided out."""
    shape = _cell_shape(diag)
    rows = np.zeros((hi - lo, len(shape)), dtype=np.int64)
    k = np.arange(lo, hi, dtype=np.int64)
    for c in range(len(shape) - 1, -1, -1):
        if shape[c] > 1:
            k, rows[:, c] = np.divmod(k, shape[c])
    return rows


def _basis(diag: Sequence[int], cells: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The HNF basis with this diagonal and these sub-diagonal entries."""
    n = len(diag)
    entries = iter(map(int, cells))
    return tuple(
        tuple(next(entries) for _ in range(i)) + (diag[i],) + (0,) * (n - i - 1)
        for i in range(n)
    )


def _rank(diag: Sequence[int], flat: Sequence[int]) -> int:
    """Number of rows in the diagonal's block whose flattened basis is
    lexicographically less than ``flat``."""
    n = len(diag)
    # each basis entry, row-major, takes the values [low, low + span)
    ranges = [
        (0, diag[j]) if j < i else (diag[i], 1) if j == i else (0, 1)
        for i in range(n)
        for j in range(n)
    ]
    rank = 0
    rest = math.prod(span for _, span in ranges)
    for (low, span), v in zip(ranges, flat):
        rest //= span
        rank += min(max(v - low, 0), span) * rest
        if not low <= v < low + span:
            break
    return rank


def _simplex(n: int, d: int) -> np.ndarray:
    """The C(d+n, n) points of the radius-d simplex, one per row."""
    points = list(islice(enumerate_orthant_prec(n), math.comb(d + n, n)))
    return np.array(points, dtype=np.int64).reshape(len(points), n)


def _fit_rows(diag: Sequence[int], cells: np.ndarray, simplex: np.ndarray) -> np.ndarray:
    """Per row of ``cells``, whether the HNF with this diagonal and these
    sub-diagonal entries has a tile of diameter at most d, i.e. whether the
    radius-d ``simplex`` meets every coset."""
    n = len(diag)
    r = list(simplex.T)  # coordinate j of every point; gains the row axis
    for i in range(n - 1, -1, -1):
        q = r[i] // diag[i]
        r[i] = r[i] - q * diag[i]
        for j in range(i):
            r[j] = r[j] - q * cells[:, i * (i - 1) // 2 + j, None]
    residue = np.zeros((len(cells), len(simplex)), dtype=np.int64)
    stride = 1
    for j, a in enumerate(diag):
        residue += r[j] * stride
        stride *= a
    seen = np.zeros((len(cells), stride), dtype=bool)
    seen[np.arange(len(cells))[:, None], residue] = True
    return seen.all(axis=1)


def _least_fit(diag: tuple[int, ...], d: int, simplex: np.ndarray, limit: int):
    """Basis of the first of the block's rows 0..limit-1 that fits, or None."""
    size = max(1, _CHUNK_CELLS // max(len(simplex), math.prod(diag)))
    safe = _int64_safe(diag, d)
    for lo in range(0, limit, size):
        cells = _block_rows(diag, lo, min(lo + size, limit))
        if safe:
            hits = np.flatnonzero(_fit_rows(diag, cells, simplex))
            if len(hits):
                return _basis(diag, cells[hits[0]])
            continue
        for row in cells:
            basis = _basis(diag, row)
            if fits_diameter(IntegerLattice(len(diag), basis), d):
                return basis
    return None


def _scan_index(n: int, d: int, m: int, simplex: np.ndarray):
    """Least lattice of index m whose tile has diameter at most d.

    Returns (inspected_count, lattice_or_None): the count runs, in the
    order of ``enumerate_sublattices``, up to and including the fit, or
    over all lattices of the index when none fits.
    """
    diags = _diagonals(n, m)
    sizes = [math.prod(_cell_shape(diag)) for diag in diags]
    if sum(sizes) != count_sublattices(n, m):
        raise RuntimeError(
            f"blocks of index {m} in dimension {n} hold {sum(sizes)} rows, "
            f"not {count_sublattices(n, m)}"
        )
    best = None
    for diag, size in zip(diags, sizes):
        # only rows below the best so far are scanned, so a fit replaces it
        limit = size if best is None else _rank(diag, tuple(chain.from_iterable(best)))
        best = _least_fit(diag, d, simplex, limit) or best
    if best is None:
        return sum(sizes), None
    flat = tuple(chain.from_iterable(best))
    return 1 + sum(_rank(diag, flat) for diag in diags), IntegerLattice(n, best)


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

    simplex = _simplex(n, d)
    scanned = 0
    for m in range(start, 0, -1):
        inspected, witness = _scan_index(n, d, m, simplex)
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
