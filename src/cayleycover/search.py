"""Exhaustive degree-diameter search over sublattices of Z^n.

``brute_force_f(n, d)`` computes the largest quotient-group order reachable
by an abelian Cayley digraph with n generators and diameter at most d, by
scanning lattice indices downward from a cap and testing every canonical
HNF sublattice at each index.  The cap is the binomial bound C(d+n, n),
and for n <= 4 also the closed-form upper bound below, which the paper
proves only there; the test suite verifies both independently.

A lattice's tile has diameter at most d exactly when the C(d+n, n) points
of the radius-d simplex meet every coset.  The search tests that on whole
indices held as int32 arrays, or int64 ones where int32 could overflow.
Its unit is the HNF key: the diagonal (d0, ..., d_{n-1}) plus the
sub-diagonal cells in row-major order (1,0), (2,0), (2,1), (3,0), ...,
cell (i, j) in column i(i-1)/2 + j and ranging over [0, d_j).  A cell
with d_j = 1 is pinned to 0; ``_free_cells`` names the others, and every
step below walks only them.  A lattice object is built only for the
witness:

- The HNFs of index m fall into one block per diagonal with product m.
  Row k of a block holds the mixed-radix digits of k in its free cells.
  Rows are made in chunks of at most ``_CHUNK_CELLS`` rows x max(simplex
  points, m) cells, so a block is never held whole.
- ``_fit_rows`` reduces the simplex through every row of a chunk at once,
  the diagonal a constant and the free cells array columns, and a row
  fits when it yields all m mixed-radix residues.  Every reduction is a
  floor division by a Python int, x mod a = x - (x // a) a: numpy divides
  an int32 or int64 array by a scalar on a fast path (libdivide), while
  its ``divmod`` and ``%`` take the general one, about ten times slower
  per element.  A coordinate is reduced at the end only if no row's
  reduction left it in [0, a).  Row k's residues are offset by k m, so
  one scatter into a flat array of rows x m cells marks every row's
  cosets at once.
- Within a block, C order is lexicographic order of the flattened basis,
  which is the order of ``enumerate_sublattices``; so a block's first
  fitting row is its least, and the witness is the least of the block
  minima.  Each block is scanned only below the best key so far.
- A block is skipped when, for some k < n, its last k diagonal entries
  multiply to more than C(d+k, k).  Projecting onto the last k
  coordinates maps Z^n/L onto a group of that order, and the simplex onto
  the radius-d k-simplex, which has only C(d+k, k) points to cover it.
- A block whose diagonal ends in t >= 2 ones tests one row per class of
  its trailing t rows' cells under permutation.  Permuting those t
  coordinates maps the simplex onto itself and the block onto itself, so
  the verdict is constant on a class.  Each trailing row's free cells
  form one base-m digit of the row number (the last t digits, the last
  row least significant); the rows whose last t digits are
  non-decreasing are the least of their classes, so they hold the
  block's least fit.  ``_block_rows`` makes only those rows.
- ``candidates_scanned`` counts what ``enumerate_sublattices`` would
  yield up to and including the witness: every lattice of the indices
  above it, plus 1 + the witness's rank at its own index.  ``_rank``
  counts a block's rows below a key from the key's free cells, up to the
  first diagonal entry where the two differ.
- ``_fit_type`` picks each block's type once, from a worst-case bound on
  the values its arrays can take: int32 when the bound allows, which
  halves the memory each chunk moves, else int64.  A block whose values
  could leave int64, and that has rows left to test, stops the search
  with ``SearchTooLarge``; such a block is far too large to walk anyway.
  The simplex is built once, in the identity block's type, which every
  block's type holds, so the kernel gets it as a view.

The functions that build and test the arrays import numpy when a search
runs; importing the module does not load it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from .covering import simplex_size
from .errors import CapTooSmall, SearchTooLarge
# neither enumerate_sublattices nor fits_diameter is called here, but
# bench/tracing.py rebinds search.enumerate_sublattices and
# search.fits_diameter, so both names must stay bound
from .lattices import (
    IntegerLattice,
    count_sublattices,
    divisors,
    enumerate_sublattices,
)
from .tiles import fits_diameter, simplex_points

if TYPE_CHECKING:
    import numpy as np
# a cap on rows x max(simplex points, index) per batch
_CHUNK_CELLS = 1 << 20
# the types the fit test runs in, narrowest first, with their largest
# values; a chunk's flat index stays below max(_CHUNK_CELLS, m), and
# _CHUNK_CELLS is far inside each
_FIT_TYPES = (("int32", 2**31 - 1), ("int64", 2**63 - 1))


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


@functools.lru_cache(maxsize=1)
def _theta_factor(n: int) -> Fraction:
    """(n-1) + ((n-1)/(2n-1))^(n-1), the factor both bounds below share.

    Built without a gcd: the power of the reduced (n-1)/(2n-1) is reduced,
    and the sum's numerator (n-1)(2n-1)^(n-1) + (n-1)^(n-1) is coprime to
    (2n-1)^(n-1), since gcd(n-1, 2n-1) = 1.  The last n is kept, so the
    table of ``theta-bounds --d``, which asks both bounds at each n in
    turn, builds it once per n.
    """
    return (n - 1) + Fraction(n - 1, 2 * n - 1) ** (n - 1)


def fn_upper_bound(n: int, d: int) -> Fraction:
    """General order bound ((d+n)^n / (n n!)) (n-1 + ((n-1)/(2n-1))^(n-1)).

    Specializes exactly to the three- and four-generator bounds above, and
    to (d+2)^2/3 for n = 2.
    """
    if n < 2 or d < 0:
        raise ValueError("need n >= 2 and d >= 0")
    return Fraction((d + n) ** n, n * math.factorial(n)) * _theta_factor(n)


def theta_lower_bound(n: int) -> Fraction:
    """Covering-density lower bound n / (n-1 + ((n-1)/(2n-1))^(n-1))."""
    if n < 2:
        raise ValueError("need n >= 2")
    return n / _theta_factor(n)


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


@functools.lru_cache(maxsize=256)
def _free_cells(diag: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The sub-diagonal cells (i, j) that the HNFs with this diagonal can
    fill, in column order: those with diag[j] > 1.  Every other cell is
    pinned to 0.  Cell (i, j) is column i(i-1)/2 + j of a key's cells.
    Kept per diagonal, since every step of a block's scan asks for them."""
    big = [j for j, a in enumerate(diag) if a > 1]
    return tuple((i, j) for i in range(len(diag)) for j in big if j < i)


def _fit_type(diag: Sequence[int], d: int) -> Optional[str]:
    """The narrowest integer type of ``_FIT_TYPES``, int32 and then int64,
    that holds every value the block's arrays take when points with
    coordinates in [0, d] are reduced through its HNFs, or None when
    neither does; ``_least_fit`` then refuses the block.

    Row i's quotient is at most the bound on coordinate i, and a free cell
    (i, j) is below diag[j], so coordinate j grows by at most that product.
    A reduction x - (x // a) a has |(x // a) a| <= |x| + a - 1, at most
    max(|x|, 1) a, which max(bound) max(diag) covers.  The flat index
    stays below max(_CHUNK_CELLS, prod(diag)) (see ``_chunk_rows``), and
    the row numbers below the block's row count.
    """
    free = _free_cells(diag)
    bound = [d] * len(diag)
    for i, j in reversed(free):
        bound[j] += bound[i] * (diag[j] - 1)
    top = max(max(bound) * max(diag), math.prod(diag), math.prod(diag[j] for _, j in free))
    return next((name for name, most in _FIT_TYPES if top <= most), None)


def _ruled_out(diag: Sequence[int], d: int) -> bool:
    """True iff, for some k in 1..n-1, the last k diagonal entries multiply
    to more than C(d+k, k), so that no row of the block fits: the
    projection onto the last k coordinates maps the quotient onto a group
    of that order, and the simplex onto the radius-d k-simplex."""
    tail = 1
    for k in range(1, len(diag)):
        tail *= diag[-k]
        if tail > math.comb(d + k, k):
            return True
    return False


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


def _block_rows(diag: Sequence[int], lo: int, hi: int, dtype: str) -> np.ndarray:
    """The rows among lo..hi-1 of the diagonal's block that the search
    tests, as key cells of integer type ``dtype``, one column per
    sub-diagonal cell: row k holds the mixed-radix digits of k in the free
    cells, the last one the least significant, and 0 in the pinned ones.
    When the diagonal ends in t >= 2 ones, only the k whose last t base-m
    digits are non-decreasing, the least of their classes, are made.  The
    row numbers are made in ``dtype`` too, so it must hold hi."""
    import numpy as np
    n = len(diag)
    k = np.arange(lo, hi, dtype=dtype)
    t = next((i for i, a in enumerate(reversed(diag)) if a > 1), n)
    if t >= 2:
        m = math.prod(diag)
        q = k // m
        low = k - q * m
        keep = np.ones(len(k), dtype=bool)
        for _ in range(t - 1):
            rest = q
            q = rest // m
            digit = rest - q * m
            keep &= digit <= low
            low = digit
        k = k[keep]
    rows = np.zeros((len(k), n * (n - 1) // 2), dtype=dtype)
    for i, j in reversed(_free_cells(diag)):
        q = k // diag[j]
        rows[:, i * (i - 1) // 2 + j] = k - q * diag[j]
        k = q
    return rows


def _basis(diag: Sequence[int], cells: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The HNF basis of the key (diag, cells), cells as Python ints."""
    n = len(diag)
    return tuple(
        tuple(cells[i * (i - 1) // 2 : i * (i + 1) // 2]) + (diag[i],) + (0,) * (n - i - 1)
        for i in range(n)
    )


def _rank(diag: Sequence[int], key) -> int:
    """Number of rows in the diagonal's block whose basis is
    lexicographically less than the basis of ``key`` = (diagonal, cells).

    Leaving out the entries above the diagonal, 0 in every basis, the
    flattened basis reads d0, c10, d1, c20, c21, d2, ...  The walk stops
    at the first diagonal entry p where the key differs from the block:
    every cell before it is a cell (i, j) with j < i <= p, which is free in
    the key exactly when it is free in the block, and the block's rows
    that agree with the key up to p are all less than it iff diag[p] is.
    """
    key_diag, key_cells = key
    n = len(diag)
    p = next((i for i in range(n) if diag[i] != key_diag[i]), n)
    free = _free_cells(diag)
    rest = math.prod(diag[j] for _, j in free)
    rank = 0
    for i, j in free:
        if i > p:
            break
        rest //= diag[j]
        rank += key_cells[i * (i - 1) // 2 + j] * rest
    return rank + (rest if p < n and diag[p] < key_diag[p] else 0)


def _simplex(n: int, d: int) -> np.ndarray:
    """The C(d+n, n) points of the radius-d simplex, one per row, in the
    type ``_fit_type`` gives the identity's block (1, ..., 1) at d.  Its
    bound, max(d, 1), is the least of any block's, so ``_fit_rows`` views
    the simplex in a block's type or widens it.  When that type is None,
    numpy picks one, and ``_fit_type`` gives every block None."""
    import numpy as np
    return np.array(list(simplex_points(n, d)), dtype=_fit_type((1,) * n, d))


def _fit_rows(diag: Sequence[int], cells: np.ndarray, simplex: np.ndarray) -> np.ndarray:
    """Per row of key ``cells``, whether the HNF with this diagonal has a
    tile of diameter at most d, i.e. whether the radius-d ``simplex`` meets
    every coset.

    From the last row up, a row i with free cells reduces coordinate i and
    takes its quotient off the coordinates of those cells.  Coordinate i is
    then in [0, diag[i]); the others, and only those, are reduced at the
    end.  Row k's residues are encoded in mixed radix after the offset k m,
    so one flat scatter of rows x m cells marks the cosets of every row.
    Every array is of the cells' integer type; the simplex is viewed in it
    when it is of that type already, else widened, and never written."""
    import numpy as np
    free = _free_cells(diag)
    m = math.prod(diag)
    # coordinate j of every point; gains the row axis
    r = list(simplex.astype(cells.dtype, copy=False).T)
    row = len(diag)
    for i, j in reversed(free):
        if i < row:
            row, a = i, diag[i]
            if a == 1:
                q = r[i]  # coordinate i is not encoded
            else:  # floor division by a Python int takes numpy's fast path
                q = r[i] // a
                r[i] = r[i] - q * a
        r[j] = r[j] - q * cells[:, i * (i - 1) // 2 + j, None]
    reduced = {i for i, _ in free}
    flat = np.arange(0, len(cells) * m, m, dtype=cells.dtype)[:, None]
    stride = 1
    for j, a in enumerate(diag):
        if a > 1:
            x = r[j] if j in reduced else r[j] - r[j] // a * a
            flat = flat + (x if stride == 1 else x * stride)
            stride *= a
    seen = np.zeros(len(cells) * m, dtype=bool)
    seen[flat.ravel()] = True
    return seen.reshape(len(cells), m).all(axis=1)


def _chunk_rows(diag: Sequence[int], points: int) -> int:
    """Rows per chunk of the diagonal's block: at most ``_CHUNK_CELLS``
    cells of rows x max(points, m), m = prod(diag), and at least one row.

    ``_fit_rows`` indexes rows x m cells, so its flat index stays below
    max(_CHUNK_CELLS, m): a one-row chunk indexes m cells, which
    ``_fit_type`` keeps within the block's type, and a longer one at most
    ``_CHUNK_CELLS``, far inside int32."""
    return max(1, _CHUNK_CELLS // max(points, math.prod(diag)))


def _least_fit(diag: tuple[int, ...], d: int, simplex: np.ndarray, limit: int):
    """Cells of the first of the block's rows 0..limit-1 that fits, or None.
    Only the rows ``_block_rows`` makes are tested.  Raises
    ``SearchTooLarge`` when rows are left to test and ``_fit_type`` finds
    no type for them."""
    size = _chunk_rows(diag, len(simplex))
    dtype = _fit_type(diag, d)
    if dtype is None and limit > 0:
        raise SearchTooLarge(
            f"n = {len(diag)}, d = {d}: the lattices of index {math.prod(diag)} "
            f"with diagonal {diag} could overflow int64 in the fit test"
        )
    for lo in range(0, limit, size):
        cells = _block_rows(diag, lo, min(lo + size, limit), dtype)
        fits = _fit_rows(diag, cells, simplex)
        if fits.any():
            return cells[fits.argmax()].tolist()
    return None


def _scan_index(n: int, d: int, m: int, simplex: np.ndarray):
    """Least lattice of index m whose tile has diameter at most d.

    Returns (inspected_count, lattice_or_None): the count runs, in the
    order of ``enumerate_sublattices``, up to and including the fit, or
    over all lattices of the index when none fits.
    """
    diags = _diagonals(n, m)
    sizes = [math.prod(diag[j] for _, j in _free_cells(diag)) for diag in diags]
    if sum(sizes) != count_sublattices(n, m):
        raise RuntimeError(
            f"blocks of index {m} in dimension {n} hold {sum(sizes)} rows, "
            f"not {count_sublattices(n, m)}"
        )
    best = None  # the key (diagonal, cells) of the least fit so far
    for diag, size in zip(diags, sizes):
        if _ruled_out(diag, d):
            continue
        # only rows below the best so far are scanned, so a fit replaces it
        cells = _least_fit(diag, d, simplex, size if best is None else _rank(diag, best))
        if cells is not None:
            best = (diag, cells)
    if best is None:
        return sum(sizes), None
    return 1 + sum(_rank(diag, best) for diag in diags), IntegerLattice(n, _basis(*best))


def brute_force_f(n: int, d: int, index_cap: Optional[int] = None) -> SearchReport:
    """Exhaustive value of the degree-diameter function for n generators.

    Scans indices downward from the cap, the least proven one, and stops at
    the first index with a witness lattice; the witness is the
    lexicographically least successful HNF basis at that index.  With the
    default cap the scan is exhaustive.  A user-supplied cap below the true
    value yields the best value under the cap, flagged non-exhaustive.
    ``candidates_scanned`` counts the lattices enumerated up to and
    including the witness.
    """
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    return _search(n, d, index_cap, _simplex(n, d))


def _search(n: int, d: int, index_cap: Optional[int], simplex: np.ndarray) -> SearchReport:
    """``brute_force_f`` on the C(d+n, n) points of the radius-d simplex,
    in any order."""
    binomial_cap = simplex_size(n, d)
    paper_upper = fn_upper_bound(n, d) if n >= 2 else Fraction(d + 1)
    # the paper's cap is proven for n <= 4; past that it is only reported
    default_cap = min(binomial_cap, math.floor(paper_upper)) if n <= 4 else binomial_cap
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
    below as d grows.  The simplex is built once, at the largest radius:
    its points come shell by shell, so each radius searches on a prefix.
    """
    if not d_values:
        return []
    if n < 1 or min(d_values) < 0:
        raise ValueError("need n >= 1 and d >= 0")
    simplex = _simplex(n, max(d_values))
    rows = []
    for d in d_values:
        size = simplex_size(n, d)
        report = _search(n, d, index_cap, simplex[:size])
        rows.append((d, Fraction(size, report.f_value), report.witness))
    return rows
