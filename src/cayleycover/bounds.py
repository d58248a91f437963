"""Numeric verification of the four-dimensional tile-volume bounds.

A tile of M-diameter d* sits inside the solid simplex of radius d*.  The
volume argument splits on whether the tile has a notch.  Without one, the
wasted volume under the far facet is at least four copies of a projected
region integral whose closed form is d*^4/384, giving the tile at most
d*^4/32.  With a notch at (v, v, v, v) the same integral shrinks to
2v^4 - (4 d*/3) v^3 + (d*^2/4) v^2, a pocket of volume (d* - 4v)^4/24 is
also lost, and the resulting quartic bound peaks at v = d*/7 with value
11 d*^4/343: its derivative factors as -224/3 (v - d*/4)^2 (v - d*/7), so
it rises on [0, d*/7] and falls on [d*/7, d*/4].  Simpson's rule, exact on
that cubic, ties the stated derivative to the quartic.

The no-notch case is the notch case at v = d*/4, and one polynomial in
one variable gives both integrals.  Write r = d* - sum(x):

- On the no-notch region min(x) >= r, so a point there is in the pocket
  {min(x) >= v, r >= v} exactly when r >= v.  The notch region is the
  slab 0 <= r < v of the no-notch region.
- The slice at level r is {x >= r, sum(x) = d* - r}, empty past
  r = d*/4.  Its projection to (x_1, x_2) is a right triangle with legs
  d* - 4r, and dx = dx_1 dx_2 dr, so the slice measures (d* - 4r)^2 / 2.
  The notch integral is the integral of r (d* - 4r)^2 / 2 over [0, v], a
  cubic, on which Simpson's rule is exact: rational inputs give the exact
  rational, float inputs a float.
- At v = d*/4 the pocket is the one point (d*/4, d*/4, d*/4), a null set,
  and the slab is the whole region.  The closed forms agree: the notch
  integral at v = d*/4 is d*^4/384, the quartic bound there is d*^4/32,
  and the pocket volume is 0.

This module provides the region membership predicates, Monte-Carlo
estimates of the integrals, an exact quadrature of the slices, exact
rational twins of every closed form, and the verification battery
``bound_check_battery`` that checks them against each other.  The
polynomial identities are homogeneous in (d*, v), so a few exact ratios
v/d* decide them with no floating error and no sampling.  Monte-Carlo
streams are keyed by (seed, chunk), for a seed in [0, 2^64), so estimates
are reproducible.  Every region integral, the battery's and the public
estimators', comes from ``_region_estimates``.  By Monte Carlo each chunk's
stream is drawn once, for all the notches and, in the battery, every
pocket: the 3-D points are the first 3m of the 4m doubles the 4-D points
take, exactly what a 3-D pass alone draws, so each battery estimate
equals its public estimator's.  The chunks run on one worker thread per
available core, and the estimates are the same bits at any core count:
the streams open in chunk order, one worker reduces each chunk whole with
the serial sequence of ufuncs, and ``math.fsum`` combines the chunk sums
exactly, so no order of the chunks can move an estimate.
Only the Monte-Carlo functions use numpy, and they import it when they run:
the exact checks and the quadrature never load it.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import BadBatteryInput, BadSampleCount, DimensionMismatch

if TYPE_CHECKING:
    import numpy as np
DEFAULT_SEED = 1729

_MC_CHUNK = 1 << 16


def _exact(x):
    """Coerce to Fraction for exact arithmetic; floats stay floats."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return float(x)


@dataclass(frozen=True)
class NotchConfig:
    """Diameter d* and notch coordinate v, with the notch at (v, v, v, v)."""

    d_star: object
    v: object

    def __post_init__(self):
        d = _exact(self.d_star)
        v = _exact(self.v)
        if d <= 0:
            raise ValueError("d_star must be positive")
        if not 0 <= v <= d / 4:
            raise ValueError("v must lie in [0, d_star / 4]")


@dataclass(frozen=True)
class IntegralEstimate:
    """For Monte Carlo, ``samples`` counts the draws.  For the exact
    quadrature, ``value`` is the integral itself and ``samples`` is 1, the
    one slice polynomial integrated."""

    value: object
    std_error: float
    samples: int
    method: str
    seed: Optional[int]

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")
        if self.method == "monte_carlo" and self.samples < 1:
            raise ValueError("monte_carlo estimates need at least one sample")


# ---------------------------------------------------------------------------
# region membership

def in_region_no_notch(x: Sequence, d_star) -> bool:
    """Projected far-facet region: x >= 0, sum <= d*, d* - sum <= min(x).

    All inequalities are closed; the boundary has measure zero, so the
    convention cannot move any integral.
    """
    if len(x) != 3:
        raise DimensionMismatch("region membership takes a 3-vector")
    s = x[0] + x[1] + x[2]
    return all(xi >= 0 for xi in x) and s <= d_star and d_star - s <= min(x)


def in_region_notch(x: Sequence, config: NotchConfig) -> bool:
    """No-notch region minus the pocket {x_i >= v for all i, d* - sum >= v}."""
    if not in_region_no_notch(x, config.d_star):
        return False
    s = x[0] + x[1] + x[2]
    v = config.v
    in_pocket = min(x) >= v and config.d_star - s >= v
    return not in_pocket


def _notch_region(d: float, s: np.ndarray, mn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """From sums and minima: d* - sum(x) on the no-notch region and 0 off
    it, and d* - sum(x).  On the region d* - sum(x) <= min(x), so the
    pocket at v holds the region's points where d* - sum(x) >= v; the
    notches share the first array and differ only in where they cut the
    second: the integrand at v is ``base * (rest < v)``.  The region values
    are finite and >= +0.0, so that product is
    ``np.where(rest < v, base, 0.0)`` bit for bit, with no branch.  The same
    holds for ``base`` itself, ``rest`` times the region mask: off the
    region, where ``rest`` may be negative, the product is -0.0, and adding
    +0.0 turns it into +0.0 and leaves every other value as it is, so a
    chunk with no point in the region sums to 0.0."""
    rest = d - s
    return rest * ((s <= d) & (rest <= mn)) + 0.0, rest


# ---------------------------------------------------------------------------
# Monte Carlo

def _philox(seed: int, chunk: int) -> np.random.Generator:
    import numpy as np
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    return np.random.Generator(np.random.Philox(key=(seed << 64) | chunk))


def _sums_and_minima(u: np.ndarray, d: float, buf: np.ndarray, with_sums: bool):
    """Coordinate sums (if with_sums) and minima of the simplex points
    d (u_(1), u_(2) - u_(1), ...), one per row of uniforms u, worked out in
    place in buf, which has a row per coordinate plus a spare.

    A network of compare-exchanges sorts the coordinates to the same rows
    as ``np.sort``, and every step is the ufunc the whole-row form uses, in
    the same order, so the results are bit for bit the same.
    """
    import numpy as np
    m, dim = u.shape
    rows = list(buf[:, :m])
    x, spare = rows[:dim], rows[dim]
    np.copyto(buf[:dim, :m], u.T)
    for i in range(1, dim):  # insertion sort, as a network
        for j in range(i, 0, -1):
            np.minimum(x[j - 1], x[j], out=spare)
            np.maximum(x[j - 1], x[j], out=x[j])
            x[j - 1], spare = spare, x[j - 1]
    for j in range(dim - 1, 0, -1):  # spacings, top down so x[j - 1] is still sorted
        np.subtract(x[j], x[j - 1], out=x[j])
        np.multiply(x[j], d, out=x[j])
    np.multiply(x[0], d, out=x[0])
    s = None
    if with_sums:
        s = np.add(x[0], x[1], out=spare)
        for xj in x[2:]:
            np.add(s, xj, out=s)
    for xj in x[1:]:
        np.minimum(x[0], xj, out=x[0])
    return s, x[0]


def _cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _mc_over_simplex(
    d_star, ws, vs, samples, seed
) -> tuple[list[IntegralEstimate], list[IntegralEstimate]]:
    """Monte-Carlo estimates over solid simplices {x >= 0, sum <= d*}: per
    w in ws the 3-D region integral with the notch at (w, w, w, w), per v
    in vs the volume of the 4-D pocket above (v, v, v, v).  Returns the two
    lists of estimates.

    Samples via sorted-uniform spacings (uniform on the simplex).  Each
    chunk of m points draws its stream, keyed by (seed, chunk), once: 4m
    doubles when vs is not empty, else 3m.  The 3-D points are the first 3m
    doubles, which is what ``random((m, 3))`` draws from that key, so every
    estimate equals the one a pass for it alone would give.  The notches
    share one region mask and differ only in which points the pocket takes;
    a pocket's sum of values and of squares are both its count of hits.
    Per estimate, chunk sums are combined with exact float summation and
    scaled by the simplex volume.

    The chunks run on one worker per available core, at most one per
    chunk; the calling thread is one of them, and the only one on a single
    core.  The outputs are the same bits at any worker count:

    - Workers take chunks from one shared iterator and open each chunk's
      stream under a lock, so the streams open in chunk order.
    - One worker reduces a chunk whole, in its own buffer, by the same
      ufuncs in the same order, so each chunk's sums are the serial ones.
    - ``math.fsum`` rounds the exact sum of its inputs once, so no order of
      the chunks can move an estimate; the sums are still stored by chunk.

    Every worker has stopped when the call returns.  After a chunk raises,
    no worker takes another, and the exception of the lowest failed chunk,
    the one the serial loop would meet first, is raised again unchanged.
    """
    import numpy as np
    if samples < 1:
        raise BadSampleCount(f"need at least one sample, got {samples}")
    d = float(d_star)
    width = 4 if vs else 3
    chunks = -(-samples // _MC_CHUNK)
    order = iter(range(chunks))
    lock = threading.Lock()
    parts = [None] * chunks  # per chunk, per estimate: the sum of values and of squares
    failures = {}  # per failed chunk, the exception it raised

    def work():
        buf = np.empty((width + 1, min(samples, _MC_CHUNK)))
        chunk = 0
        try:
            while True:
                with lock:
                    chunk = chunks if failures else next(order, chunks)
                    if chunk == chunks:  # none left, or a chunk failed
                        return
                    stream = _philox(seed, chunk)
                m = min(_MC_CHUNK, samples - chunk * _MC_CHUNK)
                flat = stream.random(m * width)
                sums = []
                if ws:
                    s, mn = _sums_and_minima(flat[: 3 * m].reshape(m, 3), d, buf, True)
                    base, rest = _notch_region(d, s, mn)
                    for w in ws:
                        values = base * (rest < w)
                        sums.append((float(values.sum()), float(np.square(values).sum())))
                if vs:
                    _, mn = _sums_and_minima(flat.reshape(m, 4), d, buf, False)
                    for v in vs:
                        hits = float(np.count_nonzero(mn >= v))
                        sums.append((hits, hits))
                parts[chunk] = sums
        except BaseException as exc:  # raised again by the caller once all workers stop
            with lock:
                failures[chunk] = exc

    threads = []
    try:
        for _ in range(min(_cores(), chunks) - 1):
            thread = threading.Thread(target=work)
            thread.start()
            threads.append(thread)
        work()
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[min(failures)]
    estimates = []
    for dim, per_chunk in zip([3] * len(ws) + [4] * len(vs), zip(*parts)):
        volume = d**dim / math.factorial(dim)
        total, total_sq = zip(*per_chunk)
        mean = math.fsum(total) / samples
        var = max(0.0, math.fsum(total_sq) / samples - mean * mean)
        if samples > 1:
            var *= samples / (samples - 1)
        err = volume * math.sqrt(var / samples)
        estimates.append(IntegralEstimate(volume * mean, err, samples, "monte_carlo", seed))
    return estimates[: len(ws)], estimates[len(ws):]


# ---------------------------------------------------------------------------
# exact quadrature over the slices r = d* - sum(x)

def _simpson(f, a, b):
    """Simpson's rule on [a, b]; exact for polynomials of degree <= 3.
    An empty interval gives a zero of the limits' type."""
    return (b - a) * (f(a) + 4 * f((a + b) / 2) + f(b)) / 6


def _normalize_method(method: str) -> str:
    token = method.lower()
    if token in ("monte_carlo", "mc"):
        return "monte_carlo"
    if token in ("nested_quadrature", "quad"):
        return "nested_quadrature"
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# integral estimates

def _region_estimates(
    d_star, ws, method, samples, seed, vs=()
) -> tuple[list[IntegralEstimate], list[Optional[IntegralEstimate]]]:
    """The region integral with the notch at (w, w, w, w), one estimate per
    w in ws, by Monte Carlo or by the exact quadrature; w = d*/4 gives the
    no-notch region.  Also one pocket volume per v in vs: by Monte Carlo,
    from the same draws, and None by the quadrature, which has no pocket
    estimate.  Returns the two lists.  Monte Carlo makes one pass for all
    of them, in which equal floats w share one estimate."""
    if _normalize_method(method) == "monte_carlo":
        d = float(d_star)
        keys = list(dict.fromkeys(float(w) for w in ws))
        region, pockets = _mc_over_simplex(d, keys, [float(v) for v in vs], samples, seed)
        by_w = dict(zip(keys, region))
        return [by_w[float(w)] for w in ws], pockets
    # the slab r < w, slice by slice: r times the slice area (d* - 4r)^2 / 2
    d = _exact(d_star)
    values = [_simpson(lambda r: r * (d - 4 * r) ** 2 / 2, 0, _exact(w)) for w in ws]
    return [IntegralEstimate(x, 0.0, 1, "nested_quadrature", None) for x in values], [None] * len(vs)


def integral_no_notch(
    d_star,
    method: str = "monte_carlo",
    samples: int = 1_000_000,
    seed: int = DEFAULT_SEED,
) -> IntegralEstimate:
    """Estimate of the no-notch region integral, closed form d*^4/384: the
    notch-case integral at v = d*/4."""
    return integral_notch(NotchConfig(d_star, _exact(d_star) / 4), method, samples, seed)


def integral_notch(
    config: NotchConfig,
    method: str = "monte_carlo",
    samples: int = 1_000_000,
    seed: int = DEFAULT_SEED,
) -> IntegralEstimate:
    """Estimate of the notch-case region integral.

    Closed form 2v^4 - (4 d*/3) v^3 + (d*^2/4) v^2.
    """
    return _region_estimates(config.d_star, [config.v], method, samples, seed)[0][0]


def notch_region_volume_estimate(
    config: NotchConfig,
    samples: int = 1_000_000,
    seed: int = DEFAULT_SEED,
) -> IntegralEstimate:
    """Monte-Carlo volume of the pocket {p in simplex : p >= (v, v, v, v)}."""
    return _mc_over_simplex(config.d_star, [], [float(config.v)], samples, seed)[1][0]


# ---------------------------------------------------------------------------
# closed forms (exact for int/Fraction inputs)

def no_notch_integral_value(d_star):
    d = _exact(d_star)
    return d**4 / 384


def notch_integral_value(d_star, v):
    d, w = _exact(d_star), _exact(v)
    return 2 * w**4 - 4 * d * w**3 / 3 + d**2 * w**2 / 4


def notch_region_volume(config: NotchConfig):
    """Volume of the pocket above the notch: (d* - 4v)^4 / 24."""
    d, v = _exact(config.d_star), _exact(config.v)
    return (d - 4 * v) ** 4 / 24


def notch_volume_bound(d_star, v):
    """Tile-volume bound in the notch case, as a quartic in v."""
    d, w = _exact(d_star), _exact(v)
    return -56 * w**4 / 3 + 16 * d * w**3 - 5 * d**2 * w**2 + 2 * d**3 * w / 3


def notch_volume_bound_derivative(d_star, v):
    d, w = _exact(d_star), _exact(v)
    return -224 * w**3 / 3 + 48 * d * w**2 - 10 * d**2 * w + 2 * d**3 / 3


def no_notch_volume_bound(d_star):
    """Tile-volume bound without a notch: d*^4/24 - 4 (d*^4/384) = d*^4/32."""
    d = _exact(d_star)
    return d**4 / 24 - 4 * no_notch_integral_value(d)


def notch_identity_residual(d_star, v):
    """Assembled bound minus its expanded quartic; identically zero."""
    d, w = _exact(d_star), _exact(v)
    assembled = (
        d**4 / 24
        - 4 * notch_integral_value(d, w)
        - (d - 4 * w) ** 4 / 24
    )
    return assembled - notch_volume_bound(d, w)


def derivative_factorization_residual(d_star, v):
    """Derivative of the quartic bound minus -224/3 (v - d*/4)^2 (v - d*/7)."""
    d, w = _exact(d_star), _exact(v)
    factored = -224 * (w - d / 4) ** 2 * (w - d / 7) / 3
    return notch_volume_bound_derivative(d, w) - factored


def derivative_integral_residual(d_star, v):
    """Rise of the quartic bound over [0, v] minus Simpson's rule on its
    stated derivative; identically zero iff the derivative is the quartic's,
    since Simpson's rule is exact on a cubic."""
    d, w = _exact(d_star), _exact(v)
    q, dq = notch_volume_bound, notch_volume_bound_derivative
    return q(d, w) - q(d, 0) - _simpson(lambda x: dq(d, x), 0, w)


@dataclass(frozen=True)
class NotchOptimum:
    v_max: object
    max_value: object
    v_local_min: object
    local_min_value: object


def optimize_notch(d_star) -> NotchOptimum:
    """Stationary structure of the quartic bound on [0, d*/4].

    Its derivative is -224/3 (v - d*/4)^2 (v - d*/7), as the vanishing of
    derivative_integral_residual and derivative_factorization_residual
    shows; that is >= 0 up to d*/7 and <= 0 after, so the maximum is 11 d*^4/343 at v = d*/7, and the falling
    leg ends at the double root v = d*/4 with d*^4/32.  The quartic is
    evaluated at both points in exact rationals, float inputs too, and a
    mismatch with the stated value raises RuntimeError.
    """
    d = _exact(d_star)
    if d <= 0:
        raise ValueError("d_star must be positive")
    q = Fraction(d)
    for v, stated in ((q / 7, 11 * q**4 / 343), (q / 4, q**4 / 32)):
        if notch_volume_bound(q, v) != stated:
            raise RuntimeError(f"the quartic at v={v} is not the stated {stated}")
    return NotchOptimum(d / 7, 11 * d**4 / 343, d / 4, d**4 / 32)


def tile_volume_bound_dim4(d: int) -> Fraction:
    """Largest admissible tile volume at diameter d+4: 11(d+4)^4/343.

    The no-notch bound d*^4/32 is the quartic at v = d*/4, the end of its
    falling leg, so the overall bound is the quartic's maximum.
    """
    if d < 0:
        raise ValueError("need d >= 0")
    return optimize_notch(Fraction(d + 4)).max_value


# ---------------------------------------------------------------------------
# the verification battery

# pass gates of the Monte-Carlo checks
MC_SIGMA_GATE = 3.0
MC_REL_TOL = 1e-2


@dataclass(frozen=True)
class BoundCheck:
    name: str
    estimate: float
    closed_form: float
    abs_err: float
    rel_err: float
    std_err: float
    passed: bool

    def as_dict(self) -> dict:
        fields = asdict(self)
        fields["pass"] = fields.pop("passed")
        return fields


def _check(name, value, expected, passed=None, std_err=0.0) -> BoundCheck:
    """The record of ``value`` against ``expected``.  ``rel_err`` is
    ``abs_err / |closed_form|``; for a closed form of 0 it is 0 if
    ``abs_err`` is 0, else inf.  It passes on ``value == expected`` unless
    ``passed`` is given."""
    closed = float(expected)
    abs_err = abs(float(value - expected))
    if closed == 0.0:
        rel_err = 0.0 if abs_err == 0.0 else float("inf")
    else:
        rel_err = abs_err / abs(closed)
    if passed is None:
        passed = value == expected
    return BoundCheck(name, float(value), closed, abs_err, rel_err, std_err, passed)


def _mc_check(name, estimate, closed) -> BoundCheck:
    check = _check(name, estimate.value, closed, std_err=estimate.std_error)
    # float rounding of the closed form: at most 4 ulp over 10^5 random d*, so 8
    gate = MC_SIGMA_GATE * check.std_err + 8 * math.ulp(check.closed_form)
    return replace(check, passed=check.abs_err <= gate and check.rel_err <= MC_REL_TOL)


def bound_check_battery(
    d_star: Fraction,
    vs=None,
    method: str = "mc",
    samples: int = 1_000_000,
    seed: int = DEFAULT_SEED,
) -> list[BoundCheck]:
    """All verification checks at one diameter, as BoundCheck records.

    The integrals come first: the no-notch one, then per v the notch one
    and, by Monte Carlo, the pocket volume.  Monte-Carlo estimates pass
    within MC_SIGMA_GATE standard errors and MC_REL_TOL of the closed form,
    the exact quadrature by ``==``.

    Besides the integrals, every check is an exact decision.  The notch
    identity, the derivative factorization and the derivative's integral
    (Simpson's rule on the cubic derivative against the quartic's rise) are
    homogeneous in (d*, v), of degree 4, 3 and 4, so r(d*, v) =
    d*^k r(1, v/d*): for d* > 0 they hold for every v iff r(1, t), of
    degree <= 4, vanishes at five distinct t, here t = k/16 for k = 0..4.
    So the stated derivative is the quartic's, and by its factorization the
    quartic rises up to d*/7 and falls after it; no point d* i/40000 of the
    10^4-step grid hits d*/7, so the grid maximum is at one of the two
    points around it.

    Inputs no check could be decided at raise ``BadBatteryInput``, before
    any work: a seed outside [0, 2^64), by either method, as the stream key
    holds 64 bits of it; d* <= 0, or a v outside [0, d*/4]; a d* whose
    fourth power, and so the closed forms, overflow a float; and, by Monte
    Carlo, a d* at which d*^4/384 rounds to 0, where every estimate and
    its closed form would be 0 and pass.
    """
    # the checks decide by ==, so a float d* or v is taken at its exact
    # value; an int d* would turn d*/8 and the probes d* k/16 into floats
    d_star = Fraction(d_star)
    if vs is None:
        vs = [d_star / 8, d_star / 7, d_star / 4]
    else:
        vs = [Fraction(v) for v in vs]
    mc = _normalize_method(method) == "monte_carlo"
    if not 0 <= seed < 1 << 64:
        raise BadBatteryInput(f"seed must lie in [0, 2^64), got {seed}")
    try:
        configs = [NotchConfig(d_star, v) for v in vs]
    except ValueError as exc:
        raise BadBatteryInput(str(exc)) from None
    try:
        float(d_star**4)
    except OverflowError:
        raise BadBatteryInput(
            "d_star is too large: the closed forms (degree 4 in d*) do not fit in a float"
        ) from None
    if mc and float(d_star**4 / 384) == 0:
        raise BadBatteryInput(
            "d_star is too small for method mc: d*^4/384 rounds to 0 as a float, "
            "so no estimate could miss its closed form; method quad is exact"
        )
    tag = "mc" if mc else "quad"

    def integral(name, est, closed):
        return _mc_check(name, est, closed) if mc else _check(name, est.value, closed)

    region, pockets = _region_estimates(d_star, [d_star / 4, *vs], method, samples, seed, vs)
    checks = [integral(f"integral_no_notch[{tag}]", region[0], no_notch_integral_value(d_star))]
    for cfg, notch, pocket in zip(configs, region[1:], pockets):
        closed = notch_integral_value(d_star, cfg.v)
        checks.append(integral(f"integral_notch[{tag}] v={cfg.v}", notch, closed))
        if pocket is not None:
            closed = notch_region_volume(cfg)
            checks.append(_mc_check(f"notch_region_volume[mc] v={cfg.v}", pocket, closed))

    probes = [d_star * k / 16 for k in range(5)]

    def worst(*residuals):
        return max(abs(residual(d_star, v)) for residual in residuals for v in probes)

    no_notch = no_notch_volume_bound(d_star)
    peak = 11 * d_star**4 / 343
    try:
        optimize_notch(d_star)
        stated = True
    except RuntimeError:  # the quartic misses a stated value: a failed check
        stated = False
    below = 40_000 // 7
    grid_max = max(notch_volume_bound(d_star, d_star * i / 40_000) for i in (below, below + 1))
    return checks + [
        _check("no_notch_volume_identity", no_notch, d_star**4 / Fraction(32)),
        _check("notch_bound_identity", worst(notch_identity_residual), Fraction(0)),
        _check(
            "derivative_factorization",
            worst(derivative_factorization_residual, derivative_integral_residual),
            Fraction(0),
        ),
        _check("notch_optimum_grid", grid_max, peak, stated and grid_max <= peak),
        _check("notch_max_dominates_no_notch", peak, no_notch, peak > no_notch),
        _check(
            "integral_scaling_law",
            no_notch_integral_value(2 * d_star),
            16 * no_notch_integral_value(d_star),
        ),
    ]
