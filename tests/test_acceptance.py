"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion; the test names carry the criterion numbers as well.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from cayleycover import (
    IntegerLattice,
    NotchConfig,
    brute_force_f,
    build_tile,
    continuous_cover_falsify,
    density_trend,
    derivative_factorization_residual,
    f2_closed_form,
    f3_upper_bound,
    f4_upper_bound,
    find_notch,
    fn_upper_bound,
    hnf_normalize,
    integral_no_notch,
    integral_notch,
    is_tiling,
    no_notch_integral_value,
    no_notch_volume_bound,
    notch_identity_residual,
    notch_integral_value,
    notch_region_volume,
    notch_region_volume_estimate,
    notch_volume_bound,
    optimize_notch,
    reduce_mod,
    simplex_size,
    theta_lower_bound,
    tile_from_difference,
)
from conftest import bfs_quotient_diameter, brute_notch_candidates, make_corpus


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def f2_reports():
    return {d: brute_force_f(2, d) for d in range(9)}


@pytest.fixture(scope="module")
def f3_reports():
    return {d: brute_force_f(3, d) for d in range(4)}


@pytest.fixture(scope="module")
def corpus_tiles():
    corpus = make_corpus(90, [(2, 60, 130), (3, 60, 130), (4, 30, 60)])
    assert len(corpus) >= 300
    return [(lattice, build_tile(lattice)) for lattice in corpus]


def test_criterion_1_exhaustive_f2_matches_closed_form(f2_reports):
    started = time.perf_counter()
    expected = [1, 3, 5, 8, 12, 16, 21, 27, 33]
    values = [f2_reports[d].f_value for d in range(9)]
    formula = [f2_closed_form(d) for d in range(9)]
    elapsed = time.perf_counter() - started
    ok = values == expected == formula and all(
        f2_reports[d].exhaustive for d in range(9)
    ) and elapsed < 300
    report(1, ok, f"f(2,0..8) = {values}, exhaustive, {elapsed:.1f}s")


def test_criterion_2_f3_bounds_and_revalidated_witnesses(f3_reports):
    ok = True
    for d, rep in f3_reports.items():
        ok &= rep.exhaustive
        ok &= rep.f_value <= math.floor(f3_upper_bound(d))
        ok &= rep.f_value <= math.comb(d + 3, 3)
        ok &= rep.witness.det == rep.f_value
        ok &= bfs_quotient_diameter(rep.witness) <= d
        ok &= hnf_normalize(rep.witness.basis) == rep.witness
    ok &= f3_reports[0].f_value == 1 and f3_reports[1].f_value == 4
    values = [f3_reports[d].f_value for d in range(4)]
    report(2, ok, f"f(3,0..3) = {values} within both caps, witnesses revalidated")


def test_criterion_3_property_suite_over_corpus(corpus_tiles):
    violations = 0
    for lattice, tile in corpus_tiles:
        pts = tile.point_set
        if len(pts) != lattice.det:
            violations += 1
        if not all(
            p[:j] + (p[j] - 1,) + p[j + 1 :] in pts
            for p in pts
            for j in range(tile.dim)
            if p[j] > 0
        ):
            violations += 1
        if not is_tiling(tile.points, lattice):
            violations += 1
        _, minimal = brute_notch_candidates(tile.points, tile.dim)
        if len(minimal) > 1:
            violations += 1
        if find_notch(tile) != (minimal[0] if minimal else None):
            violations += 1
        if tile_from_difference(lattice, tile.m_diameter) != pts:
            violations += 1
        if bfs_quotient_diameter(lattice) != tile.m_diameter:
            violations += 1
    report(
        3,
        violations == 0,
        f"{len(corpus_tiles)} lattices, all six tile properties, "
        f"{violations} violations",
    )


def test_criterion_4_exact_rational_identities():
    ok = theta_lower_bound(3) == Fraction(25, 18)
    ok &= theta_lower_bound(4) == Fraction(343, 264)
    for d in range(101):
        ok &= fn_upper_bound(3, d) == Fraction(3 * (d + 3) ** 3, 25)
        ok &= fn_upper_bound(4, d) == Fraction(11 * (d + 4) ** 4, 343)
    rng = random.Random(91)
    for _ in range(1000):
        d_star = Fraction(rng.randint(1, 999), rng.randint(1, 99))
        v = d_star * Fraction(rng.randint(0, 4096), 4096) / 4
        ok &= no_notch_volume_bound(d_star) == d_star**4 / 32
        ok &= notch_identity_residual(d_star, v) == 0
        ok &= derivative_factorization_residual(d_star, v) == 0
    report(4, ok, "theta bounds, order bounds for d=0..100, and both "
                  "residuals on 1000 random rationals, all exact")


def test_criterion_5_monte_carlo_battery():
    details = []
    ok = True
    started = time.perf_counter()
    est = integral_no_notch(1, samples=10**6)
    closed = float(no_notch_integral_value(Fraction(1)))
    err = abs(est.value - closed)
    ok &= err <= 0.01 * closed and err <= 3 * est.std_error
    ok &= time.perf_counter() - started < 60
    details.append(f"no-notch {err/closed:.2%}")
    for v in (Fraction(1, 8), Fraction(1, 7), Fraction(1, 4)):
        cfg = NotchConfig(1, v)
        started = time.perf_counter()
        est = integral_notch(cfg, samples=10**6)
        closed = float(notch_integral_value(Fraction(1), v))
        err = abs(est.value - closed)
        ok &= err <= 0.01 * closed and err <= 3 * est.std_error
        ok &= time.perf_counter() - started < 60
        details.append(f"notch@{v} {err/closed:.2%}")

        started = time.perf_counter()
        est = notch_region_volume_estimate(cfg, samples=10**6)
        closed = float(notch_region_volume(cfg))
        err = abs(est.value - closed)
        if closed:
            ok &= err <= 0.01 * closed and err <= 3 * est.std_error
            details.append(f"pocket@{v} {err/closed:.2%}")
        else:
            ok &= err == 0.0
            details.append(f"pocket@{v} exact-zero")
        ok &= time.perf_counter() - started < 60
    report(5, ok, "1e6 samples, within 1% and 3 sigma: " + ", ".join(details))


def test_criterion_6_notch_optimum_and_grid_scan():
    ok = True
    for d_star in (Fraction(1), Fraction(7), Fraction(4), Fraction(5, 3)):
        opt = optimize_notch(d_star)
        ok &= opt.v_max == d_star / 7
        ok &= opt.max_value == 11 * d_star**4 / 343
        ok &= opt.v_local_min == d_star / 4
        ok &= opt.local_min_value == d_star**4 / 32
    d_star = Fraction(1)
    cap = 11 * d_star**4 / 343
    grid_ok = all(
        notch_volume_bound(d_star, d_star * i / 40_000) <= cap
        for i in range(10_001)
    )
    ok &= grid_ok
    report(6, ok, "optimum (d*/7, 11d*^4/343, d*/4, d*^4/32) exact; "
                  "10^4-point grid never exceeds the maximum")


def test_criterion_7_density_inequalities_hold(f3_reports, corpus_tiles):
    instances = [(3, d, rep.witness) for d, rep in f3_reports.items()]
    for lattice, tile in corpus_tiles:
        if lattice.dim in (3, 4):
            instances.append((lattice.dim, tile.m_diameter, lattice))
    ok = True
    for n, d, lattice in instances:
        density = Fraction(simplex_size(n, d), lattice.det)
        if n == 3:
            ok &= density >= 25 * Fraction(math.comb(d + 3, 3), 3 * (d + 3) ** 3)
        else:
            ok &= density >= 343 * Fraction(math.comb(d + 4, 4), 11 * (d + 4) ** 4)
    report(7, ok, f"{len(instances)} covered instances satisfy the "
                  "finite-d density inequalities")


def test_criterion_8_density_trend_exact():
    rows = density_trend(2, [2, 6, 10, 20])
    densities = [density for _, density, _ in rows]
    expected = [
        Fraction(6, 5),
        Fraction(28, 21),
        Fraction(66, 48),
        Fraction(231, 161),
    ]
    ok = densities == expected
    ok &= all(a < b for a, b in zip(densities, densities[1:]))
    ok &= all(density <= Fraction(3, 2) for density in densities)
    report(8, ok, f"trend {[str(x) for x in densities]} increasing toward 3/2")


def test_criterion_9_continuous_falsifier():
    rng = random.Random(92)
    checked = 0
    ok = True
    while checked < 20:
        n = 2 if checked % 2 == 0 else 3
        cap = 40 if n == 2 else 25
        lattice = make_corpus(rng.randint(0, 10**9), [(n, cap, 1)])[0]
        d = build_tile(lattice).m_diameter
        ok &= continuous_cover_falsify(lattice, d + n, 4) is None
        checked += 1

    broken = hnf_normalize([(2, 0), (0, 2)])
    witness = continuous_cover_falsify(broken, 1, 2)
    ok &= witness is not None
    if witness is not None:
        # non-coverage re-verified by direct enumeration of lattice vectors
        for a in range(-2, 3):
            for b in range(-2, 3):
                shifted = [witness[0] - 2 * a, witness[1] - 2 * b]
                ok &= not (
                    all(s >= 0 for s in shifted) and sum(shifted) <= 1
                )
    report(9, ok, "20 lifted coverings unfalsified at resolution 4; "
                  f"broken instance falsified at {witness}")
