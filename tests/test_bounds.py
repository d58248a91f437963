import math
import random
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleycover import (
    BadBatteryInput,
    BadSampleCount,
    DimensionMismatch,
    IntegralEstimate,
    NotchConfig,
    brute_force_f,
    derivative_factorization_residual,
    derivative_integral_residual,
    f4_upper_bound,
    in_region_no_notch,
    in_region_notch,
    integral_no_notch,
    integral_notch,
    no_notch_integral_value,
    no_notch_volume_bound,
    notch_identity_residual,
    notch_integral_value,
    notch_region_volume,
    notch_region_volume_estimate,
    notch_volume_bound,
    optimize_notch,
    tile_volume_bound_dim4,
)
from cayleycover import bounds
from conftest import far_facet_region, notch_pocket, polytope_integral


def random_rational_pairs(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        d = Fraction(rng.randint(1, 999), rng.randint(1, 99))
        v = d * Fraction(rng.randint(0, 4096), 4096) / 4
        yield d, v


def test_region_predicate_examples():
    d = 1.0
    assert in_region_no_notch((d / 4, d / 4, d / 4), d)
    assert not in_region_no_notch((0.0, 0.0, 0.0), d)
    # closed boundary: the corner satisfies both inequalities with equality
    assert in_region_no_notch((d, 0.0, 0.0), d)
    assert not in_region_no_notch((-0.1, 0.5, 0.5), d)
    with pytest.raises(DimensionMismatch):
        in_region_no_notch((1.0, 2.0), d)


def test_notch_region_examples():
    cfg = NotchConfig(1, Fraction(1, 8))
    assert not in_region_notch((0.25, 0.25, 0.25), cfg)  # inside the pocket
    assert in_region_notch((1.0, 0.0, 0.0), cfg)
    assert in_region_notch((0.05, 0.5, 0.43), cfg)
    cfg0 = NotchConfig(1, 0)
    # v = 0 removes the entire region
    assert not in_region_notch((0.25, 0.25, 0.25), cfg0)
    assert not in_region_notch((1.0, 0.0, 0.0), cfg0)


def test_mc_integrand_matches_region_predicate():
    # the vectorised integrand, from each point's sum and minimum, against
    # the scalar predicate, v = d*/4 (the no-notch region) included; the
    # point (d*/4,)*3 is the pocket there.  The battery computes the region
    # once per chunk and cuts each notch's pocket from it, as checked here
    rng = np.random.default_rng(11)
    for d in (1.0, 2.5, Fraction(7, 3), Fraction(1, 3)):
        x = np.vstack([rng.random((4000, 3)) * float(d), np.full((1, 3), float(d) / 4)])
        s, mn = x.sum(axis=1), x.min(axis=1)
        base, near = bounds._notch_region(float(d), s, mn)
        for v in (0, d / 8, d / 7, d / 4):
            cfg = NotchConfig(d, v)
            expected = [float(d) - sum(p) if in_region_notch(p, cfg) else 0.0 for p in x.tolist()]
            assert np.where(near < float(v), base, 0.0).tolist() == expected
            values = base * (near < float(v))
            assert values.tolist() == expected and not np.signbit(values).any()
    # a chunk with no point in the region: every d* - sum(x) is negative,
    # and a plain product by the mask would hold -0.0 there
    x = 1.0 + rng.random((4000, 3))
    base, near = bounds._notch_region(2.5, x.sum(axis=1), x.min(axis=1))
    assert not np.signbit(base).any()
    for values in (base, base * (near < 0.3)):
        assert repr(float(values.sum())) == repr(float(np.square(values).sum())) == "0.0"


def test_mc_3d_draw_is_a_prefix_of_the_4d_draw():
    # the battery draws 4m doubles per chunk and takes its 3-D points from
    # the first 3m: that must be what random((m, 3)) draws from the same key
    for m in (1, 7, 16_960, 1 << 16):
        for seed, chunk in ((1729, 0), (0, 5), (2**64 - 1, 1)):
            three = bounds._philox(seed, chunk).random((m, 3))
            four = bounds._philox(seed, chunk).random((m, 4))
            assert np.array_equal(three, four.reshape(-1)[: 3 * m].reshape(m, 3))


@pytest.mark.parametrize("samples", [1, 65_536, 65_537, 200_000])
def test_mc_battery_draws_each_chunk_once(monkeypatch, samples):
    # one stream per chunk serves the notches and the pockets alike
    opened = []
    philox = bounds._philox

    def counting(seed, chunk):
        opened.append(chunk)
        return philox(seed, chunk)

    monkeypatch.setattr(bounds, "_philox", counting)
    bounds.bound_check_battery(Fraction(7, 3), method="mc", samples=samples)
    assert opened == list(range(math.ceil(samples / 65_536)))


def _mc_runs(d, samples, seed):
    """The raw estimates, with and without pockets, and the Monte-Carlo
    battery's records, at one (d*, samples, seed)."""
    x = float(d)
    ws, vs = [x / 4, x / 8, x / 7], [x / 8, x / 7, x / 4]
    return [
        bounds._mc_over_simplex(x, ws, vs, samples, seed),
        bounds._mc_over_simplex(x, ws, [], samples, seed),
        [c.as_dict() for c in bounds.bound_check_battery(d, method="mc", samples=samples, seed=seed)],
    ]


@pytest.mark.parametrize("samples", [1, 65_536, 65_537, 200_000, 1_000_000])
def test_mc_estimates_do_not_depend_on_the_worker_count(monkeypatch, samples):
    # each chunk is reduced whole by one worker and fsum rounds exactly, so
    # one worker and one per core give the same bits
    for seed in (0, 1729, 2**64 - 1):
        default = _mc_runs(Fraction(7, 3), samples, seed)
        with monkeypatch.context() as m:
            m.setattr(bounds, "_cores", lambda: 1)
            assert _mc_runs(Fraction(7, 3), samples, seed) == default


def test_mc_chunks_on_more_workers_than_cores(monkeypatch):
    # eight workers on nine chunks, switching threads as often as the
    # interpreter allows and pausing while a stream opens: each stream
    # still opens once, in chunk order, on more than one thread, and the
    # estimates are the one-worker ones
    samples = 8 * 65_536 + 1
    monkeypatch.setattr(bounds, "_cores", lambda: 1)
    serial = _mc_runs(Fraction(5, 4), samples, 42)
    opened, openers = [], set()
    philox = bounds._philox

    def counting(seed, chunk):
        time.sleep(1e-3)
        opened.append(chunk)
        openers.add(threading.get_ident())
        return philox(seed, chunk)

    monkeypatch.setattr(bounds, "_philox", counting)
    monkeypatch.setattr(bounds, "_cores", lambda: 8)
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _mc_runs(Fraction(5, 4), samples, 42) == serial
    finally:
        sys.setswitchinterval(interval)
    assert opened == list(range(9)) * 3 and len(openers) > 1
    assert threading.active_count() == before


def test_cores_falls_back_to_the_cpu_count(monkeypatch):
    # without an affinity call the worker count is the machine's core count,
    # and the estimates are still the one-worker bits
    with monkeypatch.context() as m:
        m.setattr(bounds, "_cores", lambda: 1)
        serial = bounds._mc_over_simplex(2.5, [0.625, 0.3125], [0.3125], 200_000, 7)
    monkeypatch.delattr(bounds.os, "sched_getaffinity", raising=False)
    assert bounds._cores() == (bounds.os.cpu_count() or 1)
    assert bounds._mc_over_simplex(2.5, [0.625, 0.3125], [0.3125], 200_000, 7) == serial


def test_mc_battery_leaves_no_thread():
    before = threading.active_count()
    checks = bounds.bound_check_battery(Fraction(7, 3), method="mc", samples=200_000)
    assert len(checks) == 13
    assert threading.active_count() == before


def test_mc_chunk_error_reaches_the_caller(monkeypatch):
    # the worker that opens a chunk reduces it, so a thread-local tag set
    # when the stream opens names the chunk being reduced
    tag = threading.local()
    philox, sums_and_minima = bounds._philox, bounds._sums_and_minima
    error = ArithmeticError("chunk 2")

    def tagging(seed, chunk):
        opened.append(chunk)
        tag.chunk = chunk
        return philox(seed, chunk)

    def failing(u, d, buf, with_sums):
        if tag.chunk == 2:
            raise error
        return sums_and_minima(u, d, buf, with_sums)

    monkeypatch.setattr(bounds, "_philox", tagging)
    monkeypatch.setattr(bounds, "_sums_and_minima", failing)
    before = threading.active_count()
    for cores in (1, 2, 8):
        opened = []
        monkeypatch.setattr(bounds, "_cores", lambda: cores)
        with pytest.raises(ArithmeticError) as raised:
            bounds.bound_check_battery(Fraction(7, 3), method="mc", samples=20 * 65_536)
        assert raised.value is error
        # no worker takes a chunk after the failure, long before the 20th
        assert opened == list(range(len(opened))) and 3 <= len(opened) < 20
        assert threading.active_count() == before


def _notch_cut(d, v, s, mn):
    """The integrand at one v, cut from the shared region as the battery
    cuts it."""
    base, near = bounds._notch_region(d, s, mn)
    return base * (near < v)


def _sorted_spacings_estimate(dim, d, values_of, samples, seed):
    """Reference Monte-Carlo estimate: each chunk's uniforms sorted by
    ``np.sort``, spacings by ``np.diff``, and the integrand applied to the
    whole points, one integrand per pass."""
    sums, sums_sq = [], []
    for chunk, done in enumerate(range(0, samples, 1 << 16)):
        u = bounds._philox(seed, chunk).random((min(1 << 16, samples - done), dim))
        u.sort(axis=1)
        vals = values_of(np.diff(u, axis=1, prepend=0.0) * d)
        sums.append(float(vals.sum()))
        sums_sq.append(float(np.square(vals).sum()))
    volume = d**dim / math.factorial(dim)
    mean = math.fsum(sums) / samples
    var = max(0.0, math.fsum(sums_sq) / samples - mean * mean)
    if samples > 1:
        var *= samples / (samples - 1)
    return volume * mean, volume * math.sqrt(var / samples)


def test_mc_loop_matches_sorted_spacings_reference():
    # the sorting network and the sums and minima taken column by column
    # give the same bits as whole-row np.sort, np.diff, sum and min
    for d, samples, seed in ((1.0, 1, 0), (2.5, 65_537, 3), (7 / 3, 70_000, 2**64 - 1)):
        for v in (0.0, d / 8, d / 4):
            cfg = NotchConfig(d, v)
            est = integral_notch(cfg, samples=samples, seed=seed)
            expected = _sorted_spacings_estimate(
                3, d, lambda x: _notch_cut(d, v, x.sum(axis=1), x.min(axis=1)), samples, seed
            )
            assert (est.value, est.std_error) == expected
            est = notch_region_volume_estimate(cfg, samples=samples, seed=seed)
            expected = _sorted_spacings_estimate(
                4, d, lambda x: (x.min(axis=1) >= v).astype(np.float64), samples, seed
            )
            assert (est.value, est.std_error) == expected


@settings(max_examples=25, deadline=None, database=None)
@given(
    st.one_of(
        st.sampled_from([Fraction("1e-80"), Fraction(7, 3), Fraction(11)]),
        st.fractions(min_value=Fraction(1, 1000), max_value=1000),
    ),
    st.one_of(
        st.none(),
        st.sampled_from([Fraction(0), Fraction(1, 4)]),
        st.fractions(min_value=0, max_value=Fraction(1, 4)),
    ),
    st.sampled_from([1, 65_535, 65_536, 65_537, 200_000]),
    st.integers(0, 2**64 - 1),
)
def test_mc_battery_matches_public_estimators(d, share, samples, seed):
    # vs as verify-bounds makes it: the default three, or one --v; each
    # integral check, by either method, is its public estimator's
    vs = [d / 8, d / 7, d / 4] if share is None else [d * share]
    for method in ("mc", "quad"):
        expected = [(no_notch_integral_value(d), integral_no_notch(d, method, samples, seed))]
        for v in vs:
            cfg = NotchConfig(d, v)
            expected.append((notch_integral_value(d, v), integral_notch(cfg, method, samples, seed)))
            if method == "mc":
                expected.append(
                    (notch_region_volume(cfg), notch_region_volume_estimate(cfg, samples, seed))
                )
        checks = bounds.bound_check_battery(d, vs, method, samples, seed)
        assert len(checks) == len(expected) + 6
        for check, (closed, est) in zip(checks, expected):
            if method == "mc":
                assert (check.estimate, check.std_err) == (est.value, est.std_error)
            else:
                assert est.value == closed and check.estimate == float(est.value)
                assert check.passed and check.abs_err == 0


def test_battery_takes_an_int_d_star_as_its_fraction():
    # an int d* must not turn d*/8 or the identity probes into floats
    for d, vs in ((7, None), (4, [0, 1, Fraction(1, 2)])):
        exact = None if vs is None else [Fraction(v) for v in vs]
        for method in ("mc", "quad"):
            checks = bounds.bound_check_battery(d, vs, method, samples=2000)
            reference = bounds.bound_check_battery(Fraction(d), exact, method, samples=2000)
            assert [c.as_dict() for c in checks] == [c.as_dict() for c in reference]
        assert all(c.passed for c in bounds.bound_check_battery(d, vs, "quad"))


def test_battery_names_checks_by_canonical_method():
    # every spelling _normalize_method accepts names its checks as the
    # CLI's mc or quad does
    d = Fraction(7, 3)
    spellings_of = {"mc": ("mc", "MC", "monte_carlo"), "quad": ("quad", "nested_quadrature")}
    for tag, spellings in spellings_of.items():
        runs = [
            [c.as_dict() for c in bounds.bound_check_battery(d, method=m, samples=1000)]
            for m in spellings
        ]
        assert all(run == runs[0] for run in runs)
        names = [c["name"] for c in runs[0]]
        assert f"integral_no_notch[{tag}]" in names and f"integral_notch[{tag}] v=7/24" in names

def test_battery_refuses_inputs_it_cannot_decide():
    # below about 1e-80 every Monte-Carlo estimate and its closed form are
    # 0.0, so each check would pass; the exact quadrature still decides
    tiny = Fraction(1, 10**81)
    with pytest.raises(BadBatteryInput, match="too small for method mc"):
        bounds.bound_check_battery(tiny, method="mc")
    assert all(c.passed for c in bounds.bound_check_battery(tiny, method="quad"))
    # d*^4 overflows a float, which every closed form is reported as
    for method in ("mc", "quad"):
        with pytest.raises(BadBatteryInput, match="too large"):
            bounds.bound_check_battery(10**100, method=method)
    # the seed, d* and v rules hold for both methods, before any work
    for kwargs in ({"seed": 2**64}, {"seed": -1}, {"d_star": 0}, {"vs": [Fraction(1, 2)]}):
        args = {"d_star": 1, "method": "quad", **kwargs}
        with pytest.raises(BadBatteryInput):
            bounds.bound_check_battery(**args)


def test_seed_outside_64_bits_raises():
    # the stream key holds 64 bits of seed: 2^64 + 1729 would alias 1729
    for seed in (-1, 2**64, 2**64 + 1729):
        with pytest.raises(ValueError):
            bounds._philox(seed, 0)
        with pytest.raises(ValueError):
            integral_no_notch(1.0, samples=10, seed=seed)
    assert integral_no_notch(1.0, samples=10, seed=2**64 - 1).samples == 10


def test_notch_config_validation():
    with pytest.raises(ValueError):
        NotchConfig(0, 0)
    with pytest.raises(ValueError):
        NotchConfig(1, Fraction(1, 3))
    with pytest.raises(ValueError):
        NotchConfig(1, -1)


def test_closed_form_values():
    assert no_notch_integral_value(Fraction(1)) == Fraction(1, 384)
    assert no_notch_integral_value(0) == 0
    assert no_notch_integral_value(Fraction(2)) == 16 * Fraction(1, 384)
    assert notch_integral_value(Fraction(1), Fraction(0)) == 0
    assert notch_integral_value(Fraction(1), Fraction(1, 4)) == Fraction(1, 384)
    assert notch_integral_value(Fraction(1), Fraction(1, 7)) == (
        Fraction(2, 2401) - Fraction(4, 1029) + Fraction(1, 196)
    )
    assert notch_region_volume(NotchConfig(1, Fraction(1, 4))) == 0
    assert notch_region_volume(NotchConfig(1, 0)) == Fraction(1, 24)
    assert notch_region_volume(NotchConfig(1, Fraction(1, 7))) == Fraction(3, 7) ** 4 / 24


def test_notch_volume_bound_values():
    d = Fraction(3, 2)
    assert notch_volume_bound(d, 0) == 0
    assert notch_volume_bound(d, d / 4) == d**4 / 32
    assert notch_volume_bound(d, d / 7) == 11 * d**4 / 343


def test_no_notch_volume_bound_identity():
    for d, _ in random_rational_pairs(50, 100):
        assert no_notch_volume_bound(d) == d**4 / 32
    assert no_notch_volume_bound(Fraction(1)) == Fraction(1, 32)
    assert no_notch_volume_bound(Fraction(2)) == Fraction(1, 2)


def test_identity_residuals_vanish():
    canonical = [
        (Fraction(1), Fraction(1, 7)),
        (Fraction(1), Fraction(1, 4)),
        (Fraction(5), Fraction(0)),
        (Fraction(2), Fraction(3, 10)),
    ]
    for d, v in list(random_rational_pairs(51, 300)) + canonical:
        assert notch_identity_residual(d, v) == 0
        assert derivative_factorization_residual(d, v) == 0
        assert derivative_integral_residual(d, v) == 0


def test_identity_residual_cross_check():
    # independent route: whole integral minus the pocket contribution
    for d, v in random_rational_pairs(52, 100):
        shrunk = d - 4 * v
        expected = d**4 / 384 - shrunk**4 / 384 - v * shrunk**3 / 24
        assert notch_integral_value(d, v) == expected


def test_optimize_notch_examples():
    opt = optimize_notch(Fraction(7))
    assert opt.v_max == 1
    assert opt.max_value == 77
    opt = optimize_notch(Fraction(1))
    assert opt.max_value == Fraction(11, 343)
    opt = optimize_notch(Fraction(4))
    assert opt.v_local_min == 1
    assert opt.local_min_value == 8
    # float input stays float but lands on the same numbers
    opt = optimize_notch(2.0)
    assert opt.v_max == pytest.approx(2 / 7)
    assert opt.max_value == pytest.approx(11 * 16 / 343)


def test_optimize_notch_grid_excess_raises(monkeypatch):
    monkeypatch.setattr(
        bounds, "notch_volume_bound", lambda d_star, v: 11 * d_star**4 / 343 + 1
    )
    with pytest.raises(RuntimeError):
        optimize_notch(Fraction(1))


def test_optimize_notch_strict_interior_maximum():
    for d in (Fraction(1), Fraction(7), Fraction(5, 3)):
        opt = optimize_notch(d)
        eps = d / 1000
        assert notch_volume_bound(d, opt.v_max - eps) < opt.max_value
        assert notch_volume_bound(d, opt.v_max + eps) < opt.max_value


def test_tile_volume_bound_dim4():
    assert tile_volume_bound_dim4(3) == 77
    assert tile_volume_bound_dim4(0) == Fraction(2816, 343)
    for d in range(21):
        assert tile_volume_bound_dim4(d) == f4_upper_bound(d)
    # the notch maximum dominates the no-notch bound, by 9 d*^4/10976 > 0,
    # so the record's abs_err is that gap for every d* > 0
    assert Fraction(11, 343) - Fraction(1, 32) == Fraction(9, 10976)
    for d in (Fraction(1, 10**30), Fraction(1, 3), Fraction(7, 3), Fraction(123456789, 7)):
        checks = bounds.bound_check_battery(d, method="quad")
        (record,) = [c for c in checks if c.name == "notch_max_dominates_no_notch"]
        assert record.passed and record.abs_err == float(9 * d**4 / 10976) > 0


def test_search_never_violates_dim4_bound():
    for d in (0, 1):
        report = brute_force_f(4, d)
        assert report.exhaustive
        assert report.f_value <= math.floor(tile_volume_bound_dim4(d))


def test_mc_estimates_within_tolerance():
    # the d* in {1, 2} x v in {0, d/8, d/7, d/4} battery at a million samples
    for d in (Fraction(1), Fraction(2)):
        est = integral_no_notch(d, samples=10**6)
        closed = float(no_notch_integral_value(d))
        assert abs(est.value - closed) <= 3 * est.std_error
        assert abs(est.value - closed) <= 0.01 * closed
        for v in (Fraction(0), d / 8, d / 7, d / 4):
            cfg = NotchConfig(d, v)
            est = integral_notch(cfg, samples=10**6)
            closed = float(notch_integral_value(d, v))
            assert abs(est.value - closed) <= 3 * est.std_error + 1e-15
            if closed:
                assert abs(est.value - closed) <= 0.01 * closed
            else:
                assert est.value == 0.0


def test_mc_deterministic_and_seed_sensitive():
    a = integral_no_notch(1.0, samples=40_000, seed=7)
    b = integral_no_notch(1.0, samples=40_000, seed=7)
    c = integral_no_notch(1.0, samples=40_000, seed=8)
    assert a == b
    assert a.value != c.value


def test_mc_scaling_consistency():
    small = integral_no_notch(1.0, samples=200_000, seed=3)
    big = integral_no_notch(2.0, samples=200_000, seed=3)
    sigma = math.hypot(16 * small.std_error, big.std_error)
    assert abs(big.value - 16 * small.value) <= 3 * sigma
    assert no_notch_integral_value(Fraction(3)) == 81 * no_notch_integral_value(Fraction(1))


def test_pocket_volume_estimate():
    for v in (Fraction(1, 8), Fraction(1, 7)):
        cfg = NotchConfig(1, v)
        est = notch_region_volume_estimate(cfg, samples=400_000)
        closed = float(notch_region_volume(cfg))
        assert abs(est.value - closed) <= 3 * est.std_error
    cfg = NotchConfig(1, Fraction(1, 4))
    est = notch_region_volume_estimate(cfg, samples=100_000)
    assert est.value == 0.0 and est.std_error == 0.0


def test_quadrature_matches_closed_forms():
    # v = 0 is the empty slab, and v = d*/4 the whole no-notch region
    for d in (Fraction(1), Fraction(2), Fraction(7, 3)):
        assert integral_no_notch(d, method="quad").value == no_notch_integral_value(d)
        for v in (Fraction(0), d / 8, d / 7, d / 5, d / 4):
            est = integral_notch(NotchConfig(d, v), method="quad")
            assert est.value == notch_integral_value(d, v)


def test_quadrature_matches_the_polytope_oracle():
    # the slice quadrature and the closed forms against exact integration
    # over the polytopes that the region's and the pocket's inequalities
    # cut out, which knows nothing of the slices
    for d in (Fraction(1), Fraction(7, 3), Fraction(5, 2), Fraction(11), Fraction(123456789, 7)):
        def integrand(x):
            return d - sum(x)

        whole = polytope_integral(far_facet_region(d), integrand)
        assert integral_no_notch(d, method="quad").value == no_notch_integral_value(d) == whole
        for share in (Fraction(0), Fraction(1, 13), Fraction(1, 7), Fraction(3, 16), Fraction(1, 4)):
            v = d * share
            pocket = polytope_integral(far_facet_region(d) + notch_pocket(d, v), integrand)
            est = integral_notch(NotchConfig(d, v), method="quad")
            assert est.value == notch_integral_value(d, v) == whole - pocket


@settings(max_examples=200, deadline=None, database=None)
@given(
    st.fractions(min_value=Fraction(1, 1000), max_value=1000),
    st.fractions(min_value=0, max_value=Fraction(1, 4)),
)
def test_quadrature_is_exact_on_random_rationals(d, share):
    v = d * share
    assert integral_no_notch(d, method="quad").value == no_notch_integral_value(d)
    est = integral_notch(NotchConfig(d, v), method="quad")
    assert est.value == notch_integral_value(d, v)


def test_quadrature_at_low_node_count_is_already_tight():
    # float input stays float and lands on the closed form
    est = integral_no_notch(1.0, method="quad")
    assert est.value == pytest.approx(1 / 384, rel=1e-12)


def test_estimate_metadata_and_errors():
    est = integral_no_notch(1.0, samples=1000, seed=5)
    assert est.method == "monte_carlo" and est.samples == 1000 and est.seed == 5
    quad = integral_no_notch(1.0, method="nested_quadrature")
    assert quad.method == "nested_quadrature" and quad.std_error == 0.0 and quad.samples == 1
    with pytest.raises(BadSampleCount):
        integral_no_notch(1.0, samples=0)
    with pytest.raises(ValueError):
        integral_no_notch(1.0, method="simpson")
    with pytest.raises(ValueError):
        IntegralEstimate(1.0, -0.1, 10, "monte_carlo", 0)


def test_no_notch_integral_rejects_nonpositive_d_star():
    # as integral_notch does through NotchConfig, by either method
    for d in (0, -1, Fraction(-7, 3), -1.0):
        for method in ("mc", "quad"):
            with pytest.raises(ValueError):
                integral_no_notch(d, method=method)


def test_battery_takes_a_float_at_its_exact_value():
    # the exact checks decide by ==, which float rounding would fail
    for d in (1.0, 2.3):
        for method in ("quad", "mc"):
            checks = bounds.bound_check_battery(d, method=method)
            assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
            reference = bounds.bound_check_battery(Fraction(d), method=method)
            assert [c.as_dict() for c in checks] == [c.as_dict() for c in reference]
    checks = bounds.bound_check_battery(2.3, [0.1, 0.5], "quad")
    assert all(c.passed for c in checks)
