"""Spans around the package's public functions, recorded from outside.

``instrument`` rebinds each function at the import sites where callers
look it up (``cli``, ``search``, ``covering``, ``tiles``, ``lattices`` and
the ``bounds`` module attributes), so no file of the package changes.  A
span is ``[name, start, end, parent, op]``; spans stay in memory and are
written out once, when the run ends.  A span's self time is its duration
minus the durations of its direct children, which nest and never overlap
because the traced process runs one call at a time.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
from time import perf_counter

_EXACT_BOUNDS = (
    "no_notch_integral_value",
    "notch_integral_value",
    "notch_region_volume",
    "notch_volume_bound",
    "notch_volume_bound_derivative",
    "no_notch_volume_bound",
    "notch_identity_residual",
    "derivative_factorization_residual",
    "optimize_notch",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None  # label of the operation the next spans belong to
        self.counts = {}

    def count(self, key: str, k: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, fn, name, on_result=None):
        """``fn`` with a span per call; ``name`` may be a function of the
        call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            index = tracer.begin(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_generator(self, fn, name):
        """A generator function with a span around every step."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                index = tracer.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.end(index)
                tracer.count(name)
                yield item

        return traced

    def self_times(self) -> list:
        """Self time of every span, by span index."""
        selfs = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                selfs[s[3]] -= s[2] - s[1]
        return selfs

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _estimator_name(estimator):
    def name(*args, **kwargs):
        if estimator == "notch_region_volume_estimate":
            method = "mc"
        else:
            method = args[1] if len(args) > 1 else kwargs.get("method", "monte_carlo")
        kind = "mc" if method in ("mc", "monte_carlo") else "quad"
        return f"bounds.{kind}.{estimator}"

    return name


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind the package's public functions to traced versions; restore
    them on exit."""
    from cayleycover import bounds, cli, covering, lattices, search, tiles

    def count_fit(result):
        if result:
            tracer.count("tiles.fits")

    def mc_samples(estimator):
        def record(*args, **kwargs):
            kind = _estimator_name(estimator)(*args, **kwargs)
            if kind.startswith("bounds.mc."):
                tracer.count("bounds.mc_samples", kwargs.get("samples", 1_000_000))
            return kind

        return record

    plain = [
        (cli, "lattice_from_json_dict", "lattices.lattice_from_json_dict"),
        (cli, "lattice_to_json_dict", "lattices.lattice_to_json_dict"),
        (lattices, "hnf_normalize", "lattices.hnf_normalize"),
        (cli, "build_tile", "tiles.build_tile"),
        (covering, "build_tile", "tiles.build_tile"),
        (tiles, "build_tile", "tiles.build_tile"),
        (cli, "tile_to_json_dict", "tiles.tile_to_json_dict"),
        (cli, "covers_discrete", "covering.covers_discrete"),
        (cli, "continuous_cover_falsify", "covering.continuous_cover_falsify"),
        (cli, "brute_force_f", "search.brute_force_f"),
        (search, "brute_force_f", "search.brute_force_f"),
        (cli, "density_trend", "search.density_trend"),
    ]
    plain += [(bounds, name, f"bounds.exact.{name}") for name in _EXACT_BOUNDS]
    saved = []
    try:
        for module, attr, name in plain:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, tracer.wrap(getattr(module, attr), name))
        saved.append((search, "fits_diameter", search.fits_diameter))
        search.fits_diameter = tracer.wrap(
            search.fits_diameter, "tiles.fits_diameter", on_result=count_fit
        )
        saved.append((search, "enumerate_sublattices", search.enumerate_sublattices))
        search.enumerate_sublattices = tracer.wrap_generator(
            search.enumerate_sublattices, "lattices.enumerate_sublattices"
        )
        for estimator in ("integral_no_notch", "integral_notch", "notch_region_volume_estimate"):
            saved.append((bounds, estimator, getattr(bounds, estimator)))
            setattr(
                bounds,
                estimator,
                tracer.wrap(getattr(bounds, estimator), mc_samples(estimator)),
            )
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
