"""Cayley tiles of Z^n, simplex coverings, and degree-diameter search.

The package decides lattice coverings of Z^n by discrete simplices through
the tile construction, brute-forces the degree-diameter function for
abelian Cayley digraphs, and numerically verifies the volume bounds that
turn those searches into covering-density statements.

Names load on first use (PEP 562): ``import cayleycover`` imports none of
its submodules.  ``_EXPORTS`` maps each submodule to the names it exports;
the first lookup of a name, or of a submodule by its bare name, imports
that submodule and caches the value here, so a command that never touches
``bounds`` never pays for it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": (
        "DEFAULT_SEED", "IntegralEstimate", "NotchConfig", "NotchOptimum",
        "derivative_factorization_residual", "derivative_integral_residual",
        "in_region_no_notch", "in_region_notch", "integral_no_notch",
        "integral_notch", "no_notch_integral_value", "no_notch_volume_bound",
        "notch_identity_residual", "notch_integral_value", "notch_region_volume",
        "notch_region_volume_estimate", "notch_volume_bound", "optimize_notch",
        "tile_volume_bound_dim4",
    ),
    "covering": (
        "ContinuousLift", "CoveringVerdict", "DiscreteSimplex",
        "continuous_cover_falsify", "covers_discrete", "discrete_density",
        "lift_to_continuous", "round_scaled_lattice", "simplex_size",
    ),
    "errors": (
        "BadBatteryInput", "BadSampleCount", "CapTooSmall", "CayleyCoverError",
        "DimensionMismatch", "MultipleMinimalNotches", "NotACovering",
        "SearchTooLarge", "SingularAfterRounding", "SingularBasis",
    ),
    "lattices": (
        "IntegerLattice", "Rational", "enumerate_sublattices", "hnf_normalize",
        "lattice_from_json_dict", "lattice_to_json_dict", "reduce_mod", "same_coset",
    ),
    "search": (
        "SearchReport", "brute_force_f", "density_trend", "f2_closed_form",
        "f3_upper_bound", "f4_upper_bound", "fn_upper_bound", "theta_lower_bound",
    ),
    "tiles": (
        "CayleyTile", "build_tile", "enumerate_orthant_prec", "find_notch",
        "fits_diameter", "is_tiling", "kernel_backend", "tile_from_difference",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _OWNER:
        value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_OWNER, *_EXPORTS})
