"""Cayley tiles of Z^n, simplex coverings, and degree-diameter search.

The package decides lattice coverings of Z^n by discrete simplices through
the tile construction, brute-forces the degree-diameter function for
abelian Cayley digraphs, and numerically verifies the volume bounds that
turn those searches into covering-density statements.
"""

from .bounds import (
    DEFAULT_SEED,
    IntegralEstimate,
    NotchConfig,
    NotchOptimum,
    derivative_factorization_residual,
    derivative_integral_residual,
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
from .covering import (
    ContinuousLift,
    CoveringVerdict,
    DiscreteSimplex,
    continuous_cover_falsify,
    covers_discrete,
    discrete_density,
    lift_to_continuous,
    round_scaled_lattice,
    simplex_size,
)
from .errors import (
    BadBatteryInput,
    BadSampleCount,
    CapTooSmall,
    CayleyCoverError,
    DimensionMismatch,
    MultipleMinimalNotches,
    NotACovering,
    SingularAfterRounding,
    SingularBasis,
)
from .lattices import (
    IntegerLattice,
    Rational,
    enumerate_sublattices,
    hnf_normalize,
    lattice_from_json_dict,
    lattice_to_json_dict,
    reduce_mod,
    same_coset,
)
from .search import (
    SearchReport,
    brute_force_f,
    density_trend,
    f2_closed_form,
    f3_upper_bound,
    f4_upper_bound,
    fn_upper_bound,
    theta_lower_bound,
)
from .tiles import (
    CayleyTile,
    build_tile,
    enumerate_orthant_prec,
    find_notch,
    fits_diameter,
    is_tiling,
    kernel_backend,
    tile_from_difference,
)

__version__ = "0.1.0"
