"""spraylab: dominating sprays, regular approximation, and degree oracles."""

from .approx import (
    ApproxConfig,
    DegreeExhaustedError,
    Homotopy,
    HomotopyTooWildError,
    PolynomialMapSpec,
    RegularApproximation,
    approximate,
    approximation_error,
    assemble_regular_map,
    fit_polynomial,
    track_eta,
)
from .degree import (
    DegeneracyError,
    DegreeOptions,
    DegreeReport,
    InconsistencyError,
    MatrixSphereMap,
    a_k,
    ak_matrix_many,
    antipodal_map,
    calibration_sign,
    circle_power_map,
    compress_to_k_block,
    fermat_power_self_map,
    first_column_sphere_map,
    homogeneous_extension,
    identity_map,
    power_map_matrix,
    quaternion_power_map,
    sharp_product,
    sphere_degree,
    unitary_degree,
    verify_ak_identities,
    winding_number,
)
from .geometry import (
    ShapeError,
    VarietySpec,
    shrink_map,
)
from .sprays import (
    AntipodeError,
    Spray,
    SprayInversionError,
    constant_spray,
    group_action_spray,
    iterated_spray,
    probe_injectivity_radius,
    stereographic_spray,
    verify_dominating,
    verify_spray_axioms,
)

__version__ = "0.1.0"
