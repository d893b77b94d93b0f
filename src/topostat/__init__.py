"""Topological inference for statistic maps on lattices and meshes.

Random-field-theory family-wise error correction and topological FDR,
from raw per-observation data through GLM fitting, smoothness
estimation, expected Euler characteristics and peak/cluster tables, with
a Monte Carlo harness that checks the theory empirically.
"""

from .domain import (
    IntrinsicVolumes,
    LatticeSpace,
    MeshSpace,
    build_lattice,
    build_mesh,
    connected_components,
    intrinsic_volumes,
    lattice_ec_curve,
    lattice_euler_characteristic,
    read_mesh,
    write_mesh,
)
from .ecd import (
    corrected_threshold,
    ec_density,
    expected_ec,
    fwe_p,
    restrict,
)
from .glm import (
    DesignMatrix,
    FieldType,
    GlmFit,
    ResidualSet,
    StatField,
    fit,
    normalized_residuals,
    t_map,
    z_equivalent,
)
from .infer import (
    ClusterRecord,
    PeakRecord,
    ResultsTable,
    clusters,
    excursion_set,
    local_maxima,
    peak_table,
    topological_fdr,
)
from .lkc import ReselVector, fit_resels, fwhm_estimate, lkc_top, lkc_vector
from .simulate import SimConfig, gen_field, generator_resels, mc_calibrate, mc_ec, mc_fwe

__version__ = "0.1.0"

__all__ = [
    "IntrinsicVolumes", "LatticeSpace", "MeshSpace", "build_lattice",
    "build_mesh", "connected_components", "intrinsic_volumes",
    "lattice_ec_curve", "lattice_euler_characteristic", "read_mesh", "write_mesh",
    "corrected_threshold", "ec_density", "expected_ec",
    "fwe_p", "restrict",
    "DesignMatrix", "FieldType", "GlmFit", "ResidualSet", "StatField",
    "fit", "normalized_residuals", "t_map", "z_equivalent",
    "ClusterRecord", "PeakRecord", "ResultsTable", "clusters",
    "excursion_set", "local_maxima", "peak_table", "topological_fdr",
    "ReselVector", "fit_resels", "fwhm_estimate", "lkc_top", "lkc_vector",
    "SimConfig", "gen_field", "generator_resels", "mc_calibrate", "mc_ec", "mc_fwe",
]
