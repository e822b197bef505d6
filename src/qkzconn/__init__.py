"""Elliptic dynamical R-matrices from connection matrices of quantum affine
KZ equations for the three-state supersymmetric vertex model."""

from .blocks import (
    GenericityReport,
    PrincipalSeriesSpec,
    character_values,
    content_block,
    dimension_count,
    eigen_residual,
    genericity_report,
    predicted_y_tilde_spectrum,
    sign_residuals,
    spectrum_match_residual,
)
from .connection import (
    PHI_FAMILY,
    PSI_FAMILY,
    XI_FAMILY,
    ConnectionMatrix,
    connection_simple,
    connection_words,
    dybe_residual,
    dyn_r_matrix,
    felder_residual,
    shifted_r_apply,
    tensor_monodromy_from_blocks_words,
    tensor_monodromy_words,
)
from .elliptic import (
    EllipticParams,
    Nome,
    PoleError,
    ThetaDomainError,
    ThetaOverflowError,
    c_func,
    coeff_a,
    coeff_b,
    coefficients,
    default_params,
    pow_p,
    theta,
)
from .heckespin import (
    HeckeParams,
    SpinRep,
    baxterize,
    braid_matrix,
    cross_relation_residual,
    hecke_residual,
    perk_schultz,
    qybe_residual,
    spin_rep,
    y_tilde,
)
from .params import RunConfig, sample_phi, sample_point, sample_scalar
from .qkz import (
    AffineWord,
    affine_word,
    braid_limit_residual,
    flatness_residual,
    translation_word,
    transport_word,
    transport_words,
)

__version__ = "0.1.0"
