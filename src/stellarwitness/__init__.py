"""Witnesses of stellar rank for bosonic quantum states.

Thresholds of Hermitian witnesses over bounded-stellar-rank state classes,
certification boundary curves for one-parameter witness families, and rank
certification of measured probability or fidelity pairs.
"""

from .boundary import (
    BoundaryCurve,
    BoundaryPoint,
    certify_pair,
    gift_wrap,
    sweep_family,
    sweep_family_ranks,
    tangent_witness,
)
from .errors import (
    DegenerateWitnessError,
    HermiticityError,
    OptimizerError,
    TailBoundError,
)
from .estimator import StellarRankCertifier
from .fock_gaussian import (
    GaussianUnitaryParams,
    gaussian_block,
    gaussian_matrix_element,
    oracle_columns,
    oracle_gaussian_matrix,
    transform_coherent,
)
from .multimode import (
    MultimodeGaussianParams,
    MultimodeWitness,
    enumerate_subspace,
    multimode_fock_projector,
    multimode_gaussian_block,
    multimode_threshold,
)
from .numerics import Spectrum, hermitian_spectrum, matrix_exponential
from .states import (
    FockDensity,
    FockVector,
    cat,
    click_statistics,
    coherent,
    lossy_cat,
    q0_after_loss,
    thermal,
)
from .threshold import (
    OptimizerConfig,
    ThresholdResult,
    compute_threshold,
    compute_thresholds,
    extremal_state,
    objective,
)
from .witness import (
    CoreState,
    WitnessOperator,
    cat_pair_witness,
    compress_conjugated,
    conjugate_witness,
    expectation,
    fock_diagonal_witness,
    fock_pair_witness,
    rescale_to_unit,
    trace_distance_lower_bound,
)

__version__ = "0.1.0"
