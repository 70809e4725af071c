"""mclab: a laboratory for low-rank matrix completion.

Samplers and sampling operators, random ground-truth models, tangent-space
geometry with incoherence diagnostics, dual-certificate construction and
verification, a singular-value-thresholding solver, and reproducible
experiment drivers with a frozen CSV schema.
"""

from .certificate import (
    CertificateReport,
    ChainNorms,
    MomentEstimate,
    NeumannCoeffs,
    TANGENT_TRANSFER_SIGMA0,
    build_certificate_cg,
    build_certificate_neumann,
    check_pt_expansion,
    deviation_stat,
    estimate_trace_moment,
    neumann_coeffs,
    neumann_term_norms,
    try_build_certificate,
    verify_certificate,
)
from .errors import (
    ConvergenceError,
    DegenerateInputError,
    DivergenceError,
    GenerationFailureError,
    InjectivityError,
    InvalidParameterError,
    MclabError,
    NumericFailureError,
)
from .experiments import (
    ExperimentConfig,
    ExperimentRow,
    FIELDS,
    apply_overrides,
    emit,
    parse_config,
    rows_from_csv,
    rows_to_csv,
    run,
    wilson_interval,
)
from .geometry import (
    CancellationReport,
    IncoherenceReport,
    TangentSpace,
    check_cancellation,
    incoherence,
    tangent_space,
)
from .linalg import Rng, SvdFactors, haar_orthogonal, orthonormalize, spectral_norm, svd
from .models import (
    BlockModelSpec,
    GroundTruth,
    block_model_spec,
    default_sigma,
    gen_lower_bound_block,
    gen_low_coherence,
    gen_random_orthogonal,
    gen_uniformly_bounded,
    gt_from_text,
    gt_to_text,
    hadamard_family,
)
from .sampling import (
    SampleSet,
    from_text,
    project_omega,
    q_omega,
    sample_bernoulli,
    sample_uniform,
    to_text,
)
from .solver import SolveResult, SolverParams, complete, recovered, shrink

__version__ = "0.1.0"
