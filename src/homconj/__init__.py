"""Numerical toolkit for conjugating homeomorphisms by gated Picard iteration.

The package estimates a weighted-displacement premetric on groups of
homeomorphisms, checks the generalized eigenvalue gate that turns the
conjugacy operator h -> f∘h∘g^-1 into a contraction, and iterates that
operator to compute conjugating maps, with an increment-envelope monitor
and a worked half-line contraction family exercising the whole pipeline.
"""

__version__ = "0.1.0"

from .conjugacy import (
    BoundReport,
    CauchyEnvelope,
    ConjugacyResult,
    GateConstants,
    IterationTrace,
    PicardContext,
    StepRecord,
    cauchy_envelope,
    conjugacy_operator,
    conjugacy_residual,
    contraction_check,
    envelope_threshold,
    negative_iterates_bound,
    picard_solve,
)
from .families import (
    FAMILIES,
    BumpSpec,
    ContractionPairBundle,
    build_contraction_pair,
    build_lozi,
    build_perturbed_linear,
    build_pure_linear,
    build_translation,
    bump_eval,
    bump_lipschitz,
    damped_inverse,
)
from .funcspace import (
    BUILTIN_TRIPLE_NAMES,
    ConditionCheck,
    CrossConstants,
    Domain,
    Gauge,
    RadialFn,
    SampleScheme,
    Tolerances,
    ValidationReport,
    builtin_triple,
    doubling_sample_sets,
    exhaustion_sets,
    gauge_from_growth,
    make_radial,
    sample_points,
    validate_gauge,
    validate_scale_pair,
)
from .homspace import (
    DisplacementEstimate,
    DomainMismatchError,
    EstimateContext,
    EvaluationError,
    Homeo,
    InequalityReport,
    MembershipVerdict,
    PremetricEstimate,
    ball_inside_ball_radius,
    check_relaxed_triangle,
    compact_convergence_distance,
    compose,
    displacement,
    group_membership,
    identity,
    invert,
    koopman_lambda,
    premetric,
    primitive,
    roundtrip_error,
)
from .koopman import (
    ConvergenceError,
    EigenReport,
    FunctionalLowerBound,
    KoenigsReport,
    ObstructionReport,
    RLipschitzEstimate,
    ResidualReport,
    WanderingReport,
    abel_check,
    check_p_alpha,
    koenigs_eigenfunction,
    periodic_obstruction,
    r_lipschitz,
    schroeder_functional_check,
    wandering_check,
)
