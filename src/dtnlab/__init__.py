"""dtnlab: discrete Dirichlet-to-Neumann spectral analysis.

Builds finite-difference Schrodinger operators on truncated domains as exact
discrete boundary triples, computes the lambda-dependent DtN matrix M and the
Poisson operator gamma, extracts boundary limits of M, and reads off spectral
verdicts and measures from them.
"""

from .errors import (
    AtomHit,
    ConfigError,
    ContourTouchesSpectrum,
    DegenerateParameters,
    DomainError,
    DtnLabError,
    EndpointOnEigenvalue,
    Inconclusive,
    NearSpectrum,
    SingularRobinPencil,
)
from .domain import (
    DirichletOperator,
    DiscreteDomain,
    EigenSystem,
    Exterior2D,
    HalfLine1D,
    PotentialField,
    assemble_operator,
    build_domain,
    oracle_eigendecomposition,
    oracle_projector,
    tabulated_potential,
    well_potential,
    zero_potential,
)
from .dtn import (
    DtnMatrix,
    IdentityReport,
    PoissonMatrix,
    RobinMap,
    boundary_adjoint,
    dtn_matrix,
    gamma_adjoint,
    identity_suite,
    normal_derivative,
    poisson_matrix,
    poisson_solve,
    robin_to_dirichlet,
)
from .limits import (
    AnalyticityReport,
    EtaSchedule,
    LimitEstimate,
    ResidueMatrix,
    analyticity_test,
    boundary_value_M,
    dtn_profile,
    residue_contour,
    richardson_extrapolate,
    slim_eta_M,
)
from .classify import (
    ACSupportSet,
    ClassifyConfig,
    GridSet,
    PointVerdict,
    PurityVerdict,
    SCReport,
    TauReport,
    ac_support,
    classify_point,
    eigenspace_via_tau,
    essential_closure,
    make_probes,
    purity_filter,
    refine_pole,
    sc_screen,
)
from .measures import (
    SimplicityReport,
    SpectralMeasure,
    StoneResult,
    SupportReport,
    ac_sc_supports,
    borel_transform,
    density,
    point_mass,
    simplicity_rank,
    spectral_measure,
    stone_projection,
)
from .config import RunConfig, config_from_dict, parse_config
from .report import (
    ClassificationReport,
    build_model,
    emit_csv,
    emit_plot_data,
    emit_report,
    parse_report,
    run_sweep,
)

__version__ = "0.1.0"
