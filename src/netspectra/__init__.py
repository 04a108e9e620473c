"""netspectra: topology reconstruction of noise-driven LTI networks.

Reconstructs the Boolean structure (and, when an eigenpair of the coupling
matrix is known, the exact edge weights) of a directed network of identical
LTI systems from the cross-power spectral densities of its outputs, together
with the simulate / estimate / reconstruct / evaluate pipeline around it.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    FrequencyRejectedError,
    NetspectraError,
    NumericalError,
    StabilityError,
    ValidationError,
)
from .graphs import (
    BooleanStructure,
    ComparisonMetrics,
    ConnectivityMatrix,
    compare,
    ground,
    is_nonreciprocal,
    laplacian_connectivity,
    load_matrix,
    regular_connectivity,
    save_matrix,
)
from .lti import (
    CpsdMatrix,
    HurwitzReport,
    InputPsdModel,
    NetworkSystem,
    NodeDynamics,
    analytic_cpsd,
    is_hurwitz,
    load_cpsd,
    load_node,
    network_transfer_closed,
    network_transfer_direct,
    nodal_transfer,
    save_cpsd,
    save_node,
)
from .simulate import (
    NoiseConfig,
    SimConfig,
    TimeSeriesMatrix,
    discretize,
    load_timeseries,
    save_timeseries,
    simulate,
    simulate_grounded,
)
from .spectral import (
    CpsdInverse,
    SpectralConfig,
    estimate_cpsd_lag_domain,
    estimate_cpsd_matrix,
    estimate_inverse_cpsd,
    estimate_psd_grid,
    select_omega0,
    snap_frequency,
)
from .reconstruct import (
    ReconstructionDiagnostics,
    ReconstructionResult,
    UndirectedRecovery,
    boolean_directed,
    exact_directed,
    exact_undirected,
    input_psd_from_eigenpair,
    input_psd_laplacian,
    nonreciprocal,
    threshold_heuristic,
)
from .pipeline import ExperimentConfig, load_config, run_pipeline
