"""Simulation and verification laboratory for a nonlinear random walk on Z
with mean-field barrier coupling.

Core pieces: rate profiles and model parameters (`model`), windowed
measures (`lattice`), the coupled measure/(L, M) dynamics (`dynamics`),
discrete-Gaussian fixed points (`equilibrium`), Lyapunov/boundedness
monitors (`lyapunov`), frozen-path transition kernels and path sampling
(`kernel`), interacting-particle approximation (`particles`), and a
reproducible CLI (`cli`).
"""

from .dynamics import (
    IntegratorConfig,
    SystemState,
    TrajectoryLog,
    TrajectorySample,
    conserved_K,
    integrate,
    rhs,
)
from .equilibrium import (
    FixedPoint,
    K_of_s,
    detailed_balance_residual,
    discrete_gaussian,
    fixed_point,
    partition_Xi,
    solve_s_from_K,
)
from .errors import (
    ConfigError,
    ModelConditionError,
    NlwalkError,
    NoFixedPoint,
    NumericalError,
)
from .kernel import (
    FrozenPath,
    Generator,
    Kernel,
    dyson_series,
    generator_at,
    kernel_weighted_distance,
    propagate,
    sample_paths,
    v_induced_norm,
    v_norm_bound,
)
from .lattice import (
    LatticeMeasure,
    Window,
    mean_position,
    total_variation,
)
from .lyapunov import (
    MonitorReport,
    Q_value,
    W_value,
    annotate,
    entropy_H,
    monitor,
)
from .model import (
    BetaProfile,
    ConstantBeta,
    LinearDriftBeta,
    ModelParams,
    TableBeta,
    check_beta_bounded,
    rate_arrays,
)
from .particles import Ensemble, ParticleLog, run_particles

__version__ = "0.1.0"
