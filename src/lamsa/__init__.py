"""Contact-latch spring-actuator toolkit.

Simulates the two-mode (latched/unlatched) switched dynamics with event
detection, solves and classifies the latched equilibria, traces the
moving saddle as the latch force varies, and checks the design condition
for the saddle-node disappearance at zero force.
"""

from .model import (
    Mode,
    ModelVariant,
    SystemParams,
    SystemState,
    contact_force,
    holonomic_h,
    latch_from_projectile,
    mechanical_energy,
    mode_of,
    spring_force,
    vector_field,
)
from .simulate import (
    Event,
    EventKind,
    IntegratorConfig,
    Trajectory,
    TrajectorySample,
    integrate_step,
    project_to_constraint,
    simulate,
)
from .equilibria import (
    FixedPoint,
    QuarticD,
    balance_residual,
    eval_quartic,
    eval_quartic_derivative,
    fixed_point_sweep,
    fixed_points,
    quartic_coefficients,
    roots_in_interval,
    unlatched_fixed_point,
)
from .stability import (
    Classification,
    StabilityReport,
    characteristic_invariants,
    classify,
    closed_form_ABGD,
    eigenvalues_biquadratic,
    extract_ABGD,
    jacobian_fd,
    jacobian_fd_at,
    real_pair_exists,
    stability_report,
)
from .bifurcation import (
    ContinuationPath,
    DesignReport,
    NominalFormula,
    PathTerminal,
    RegionMap,
    design_feasibility,
    in_region_U,
    nominal_rhs,
    saddle_region_map,
    trace_path,
)
from .config import FLRange, RunConfig, parse_config, sweep_values
from . import errors

__version__ = "0.1.0"
