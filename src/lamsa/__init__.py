"""Contact-latch spring-actuator toolkit.

Simulates the two-mode (latched/unlatched) switched dynamics with event
detection, solves and classifies the latched equilibria, traces the
moving saddle as the latch force varies, and checks the design condition
for the saddle-node disappearance at zero force.  The paper's printed
formulas, some of them known to be wrong, are kept apart for comparison
in ``lamsa.published``.
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
)
from .simulate import (
    Event,
    EventKind,
    IntegratorConfig,
    Trajectory,
    TrajectorySample,
    simulate,
)
from .equilibria import FixedPoint, balance_residual, fixed_point_sweep, fixed_points, unlatched_fixed_point
from .stability import (
    Classification,
    StabilityReport,
    characteristic_invariants,
    classify,
    eigenvalues_biquadratic,
    jacobian_fd_at,
    stability_report,
)
from .bifurcation import (
    ContinuationPath,
    DesignReport,
    PathTerminal,
    RegionMap,
    design_feasibility,
    saddle_region_map,
    trace_path,
)
from .config import FLRange, RunConfig, parse_config, sweep_values
from . import errors, published

__version__ = "0.1.0"
