"""Coordinated motion of multi-agent swarms on Lie groups."""

from .groups import (
    GROUPS, SE2, SE3, SO3, TAU_MANIFOLD, GroupError, LieGroup, get_group, hat,
    is_unitary_adjoint, vee,
)
from .graphs import CommGraph, GraphError
from .controllers import (
    CONTROLLERS,
    ControlSetting,
    ControllerError,
    build_controller,
    check_sign_condition,
    compatibility_check,
    lic_consensus_rhs,
    ric_consensus_rhs,
    se3_steering_consensus_helical_rhs,
    se3_steering_consensus_linear_rhs,
    tc_left_cascade_rhs,
    tc_right_cascade_rhs,
    underactuated_lic_rhs,
)
from .simulator import (
    ConfigError,
    InitSpec,
    ScenarioConfig,
    SwarmState,
    Trajectory,
    metric_traces,
    run,
)
from .analysis import (
    AnalysisError,
    check_coordination,
    check_se2_lic_tc_equivalence,
    cm_algebra_basis,
    cm_algebra_dimension,
    cm_group_dimension_estimate,
    cm_membership,
    compatible_velocities,
    generate_tc_configuration,
    tc_basin_probe,
    random_cm_element,
    se2_circle_center,
    se3_screw_axis,
    so3_anti_aligned_state,
    so3_saddle_escape,
)
from .scenario import parse_scenario

__version__ = "0.1.0"
