"""Path continuity toolkit for AGVs with independently steered wheels.

Models multi-wheeled vehicles whose body orientation is decoupled from the
travel direction, computes exact wheel-level kinematic profiles along
Bezier path segments under selectable motion modes, verifies junction
continuity conditions, repairs discontinuous junctions by re-optimizing
control points, and plans velocity profiles under actuator limits.
"""

from .curve import (BezierCurve, CurveJet, Point2, ShapeParameters, arc_length,
                    check_geometric_continuity, curvature,
                    curvature_arc_derivative, evaluate)
from .motion import (Crab, ExponentialAnticipated, ExponentialDelayed,
                     MotionMode, OrientationJet, Tangential, orientation,
                     orientation_at_end)
from .vehicle import (Path, PathSegment, VehicleModel, Wheel, differential_alpha,
                      validate_vehicle)
from .kinematics import (SegmentProfile, SpeedLimitSample, WheelState,
                         fold_steering_angles, profile_segment, speed_limit,
                         wheel_curve_jet, wheel_speed_limit, wheel_state)
from .continuity import (ContinuityReport, JunctionContext, Tolerances,
                         analyze_junction, audit_wheel_continuity,
                         check_exponential_junction, check_path,
                         check_tangential_junction, extract_shape_parameters)
from .repair import (RepairProblem, RepairResult, estimate_travel_time,
                     prescribe_endpoint_jet, repair_exponential,
                     repair_junction, repair_tangential)
from .profile import VelocityProfile, plan_velocity, time_along
from .layout import LayoutDocument, parse_layout, serialize_layout
from .errors import (DegenerateGeometryError, DiscontinuousPathError,
                     LayoutError, RepairInfeasibleError,
                     SingularParameterizationError)

__version__ = "0.1.0"
