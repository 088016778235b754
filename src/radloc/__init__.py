"""Compton-cone reconstruction and real-time gamma source localization.

Pipeline layout:

- ``events``: pixel hits to tracks, coincidence pairs, and camera-frame cones
- ``geometry`` / ``cones``: frames, pose streams, and cone surface primitives
- ``initializer``: constrained least-squares position initialization
- ``estimator``: projection-corrected Kalman filter and session lifecycle
- ``simulator``: closed-loop Monte-Carlo flight and detector simulation
- ``io`` / ``cli``: file formats and the command-line front end
"""

from .cones import ProjectionCase, ProjectionResult, project_to_cone
from .errors import (
    InfeasibleInitError,
    InvalidRowError,
    MalformedInputError,
    OrderingError,
    ParseError,
    PoseExtrapolationError,
    RadlocError,
    SchemaError,
)
from .estimator import (
    Action,
    FilterState,
    NoiseConfig,
    SessionStats,
    SourceEstimator,
    correct,
    predict,
)
from .events import (
    EventClass,
    HitBatch,
    PairBatch,
    Pairing,
    TrackBatch,
    build_cone,
    cluster_hits,
    delta_z,
    make_pair,
    pair_coincident,
    process_hits,
    process_pairs,
)
from .geometry import Cone, Frame, PoseStream, interpolate_pose, transform_cone
from .initializer import InitProblem, InitSolution, Mode, solve
from .simulator import DetectorModel, Scenario, SimulationReport, metrics, run_scenario

__version__ = "0.1.0"
