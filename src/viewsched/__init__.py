"""Spatial-adaptive branch-to-view scheduling for omnidirectional 3D detection.

The package covers the full runtime loop: a 3D Kalman multi-object tracker,
spatial-distribution forecasting, learned accuracy / latency predictors, an
exact budgeted branch-to-view solver, and a deterministic closed-loop scene
simulator with detector capability profiles for validation.
"""

__version__ = "0.1.0"

from .core import BoxRows, CameraRig, EgoPose, ObjectClass, distribution, views_of
from .branches import (
    BackboneKind,
    BranchConfig,
    DepthNetKind,
    DeviceProfile,
    ProfileError,
    adapt,
    branch_latency,
    enumerate_branches,
    fixed_latency,
)
from .scheduler import ScheduleDecision, ScheduleProblem, sched, solve, solve_bruteforce

__all__ = [
    "__version__",
    "BoxRows",
    "CameraRig",
    "EgoPose",
    "ObjectClass",
    "distribution",
    "views_of",
    "BackboneKind",
    "BranchConfig",
    "DepthNetKind",
    "DeviceProfile",
    "ProfileError",
    "adapt",
    "branch_latency",
    "enumerate_branches",
    "fixed_latency",
    "ScheduleDecision",
    "ScheduleProblem",
    "sched",
    "solve",
    "solve_bruteforce",
]
