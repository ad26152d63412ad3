"""Controlled rough path calculus at desk scale.

Truncated tensor algebra, piecewise-linear lifts to geometric rough paths,
controlled paths, composition with Lipschitz fields, compensated-sum rough
integration, and a fixed-point RDE solver with interval patching.
"""

from .controlled_path import (
    ControlledPath,
    canonical_lift,
    concatenate,
    distance,
    seminorm,
    triple_norm,
)
from .lipschitz import LipFunction, compose, expansion_identity_check, ridge
from .rde_solver import SolveReport, SolverConfig, continuity_probe, picard_step, solve

# NB: the rough_integral *function* stays namespaced under its module; a
# package-level re-export would shadow the submodule attribute.
from .rough_integral import Partition, compensated_sum, integral_controlled
from .rough_path import (
    GeometricRoughPath,
    PiecewiseLinearPath,
    holder_distance,
    holder_norm,
    increment,
    lift_path,
)
from .tensor_algebra import (
    TensorSeries,
    coproduct,
    exp_segment,
    group_inverse,
    is_group_like,
    shuffle_product,
    symmetrize,
    tensor_mul,
)

__version__ = "0.1.0"

__all__ = [
    "ControlledPath", "GeometricRoughPath", "LipFunction", "Partition",
    "PiecewiseLinearPath", "SolveReport", "SolverConfig", "TensorSeries",
    "canonical_lift", "compensated_sum", "compose",
    "concatenate", "continuity_probe", "coproduct", "distance",
    "exp_segment", "expansion_identity_check", "group_inverse",
    "holder_distance", "holder_norm", "increment", "integral_controlled",
    "is_group_like", "lift_path", "picard_step", "ridge",
    "seminorm", "shuffle_product", "solve", "symmetrize", "tensor_mul",
    "triple_norm",
]
