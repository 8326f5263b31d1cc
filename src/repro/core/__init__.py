"""Core contribution: distributional OT repair (Algorithms 1 & 2) and
baselines."""

from .backend import (ArrayBackend, ArrayAPIBackend, NumpyBackend,
                      get_backend)
from .design import SOLVERS, design_feature_plan, design_repair
from .diagnostics import CellDiagnostic, DriftMonitor, DriftReport
from .executor import (EXECUTOR_NAMES, Executor, ProcessExecutor,
                       SerialExecutor, ThreadExecutor, resolve_executor)
from .geometric import (GeometricRepairer, geometric_repair_1d,
                        geometric_repair_multivariate)
from .joint import (JointDistributionalRepairer, JointFeaturePlan,
                    JointRepairPlan, design_joint_repair)
from .serialize import PLAN_DTYPES, load_plan, save_plan
from .labels import GaussianClassConditional, SubgroupLabelModel, em_refine
from .monge import MongeFeatureMap, MongeRepairer
from .partial import PartialRepairer, dampen_repair, repair_damage
from .pipeline import RepairPipeline, RepairReport
from .plan import FeaturePlan, RepairPlan
from .repair import (DistributionalRepairer, repair_dataset,
                     repair_feature_values)

__all__ = [
    "EXECUTOR_NAMES",
    "PLAN_DTYPES",
    "SOLVERS",
    "ArrayAPIBackend",
    "ArrayBackend",
    "CellDiagnostic",
    "DistributionalRepairer",
    "DriftMonitor",
    "DriftReport",
    "Executor",
    "FeaturePlan",
    "GaussianClassConditional",
    "GeometricRepairer",
    "JointDistributionalRepairer",
    "JointFeaturePlan",
    "JointRepairPlan",
    "MongeFeatureMap",
    "MongeRepairer",
    "NumpyBackend",
    "PartialRepairer",
    "ProcessExecutor",
    "RepairPipeline",
    "RepairPlan",
    "RepairReport",
    "SerialExecutor",
    "SubgroupLabelModel",
    "ThreadExecutor",
    "dampen_repair",
    "design_feature_plan",
    "design_joint_repair",
    "design_repair",
    "em_refine",
    "geometric_repair_1d",
    "geometric_repair_multivariate",
    "get_backend",
    "load_plan",
    "repair_damage",
    "resolve_executor",
    "save_plan",
    "repair_dataset",
    "repair_feature_values",
]
