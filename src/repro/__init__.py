"""repro — OT-based fairness repair of archival data from small research sets.

Reproduction of Langbridge, Quinn & Shorten, *"Optimal Transport for
Fairness: Archival Data Repair using Small Research Data Sets"* (ICDE 2024).

Quick tour
----------

The repair machinery sits on one unified OT entry point: describe a
problem with :class:`~repro.ot.problem.OTProblem`, call
:func:`~repro.ot.solve.solve`, get an
:class:`~repro.ot.problem.OTResult` back — whichever registered solver
ran (``available_solvers()`` lists them; ``"auto"`` dispatches on
problem structure):

>>> from repro.ot import OTProblem, solve
>>> problem = OTProblem(source_weights=[0.5, 0.5],
...                     target_weights=[0.5, 0.5],
...                     source_support=[0.0, 1.0],
...                     target_support=[0.0, 2.0])
>>> result = solve(problem)                 # auto -> monotone closed form
>>> result.solver, result.converged, result.marginal_residual <= 1e-12
('exact', True, True)

The estimator API rides on top; ``solver=`` accepts any
registry-resolvable spec (``"exact"``, ``"simplex"``, ``"sinkhorn"``,
``"screened"``, a callable, ...):

>>> from repro import simulate_paper_data, DistributionalRepairer
>>> from repro import conditional_dependence_energy
>>> split = simulate_paper_data(n_research=500, n_archive=5000, rng=0)
>>> repairer = DistributionalRepairer(n_states=50, solver="exact", rng=0)
>>> _ = repairer.fit(split.research)                  # Algorithm 1
>>> repaired = repairer.transform(split.archive)      # Algorithm 2
>>> report = conditional_dependence_energy(
...     repaired.features, repaired.s, repaired.u)
>>> report.total < 2.0
True

Subpackages
-----------

``repro.ot``
    Optimal-transport substrate behind the unified ``solve()`` facade:
    pluggable solver registry, exact 1-D, simplex, LP, Sinkhorn, the
    Sinkhorn-screened sparse hybrid, barycentres.
``repro.density``
    KDE, bandwidth selection, interpolation grids.
``repro.metrics``
    Divergences, the paper's ``E`` measure, fairness proxies.
``repro.data``
    Dataset container, simulators, Adult loader/synthesiser, streaming.
``repro.core``
    Algorithms 1 & 2, the geometric baseline, partial repair, label
    estimation, the end-to-end pipeline.
``repro.classify``
    Logistic regression and naive Bayes for DI evaluation.
``repro.experiments``
    Drivers that regenerate every table and figure of the paper.
"""

from ._lazy import lazy_exports

# Exports are imported on first use: a process that only replays a
# stored plan loads neither the design stack nor scipy.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".classify": ("GaussianNaiveBayes", "LogisticRegression"),
    ".core": ("DistributionalRepairer", "DriftMonitor", "GeometricRepairer",
              "PartialRepairer", "RepairPipeline", "RepairPlan",
              "RepairReport", "SubgroupLabelModel", "design_repair",
              "load_plan", "repair_damage", "repair_dataset", "save_plan"),
    ".data": ("ArchiveStream", "AttributeBinner", "FairnessDataset",
              "GaussianMixtureSpec", "ResearchArchiveSplit", "TableSchema",
              "load_adult_csv", "paper_simulation_spec",
              "simulate_paper_data", "synthesize_adult"),
    ".exceptions": ("ConvergenceError", "DataError",
                    "InfeasibleProblemError", "NotFittedError",
                    "ReproError", "SchemaError", "ValidationError"),
    ".metrics": ("conditional_dependence_energy", "disparate_impact",
                 "conditional_disparate_impact", "symmetric_kl"),
    ".ot": ("OTBatch", "OTProblem", "OTResult", "Solver",
            "available_solvers", "register_batch_solver", "register_solver",
            "solve", "solve_many"),
})

__version__ = "1.0.0"

__all__ = [
    "ArchiveStream",
    "AttributeBinner",
    "ConvergenceError",
    "DataError",
    "DistributionalRepairer",
    "DriftMonitor",
    "FairnessDataset",
    "GaussianMixtureSpec",
    "GaussianNaiveBayes",
    "GeometricRepairer",
    "InfeasibleProblemError",
    "LogisticRegression",
    "NotFittedError",
    "OTBatch",
    "OTProblem",
    "OTResult",
    "PartialRepairer",
    "RepairPipeline",
    "RepairPlan",
    "RepairReport",
    "ReproError",
    "ResearchArchiveSplit",
    "SchemaError",
    "Solver",
    "SubgroupLabelModel",
    "TableSchema",
    "ValidationError",
    "__version__",
    "available_solvers",
    "conditional_dependence_energy",
    "conditional_disparate_impact",
    "design_repair",
    "disparate_impact",
    "load_adult_csv",
    "load_plan",
    "paper_simulation_spec",
    "register_batch_solver",
    "register_solver",
    "save_plan",
    "repair_damage",
    "repair_dataset",
    "simulate_paper_data",
    "solve",
    "solve_many",
    "symmetric_kl",
    "synthesize_adult",
]
