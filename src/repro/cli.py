"""Command-line interface.

``python -m repro <command>`` drives the library without writing code:

* ``experiment {table1,table2,fig3,fig4}`` — regenerate a paper artefact;
* ``design`` — fit repair plans on a labelled CSV and save them;
* ``serve`` — keep saved plans warm behind a multi-worker HTTP tier;
* ``repair`` — apply saved plans to an archival CSV;
* ``evaluate`` — measure the conditional-dependence metric of a CSV;
* ``solvers`` — list the registered OT solvers ``--solver`` accepts.

CSV layout for the data commands: a header row, one column per feature,
plus integer columns named ``s`` and ``u`` (configurable).
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .core.repair import DistributionalRepairer, repair_dataset
from .core.serialize import load_plan, save_plan
from .data.dataset import FairnessDataset
from .data.schema import TableSchema
from .exceptions import DataError, ReproError
from .core.backend import available_backends, get_backend
from .metrics.fairness import conditional_dependence_energy
from .ot.registry import resolve_solver, solver_descriptions

__all__ = ["main", "build_parser", "read_csv_dataset",
           "write_csv_dataset"]


def read_csv_dataset(path, *, s_column: str = "s",
                     u_column: str = "u") -> FairnessDataset:
    """Load a labelled data set from a headered CSV file."""
    file_path = Path(path)
    if not file_path.exists():
        raise DataError(f"data file not found: {file_path}")
    with open(file_path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{file_path}: empty file") from None
        header = [name.strip() for name in header]
        for required in (s_column, u_column):
            if required not in header:
                raise DataError(
                    f"{file_path}: missing required column "
                    f"{required!r} (have {header})")
        s_index = header.index(s_column)
        u_index = header.index(u_column)
        feature_indices = [i for i in range(len(header))
                           if i not in (s_index, u_index)]
        if not feature_indices:
            raise DataError(f"{file_path}: no feature columns")
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{file_path}:{line_no}: expected {len(header)} "
                    f"fields, got {len(row)}")
            try:
                rows.append([float(value) for value in row])
            except ValueError as exc:
                raise DataError(
                    f"{file_path}:{line_no}: non-numeric field "
                    f"({exc})") from exc
    if not rows:
        raise DataError(f"{file_path}: no data rows")
    matrix = np.asarray(rows)
    schema = TableSchema.from_names(
        [header[i] for i in feature_indices],
        protected=s_column, unprotected=u_column)
    return FairnessDataset(matrix[:, feature_indices],
                           matrix[:, s_index], matrix[:, u_index],
                           schema=schema)


def write_csv_dataset(dataset: FairnessDataset, path) -> None:
    """Write a data set back out with the same column convention."""
    file_path = Path(path)
    with open(file_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(dataset.feature_names)
                        + [dataset.schema.protected,
                           dataset.schema.unprotected])
        for i in range(len(dataset)):
            writer.writerow([f"{v:.10g}" for v in dataset.features[i]]
                            + [int(dataset.s[i]), int(dataset.u[i])])


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OT-based fairness repair of archival data "
                    "(ICDE 2024 reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)

    experiment = commands.add_parser(
        "experiment", help="regenerate a paper table or figure")
    experiment.add_argument("artefact",
                            choices=("table1", "table2", "fig3", "fig4",
                                     "tradeoff", "correlation", "monge"))
    experiment.add_argument("--repeats", type=int, default=None,
                            help="Monte-Carlo repetitions (simulated "
                                 "experiments)")
    experiment.add_argument("--seed", type=int, default=2024)
    experiment.add_argument("--adult-path", default=None,
                            help="real adult.data file for table2")

    design = commands.add_parser(
        "design", help="fit repair plans on a labelled research CSV")
    design.add_argument("research_csv")
    design.add_argument("plan_file", help="output .npz plan archive")
    design.add_argument("--n-states", type=int, default=50)
    design.add_argument("--t", type=float, default=0.5)
    design.add_argument("--solver", default="exact",
                        help="any registered OT solver name (see the "
                             "'solvers' command, e.g. exact, screened, "
                             "multiscale); typos fail with the available "
                             "names")
    design.add_argument("--solver-opt", action="append", default=[],
                        metavar="KEY=VALUE", dest="solver_opts",
                        help="extra solver option, repeatable (e.g. "
                             "--solver-opt coarsen=4 --solver-opt "
                             "levels=2 for --solver multiscale — "
                             "levels=auto builds the full pyramid — or "
                             "--solver-opt restricted_engine=lp to swap "
                             "screened/multiscale onto the scipy LP "
                             "oracle instead of the native network "
                             "simplex; restricted_engine=banded forces "
                             "the pivot-free monotone kernel that "
                             "multiscale's auto engine already picks on "
                             "certified cells); numeric values are "
                             "auto-converted, options the solver does "
                             "not accept are dropped")
    design.add_argument("--marginal-estimator", default="kde",
                        choices=("kde", "linear"))
    design.add_argument("--n-jobs", type=int, default=None,
                        help="worker budget for the design's execution "
                             "engine (default: serial)")
    design.add_argument("--executor", default="auto",
                        choices=("auto", "serial", "thread", "process"),
                        help="execution strategy for the non-vectorised "
                             "design work: thread suits BLAS/LP-bound "
                             "solvers (screened, multiscale, lp), "
                             "process is the historical --n-jobs "
                             "fan-out; auto picks per solver. Batch-"
                             "kernel solvers (exact) vectorise same-"
                             "grid cells regardless of the strategy")
    design.add_argument("--backend", default="auto",
                        help="compute backend for the vectorised plan "
                             "solves: auto/numpy (bit-identical "
                             "default), torch or cupy when installed, "
                             "array_api_strict for conformance runs; "
                             "unknown or unavailable names fail before "
                             "the CSV is read, and the resolved name "
                             "is recorded in the plan metadata")
    design.add_argument("--plan-dtype", default="float64",
                        choices=("float64", "float32"),
                        help="storage dtype of the transport-plan "
                             "arrays in the saved archive; float32 "
                             "halves the plan bytes on disk (loaders "
                             "up-convert, values round-trip to ~1e-7)")
    design.add_argument("--sparse-plans", action="store_true",
                        help="store transport plans CSR-sparse; exact "
                             "plans are CSR already, and for solvers "
                             "with dense plans this cuts the archive "
                             "roughly n_Q-fold when they are sparse")
    design.add_argument("--index-dtype", default=None,
                        choices=("int32", "int64"),
                        help="width of the CSR index arrays in sparse "
                             "archives (default: int32 whenever the "
                             "matrices fit, int64 otherwise; loaders "
                             "up-convert transparently)")
    design.add_argument("--plan-shard", default=None, metavar="MODE",
                        help="split the plan across several archive "
                             "files plus a JSON manifest: 'u' (one per "
                             "unprotected group), 'cell' (one per (u,k) "
                             "cell), or an integer shard count; loaders "
                             "and 'repro serve' read manifests "
                             "transparently")
    design.add_argument("--compress", action="store_true",
                        help="deflate the plan archive (only worthwhile "
                             "for dense entropic plans; sparse archives "
                             "gain little)")

    serve = commands.add_parser(
        "serve", help="serve Algorithm-2 repairs from a saved plan "
                      "over HTTP")
    serve.add_argument("--plan", required=True,
                       help=".npz plan archive or .manifest.json from "
                            "--plan-shard")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321)
    serve.add_argument("--workers", type=int, default=1,
                       help="worker processes sharing one listening "
                            "socket; each memory-maps the same plan")
    serve.add_argument("--no-mmap", action="store_true",
                       help="read the plan eagerly instead of "
                            "memory-mapping it (compressed archives "
                            "fall back to eager reads automatically)")
    serve.add_argument("--max-shards", type=int, default=None,
                       help="bound on concurrently-resident shard files "
                            "when serving a sharded plan (default: all)")
    serve.add_argument("--rounding", default="stochastic",
                       choices=("stochastic", "nearest"))
    serve.add_argument("--output", default="sample",
                       choices=("sample", "barycentric", "interpolated"))
    serve.add_argument("--cache-size", type=int, default=256,
                       help="bound on hot per-(u,s,k) repair kernels "
                            "kept in the LRU cache")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="cap on the requests one merged dispatch "
                            "carries; requests are merged only when "
                            "they queue behind a running dispatch")

    repair = commands.add_parser(
        "repair", help="repair an archival CSV with saved plans")
    repair.add_argument("plan_file")
    repair.add_argument("archive_csv")
    repair.add_argument("output_csv")
    repair.add_argument("--seed", type=int, default=None)

    evaluate = commands.add_parser(
        "evaluate", help="measure conditional dependence (E) of a CSV")
    evaluate.add_argument("data_csv")
    evaluate.add_argument("--n-grid", type=int, default=100)

    commands.add_parser(
        "solvers", help="list the registered OT solvers")

    commands.add_parser(
        "backends", help="list the available compute backends")

    return parser


def _run_experiment(args) -> int:
    if args.artefact == "table1":
        from .experiments.table1 import Table1Config, run_table1
        config = Table1Config(seed=args.seed,
                              n_repeats=args.repeats or 25)
        print(run_table1(config).render())
    elif args.artefact == "table2":
        from .experiments.table2 import Table2Config, run_table2
        config = Table2Config(seed=args.seed, adult_path=args.adult_path)
        print(run_table2(config).render())
    elif args.artefact == "fig3":
        from .experiments.fig3 import Fig3Config, run_fig3
        config = Fig3Config(seed=args.seed, n_repeats=args.repeats or 10)
        result = run_fig3(config)
        print(result.render())
        print(f"converged by nR = {result.converged_by()}")
    elif args.artefact == "fig4":
        from .experiments.fig4 import Fig4Config, run_fig4
        config = Fig4Config(seed=args.seed, n_repeats=args.repeats or 10)
        result = run_fig4(config)
        print(result.render())
        print(f"converged by nQ = {result.convergence_threshold()}")
    elif args.artefact == "tradeoff":
        from .experiments.extensions import run_tradeoff
        print(run_tradeoff(seed=args.seed).render())
    elif args.artefact == "correlation":
        from .experiments.extensions import run_correlation_study
        print(run_correlation_study(seed=args.seed).render())
    else:
        from .experiments.extensions import run_monge_study
        print(run_monge_study(seed=args.seed).render())
    return 0


def _run_backends(args) -> int:
    names = available_backends()
    for name in names:
        suffix = " (default)" if name == "numpy" else ""
        print(f"{name}{suffix}")
    return 0


def _run_solvers(args) -> int:
    descriptions = solver_descriptions()
    width = max(len(name) for name in descriptions)
    for name, description in descriptions.items():
        print(f"{name:<{width}}  {description}")
    return 0


def _parse_solver_opts(pairs) -> dict:
    """Parse repeated ``--solver-opt KEY=VALUE`` flags into a dict.

    Values are converted to ``bool`` (``true``/``false``, case
    insensitive), ``int`` or ``float`` when they parse as one (solver
    signatures are numeric- and flag-heavy); everything else stays a
    string (e.g. ``coarse_method=lp``).
    """
    opts = {}
    for pair in pairs:
        key, separator, raw = pair.partition("=")
        key = key.strip()
        if not key or not separator:
            raise DataError(
                f"--solver-opt expects KEY=VALUE, got {pair!r}")
        raw = raw.strip()
        value: object = raw
        if raw.lower() in ("true", "false"):
            value = raw.lower() == "true"
        else:
            try:
                value = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    pass
        opts[key] = value
    return opts


def _run_design(args) -> int:
    # Resolve the solver, the backend and the options eagerly so a typo
    # fails before the CSV is even read, with the available names.
    resolve_solver(args.solver)
    get_backend(args.backend)
    solver_opts = _parse_solver_opts(args.solver_opts)
    research = read_csv_dataset(args.research_csv)
    repairer = DistributionalRepairer(
        n_states=args.n_states, t=args.t, solver=args.solver,
        solver_opts=solver_opts,
        marginal_estimator=args.marginal_estimator, n_jobs=args.n_jobs,
        executor=args.executor, backend=args.backend,
        sparse_plans=args.sparse_plans)
    repairer.fit(research)
    shard_by = args.plan_shard
    if shard_by is not None and shard_by.lstrip("-").isdigit():
        shard_by = int(shard_by)
    written = save_plan(repairer.plan, args.plan_file,
                        compress=args.compress, dtype=args.plan_dtype,
                        index_dtype=args.index_dtype, shard_by=shard_by)
    metadata = repairer.plan.metadata
    n_sparse = metadata.get("n_sparse_transports", 0)
    print(f"designed {len(repairer.plan.feature_plans)} feature plans "
          f"({n_sparse} sparse transports, "
          f"{metadata.get('n_batched_solves', 0)} batched solves, "
          f"executor {metadata.get('executor', 'serial')}, "
          f"backend {metadata.get('backend', 'numpy')}) on "
          f"{len(research)} research rows -> {written}")
    return 0


def _run_serve(args) -> int:
    # Imported lazily: offline commands shouldn't pay for http.server.
    from .serve.server import serve as run_server

    run_server(args.plan, host=args.host, port=args.port,
               workers=args.workers, mmap=not args.no_mmap,
               max_shards=args.max_shards, rounding=args.rounding,
               output=args.output, cache_size=args.cache_size,
               max_batch=args.max_batch)
    return 0


def _run_repair(args) -> int:
    plan = load_plan(args.plan_file)
    archive = read_csv_dataset(args.archive_csv)
    rng = np.random.default_rng(args.seed)
    repaired = repair_dataset(archive, plan, rng=rng)
    write_csv_dataset(repaired, args.output_csv)
    print(f"repaired {len(repaired)} rows -> {args.output_csv}")
    return 0


def _run_evaluate(args) -> int:
    data = read_csv_dataset(args.data_csv)
    report = conditional_dependence_energy(data.features, data.s, data.u,
                                           n_grid=args.n_grid)
    for k, name in enumerate(data.feature_names):
        print(f"E[{name}] = {report.per_feature[k]:.6g}")
    print(f"E total = {report.total:.6g}")
    return 0


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "experiment": _run_experiment,
        "design": _run_design,
        "serve": _run_serve,
        "repair": _run_repair,
        "evaluate": _run_evaluate,
        "solvers": _run_solvers,
        "backends": _run_backends,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
