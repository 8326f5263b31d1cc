"""Tests for the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import (build_parser, main, read_csv_dataset,
                       write_csv_dataset)
from repro.data.simulated import paper_simulation_spec
from repro.exceptions import DataError
from repro.serve import server as serve_server


@pytest.fixture
def sample_csv(tmp_path, rng):
    data = paper_simulation_spec().sample(400, rng=rng)
    path = tmp_path / "data.csv"
    write_csv_dataset(data, path)
    return path, data


class TestCsvRoundTrip:
    def test_read_back(self, sample_csv):
        path, original = sample_csv
        loaded = read_csv_dataset(path)
        assert len(loaded) == len(original)
        np.testing.assert_allclose(loaded.features, original.features,
                                   rtol=1e-9)
        np.testing.assert_array_equal(loaded.s, original.s)
        np.testing.assert_array_equal(loaded.u, original.u)
        assert loaded.feature_names == original.feature_names

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            read_csv_dataset(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            read_csv_dataset(path)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1\n1.0,2.0\n")
        with pytest.raises(DataError, match="missing required column"):
            read_csv_dataset(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,s,u\nabc,0,1\n")
        with pytest.raises(DataError, match="non-numeric"):
            read_csv_dataset(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,s,u\n1.0,0\n")
        with pytest.raises(DataError, match="expected 3"):
            read_csv_dataset(path)

    def test_no_feature_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("s,u\n0,1\n")
        with pytest.raises(DataError, match="no feature columns"):
            read_csv_dataset(path)

    def test_float_typed_whole_labels_load(self, tmp_path):
        path = tmp_path / "floats.csv"
        path.write_text("x0,s,u\n1.0,0.0,1.0\n2.0,1.0,0.0\n")
        loaded = read_csv_dataset(path)
        np.testing.assert_array_equal(loaded.s, [0, 1])
        np.testing.assert_array_equal(loaded.u, [1, 0])


class TestParser:
    def test_all_subcommands_present(self):
        parser = build_parser()
        for argv in (["experiment", "table1"],
                     ["design", "r.csv", "p.npz"],
                     ["serve", "--plan", "p.npz"],
                     ["repair", "p.npz", "a.csv", "o.csv"],
                     ["evaluate", "d.csv"]):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--plan", "p.npz"])
        assert args.workers == 1
        assert args.port == 8321
        assert args.max_batch == 32
        assert not args.no_mmap
        assert not hasattr(args, "max_wait")  # no batching timer to set

    def test_experiment_choices_enforced(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["experiment", "table9"])


class TestCommands:
    def test_design_repair_evaluate_cycle(self, sample_csv, tmp_path,
                                          capsys):
        data_path, _ = sample_csv
        plan_path = tmp_path / "plan.npz"
        out_path = tmp_path / "repaired.csv"

        assert main(["design", str(data_path), str(plan_path),
                     "--n-states", "20"]) == 0
        assert plan_path.exists()
        assert "designed" in capsys.readouterr().out

        assert main(["repair", str(plan_path), str(data_path),
                     str(out_path), "--seed", "1"]) == 0
        assert out_path.exists()
        assert "repaired" in capsys.readouterr().out

        assert main(["evaluate", str(out_path)]) == 0
        output = capsys.readouterr().out
        assert "E total" in output

    def test_design_parallel_flags_store_sparse_plans(self, sample_csv,
                                                      tmp_path, capsys):
        data_path, _ = sample_csv
        plan_path = tmp_path / "plan.npz"
        out_path = tmp_path / "repaired.csv"
        assert main(["design", str(data_path), str(plan_path),
                     "--n-states", "20", "--n-jobs", "2"]) == 0
        assert "sparse transports" in capsys.readouterr().out
        from repro.core.serialize import load_plan
        plan = load_plan(plan_path)
        assert all(fp.transports[s].is_sparse
                   for fp in plan.feature_plans.values()
                   for s in fp.s_values)
        assert plan.metadata["n_jobs"] == 2
        assert main(["repair", str(plan_path), str(data_path),
                     str(out_path), "--seed", "1"]) == 0
        assert out_path.exists()

    def test_design_compress_flag_loads_identically(self, sample_csv,
                                                    tmp_path, capsys):
        data_path, _ = sample_csv
        plain, packed = tmp_path / "plain.npz", tmp_path / "packed.npz"
        assert main(["design", str(data_path), str(plain),
                     "--n-states", "15"]) == 0
        assert main(["design", str(data_path), str(packed),
                     "--n-states", "15", "--compress"]) == 0
        capsys.readouterr()
        from repro.core.serialize import load_plan
        a, b = load_plan(plain), load_plan(packed)
        for key in a.feature_plans:
            for s in (0, 1):
                np.testing.assert_array_equal(
                    a.feature_plans[key].transports[s].toarray(),
                    b.feature_plans[key].transports[s].toarray())

    def test_evaluate_reports_per_feature(self, sample_csv, capsys):
        data_path, _ = sample_csv
        assert main(["evaluate", str(data_path)]) == 0
        output = capsys.readouterr().out
        assert "E[x1]" in output and "E[x2]" in output

    def test_error_paths_return_nonzero(self, tmp_path, capsys):
        code = main(["evaluate", str(tmp_path / "missing.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_design_rejects_fractional_labels(self, tmp_path, capsys):
        path = tmp_path / "half.csv"
        path.write_text("x0,s,u\n1.0,0.5,0\n2.0,1,0\n3.0,0,0\n")
        assert main(["design", str(path), str(tmp_path / "plan.npz"),
                     "--n-states", "5"]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "plan.npz").exists()

    def test_repair_with_missing_plan_fails_cleanly(self, sample_csv,
                                                    tmp_path, capsys):
        data_path, _ = sample_csv
        code = main(["repair", str(tmp_path / "no.npz"),
                     str(data_path), str(tmp_path / "out.csv")])
        assert code == 1

    def test_repair_with_empty_plan_file_fails_cleanly(self, sample_csv,
                                                       tmp_path, capsys):
        data_path, _ = sample_csv
        empty = tmp_path / "empty.npz"
        empty.write_bytes(b"")
        code = main(["repair", str(empty), str(data_path),
                     str(tmp_path / "out.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestExperimentCommand:
    def test_fig4_small(self, capsys):
        # Smallest artefact; keep the CLI experiment path covered without
        # a heavy run.
        assert main(["experiment", "fig4", "--repeats", "1",
                     "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "Figure 4" in output
        assert "converged by nQ" in output

    def test_monge_extension(self, capsys):
        assert main(["experiment", "monge", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "Monge" in output

    def test_extension_choices_accepted(self):
        parser = build_parser()
        for artefact in ("tradeoff", "correlation", "monge"):
            args = parser.parse_args(["experiment", artefact])
            assert args.artefact == artefact


class TestDtypeFlags:
    def test_design_plan_dtype_float32_round_trips(self, sample_csv,
                                                   tmp_path, capsys):
        data_path, _ = sample_csv
        plan_path = tmp_path / "plan32.npz"
        out_path = tmp_path / "repaired.csv"
        assert main(["design", str(data_path), str(plan_path),
                     "--n-states", "20", "--plan-dtype", "float32"]) == 0
        import json

        import numpy as np

        with np.load(plan_path) as archive:
            header = json.loads(
                bytes(archive["__header__"]).decode("utf-8"))
        assert header["plan_dtype"] == "float32"
        assert main(["repair", str(plan_path), str(data_path),
                     str(out_path), "--seed", "1"]) == 0
        assert out_path.exists()


class TestSolversCommand:
    def test_lists_registered_solvers(self, capsys):
        assert main(["solvers"]) == 0
        output = capsys.readouterr().out
        for name in ("exact", "simplex", "sinkhorn", "screened", "auto"):
            assert name in output

    def test_design_rejects_unknown_solver_with_names(self, sample_csv,
                                                      tmp_path, capsys):
        data_path, _ = sample_csv
        code = main(["design", str(data_path),
                     str(tmp_path / "plan.npz"), "--solver", "quantum"])
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown solver" in err
        assert "screened" in err  # the available names are listed

    def test_design_accepts_registered_solver(self, sample_csv, tmp_path,
                                              capsys):
        data_path, _ = sample_csv
        plan_path = tmp_path / "plan.npz"
        assert main(["design", str(data_path), str(plan_path),
                     "--n-states", "12", "--solver", "lp"]) == 0
        assert plan_path.exists()

    def test_design_solver_opts_threaded_through(self, sample_csv,
                                                 tmp_path, capsys):
        from repro.core.serialize import load_plan

        data_path, _ = sample_csv
        plan_path = tmp_path / "plan.npz"
        assert main(["design", str(data_path), str(plan_path),
                     "--n-states", "64", "--solver", "multiscale",
                     "--solver-opt", "coarsen=4",
                     "--solver-opt", "radius=2"]) == 0
        plan = load_plan(plan_path)
        assert plan.metadata["solver"] == "multiscale"
        assert plan.metadata["solver_opts"] == {"coarsen": 4, "radius": 2}
        record = next(iter(plan.feature_plans.values())).diagnostics[0]
        assert record["solver"] == "multiscale"
        assert record["coarsen"] == 4
        assert record["radius"] == 2

    def test_design_solver_opt_rejects_malformed_pair(self, sample_csv,
                                                      tmp_path, capsys):
        data_path, _ = sample_csv
        code = main(["design", str(data_path), str(tmp_path / "plan.npz"),
                     "--solver-opt", "coarsen"])
        assert code == 1
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_parse_solver_opts_value_conversion(self):
        from repro.cli import _parse_solver_opts

        opts = _parse_solver_opts(["coarsen=4", "epsilon=1e-2",
                                   "coarse_method=lp",
                                   "raise_on_failure=False"])
        assert opts == {"coarsen": 4, "epsilon": 1e-2,
                        "coarse_method": "lp",
                        "raise_on_failure": False}
        assert isinstance(opts["coarsen"], int)
        assert isinstance(opts["epsilon"], float)
        assert opts["raise_on_failure"] is False


class TestServeFlags:
    def test_design_index_dtype_int64(self, sample_csv, tmp_path):
        data_path, _ = sample_csv
        out = tmp_path / "plan.npz"
        assert main(["design", str(data_path), str(out), "--n-states",
                     "16", "--index-dtype", "int64"]) == 0
        with np.load(out) as archive:
            index_keys = [key for key in archive.files
                          if key.endswith("_indices")]
            assert index_keys
            assert all(archive[key].dtype == np.int64
                       for key in index_keys)

    def test_serve_missing_plan_fails_cleanly(self, tmp_path, capsys):
        code = main(["serve", "--plan", str(tmp_path / "absent.npz"),
                     "--port", "0"])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_serve_missing_plan_closes_its_socket(self, tmp_path,
                                                  monkeypatch):
        opened, listening_socket = [], serve_server.listening_socket

        def spy(*args, **kwargs):
            opened.append(listening_socket(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(serve_server, "listening_socket", spy)
        assert main(["serve", "--plan", str(tmp_path / "absent.npz"),
                     "--port", "0"]) == 1
        assert len(opened) == 1
        assert opened[0].fileno() == -1

    def test_forked_serve_with_missing_plan_fails_before_announcing(
            self, tmp_path, capsys):
        # The plan used to be loaded only in the forked workers, so the
        # address was announced, both workers died and the command
        # exited 0.
        code = main(["serve", "--plan", str(tmp_path / "absent.npz"),
                     "--port", "0", "--workers", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err and "not found" in captured.err
        assert "http://" not in captured.out

    def test_forked_serve_with_zero_max_batch_fails_before_announcing(
            self, sample_csv, tmp_path, capsys):
        data_path, _ = sample_csv
        plan_path = tmp_path / "plan.npz"
        assert main(["design", str(data_path), str(plan_path),
                     "--n-states", "16"]) == 0
        capsys.readouterr()
        code = main(["serve", "--plan", str(plan_path), "--port", "0",
                     "--workers", "2", "--max-batch", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err and "max_batch" in captured.err
        assert "http://" not in captured.out
