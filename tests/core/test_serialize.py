"""Tests for repair-plan persistence."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro.core import serialize
from repro.core.design import design_repair
from repro.core.plan import FeaturePlan, RepairPlan
from repro.core.repair import repair_dataset
from repro.core.serialize import FORMAT_VERSION, load_plan, save_plan
from repro.data.dataset import FairnessDataset
from repro.density.grid import InterpolationGrid
from repro.exceptions import DataError, ValidationError
from repro.ot.coupling import TransportPlan

from _dense import dense_repair_plan


def _feature_plan(nodes, s_values, *, sparse=False, rng=None):
    """A hand-built FeaturePlan whose transports are keyed by ``s_values``."""
    generator = np.random.default_rng(0 if rng is None else rng)
    n = nodes.size
    grid = InterpolationGrid(nodes)
    marginals, transports = {}, {}
    for s in s_values:
        pmf = generator.dirichlet(np.ones(n))
        matrix = np.diag(pmf)  # identity coupling: pmf -> pmf
        plan = TransportPlan(matrix, nodes, nodes, 0.0)
        if sparse:
            plan = plan.to_sparse()
        marginals[s] = pmf
        transports[s] = plan
    barycenter = np.full(n, 1.0 / n)
    return FeaturePlan(grid=grid, marginals=marginals,
                       barycenter=barycenter, transports=transports)


@pytest.fixture(params=["csr", "dense"])
def fitted_plan(paper_split, request):
    """The exact design (CSR transports) and its dense copy: both
    storages must round-trip bitwise, eagerly and through mmap."""
    plan = design_repair(paper_split.research, 20)
    if request.param == "dense":
        plan = dense_repair_plan(plan)
    return plan


class TestRoundTrip:
    def test_structure_preserved(self, fitted_plan, tmp_path):
        written = save_plan(fitted_plan, tmp_path / "plan.npz")
        loaded = load_plan(written)
        assert loaded.n_features == fitted_plan.n_features
        assert loaded.t == fitted_plan.t
        assert set(loaded.feature_plans) == set(fitted_plan.feature_plans)

    def test_arrays_bitwise_equal(self, fitted_plan, tmp_path):
        written = save_plan(fitted_plan, tmp_path / "plan.npz")
        loaded = load_plan(written)
        for key, original in fitted_plan.feature_plans.items():
            restored = loaded.feature_plans[key]
            np.testing.assert_array_equal(restored.grid.nodes,
                                          original.grid.nodes)
            np.testing.assert_array_equal(restored.barycenter,
                                          original.barycenter)
            for s in (0, 1):
                np.testing.assert_array_equal(
                    restored.marginals[s], original.marginals[s])
                np.testing.assert_array_equal(
                    restored.transports[s].toarray(),
                    original.transports[s].toarray())
                assert restored.transports[s].cost == pytest.approx(
                    original.transports[s].cost)

    def test_metadata_survives(self, fitted_plan, tmp_path):
        written = save_plan(fitted_plan, tmp_path / "plan.npz")
        loaded = load_plan(written)
        assert loaded.metadata["solver"] == fitted_plan.metadata["solver"]
        assert (loaded.metadata["n_research"]
                == fitted_plan.metadata["n_research"])

    def test_suffix_appended(self, fitted_plan, tmp_path):
        written = save_plan(fitted_plan, tmp_path / "plan")
        assert written.suffix == ".npz"
        assert written.exists()

    def test_loaded_plan_repairs_identically(self, fitted_plan,
                                             paper_split, tmp_path):
        written = save_plan(fitted_plan, tmp_path / "plan.npz")
        loaded = load_plan(written)
        a = repair_dataset(paper_split.archive, fitted_plan,
                           rng=np.random.default_rng(3))
        b = repair_dataset(paper_split.archive, loaded,
                           rng=np.random.default_rng(3))
        np.testing.assert_allclose(a.features, b.features)


class TestQuantisedArchives:
    """``save_plan(..., dtype="float32")``: half the plan bytes on disk,
    float64 plans after the round trip."""

    def test_float32_round_trip_within_tolerance(self, fitted_plan,
                                                 tmp_path):
        written = save_plan(fitted_plan, tmp_path / "plan32.npz",
                            dtype="float32")
        loaded = load_plan(written)
        for key, feature_plan in fitted_plan.feature_plans.items():
            for s, transport in feature_plan.transports.items():
                reloaded = loaded.feature_plans[key].transports[s]
                got = (reloaded.matrix.toarray() if reloaded.is_sparse
                       else reloaded.matrix)
                expected = (transport.matrix.toarray()
                            if transport.is_sparse else transport.matrix)
                assert got.dtype == np.float64  # loaders up-convert
                np.testing.assert_allclose(got, expected, rtol=1e-6,
                                           atol=1e-9)
                # Cost values are never quantised.
                assert reloaded.cost == transport.cost

    def test_float32_sparse_round_trip(self, tmp_path):
        nodes = np.linspace(0.0, 1.0, 40)
        plan = RepairPlan(
            feature_plans={(0, 0): _feature_plan(nodes, (0, 1),
                                                 sparse=True)},
            n_features=1, t=0.5)
        written = save_plan(plan, tmp_path / "sparse32.npz",
                            dtype="float32")
        loaded = load_plan(written)
        transport = loaded.feature_plans[(0, 0)].transports[0]
        assert transport.is_sparse
        assert transport.matrix.data.dtype == np.float64
        np.testing.assert_allclose(
            transport.matrix.toarray(),
            plan.feature_plans[(0, 0)].transports[0].matrix.toarray(),
            rtol=1e-6, atol=1e-9)

    def test_header_records_plan_dtype(self, fitted_plan, tmp_path):
        for dtype, expected in ((None, "float64"),
                                ("float32", "float32"),
                                (np.float32, "float32")):
            written = save_plan(fitted_plan, tmp_path / "dtyped.npz",
                                dtype=dtype)
            with np.load(written) as archive:
                header = json.loads(
                    bytes(archive["__header__"]).decode("utf-8"))
            assert header["plan_dtype"] == expected

    def test_float32_archive_is_smaller(self, paper_split, tmp_path):
        # Entropic plans are dense.
        dense_plan = design_repair(paper_split.research, 20,
                                   solver="sinkhorn")
        full = save_plan(dense_plan, tmp_path / "full.npz")
        quantised = save_plan(dense_plan, tmp_path / "quantised.npz",
                              dtype="float32")
        # Plans dominate a dense archive, so ~2x on their bytes shows up
        # as a solidly smaller file.
        assert quantised.stat().st_size < 0.7 * full.stat().st_size

    def test_quantised_plans_still_repair(self, paper_split, tmp_path):
        plan = design_repair(paper_split.research, 20)
        written = save_plan(plan, tmp_path / "repair32.npz",
                            dtype="float32")
        repaired = repair_dataset(paper_split.archive, load_plan(written),
                                  rng=np.random.default_rng(7))
        assert repaired.features.shape == paper_split.archive.features.shape
        assert np.all(np.isfinite(repaired.features))

    def test_unsupported_dtype_rejected(self, fitted_plan, tmp_path):
        with pytest.raises(ValidationError, match="dtype"):
            save_plan(fitted_plan, tmp_path / "bad.npz", dtype="float16")
        with pytest.raises((ValidationError, TypeError)):
            save_plan(fitted_plan, tmp_path / "bad.npz", dtype="bogus")


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_plan(tmp_path / "absent.npz")

    def test_not_a_plan_archive(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, something=np.zeros(3))
        with pytest.raises(DataError, match="missing header"):
            load_plan(path)

    @pytest.mark.parametrize("version", [FORMAT_VERSION + 1, 0, "2"])
    def test_unreadable_version_rejected(self, fitted_plan, tmp_path,
                                         version):
        # Future versions (and junk) are rejected; only the readable
        # range 1..FORMAT_VERSION loads.
        written = save_plan(fitted_plan, tmp_path / "plan.npz")
        with np.load(written) as archive:
            arrays = {key: archive[key] for key in archive.files}
        header = json.loads(bytes(arrays["__header__"]).decode("utf-8"))
        header["format_version"] = version
        arrays["__header__"] = np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8)
        np.savez(written, **arrays)
        with pytest.raises(DataError, match="version"):
            load_plan(written)

    def test_save_rejects_non_plan(self, tmp_path):
        with pytest.raises(ValidationError, match="RepairPlan"):
            save_plan({"not": "a plan"}, tmp_path / "plan.npz")

    def test_corrupt_archive_rejected(self, fitted_plan, tmp_path):
        written = save_plan(fitted_plan, tmp_path / "plan.npz")
        # Truncate the file to corrupt it.
        data = written.read_bytes()
        written.write_bytes(data[: len(data) // 3])
        with pytest.raises((DataError, Exception)):
            load_plan(written)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_non_finite_plan_mass_rejected(self, fitted_plan, tmp_path,
                                           mmap):
        # An archive whose plan entries are NaN must not load and then
        # repair silently to in-grid values.
        written = save_plan(fitted_plan, tmp_path / "plan.npz")
        with np.load(written) as archive:
            arrays = {key: archive[key] for key in archive.files}
        plan_keys = [key for key in arrays if re.fullmatch(
            r"cell_\d+_\d+_plan_\d+(_data)?", key)]
        assert plan_keys
        for key in plan_keys:
            arrays[key] = np.full_like(arrays[key], np.nan)
        np.savez(written, **arrays)
        if not mmap:
            with pytest.raises(DataError, match="non-finite"):
                load_plan(written)
            return
        # The mapped loader reads cells lazily: the corrupt cell raises
        # on its first access, and on every later one.
        mapped = load_plan(written, mmap=True)
        cell = next(iter(mapped.feature_plans))
        for _ in range(2):
            with pytest.raises(DataError, match="non-finite"):
                mapped.feature_plans[cell]

    @pytest.mark.parametrize("mmap", [False, True])
    @pytest.mark.parametrize("member,corrupt,match", [
        ("indices", lambda a: a.__setitem__(3, 10_000), "column indices"),
        ("indices", lambda a: a.__setitem__(3, -5), "column indices"),
        ("indptr", lambda a: a.__setitem__([5, 6], a[[6, 5]]), "indptr"),
    ], ids=["index-past-grid", "negative-index", "swapped-indptr"])
    def test_corrupt_csr_triplet_rejected(self, paper_split, tmp_path,
                                          mmap, member, corrupt, match):
        # scipy's constructor checks a triplet in O(1) only, so these
        # archives used to load and then repair wrongly (a negative
        # index draws from the end of the grid) or crash mid-repair.
        written = save_plan(design_repair(paper_split.research, 50),
                            tmp_path / "plan.npz")
        with np.load(written) as archive:
            arrays = {key: archive[key] for key in archive.files}
        key = f"cell_0_0_plan_0_{member}"
        arrays[key] = arrays[key].copy()
        corrupt(arrays[key])
        np.savez(written, **arrays)
        if not mmap:
            with pytest.raises(DataError, match=match):
                load_plan(written)
            return
        mapped = load_plan(written, mmap=True)
        for _ in range(2):
            with pytest.raises(DataError, match=match):
                mapped.feature_plans[(0, 0)]
        mapped.feature_plans[(0, 1)]  # the other cells still load

    @pytest.mark.parametrize("mmap", [False, True])
    @pytest.mark.parametrize("content", [b"", b"garbage"],
                             ids=["empty", "garbage"])
    def test_non_zip_file_rejected(self, tmp_path, content, mmap):
        path = tmp_path / "plan.npz"
        path.write_bytes(content)
        with pytest.raises(DataError, match="not a zip file") as info:
            load_plan(path, mmap=mmap)
        assert "pickle" not in str(info.value)


class TestNonBinaryLabels:
    """``s`` encodings other than {0, 1} must round-trip (the v1 loader
    hardcoded ``for s in (0, 1)`` and rejected them as corrupt)."""

    @pytest.mark.parametrize("s_values", [(1, 2), (-1, 1), (0, 1, 2)])
    def test_round_trip(self, tmp_path, s_values):
        nodes = np.linspace(0.0, 1.0, 12)
        plan = RepairPlan(
            feature_plans={(0, 0): _feature_plan(nodes, s_values)},
            n_features=1)
        written = save_plan(plan, tmp_path / "plan.npz")
        loaded = load_plan(written)
        restored = loaded.feature_plans[(0, 0)]
        assert restored.s_values == tuple(sorted(s_values))
        for s in s_values:
            np.testing.assert_array_equal(
                restored.transports[s].matrix,
                plan.feature_plans[(0, 0)].transports[s].matrix)
            np.testing.assert_array_equal(
                restored.marginals[s],
                plan.feature_plans[(0, 0)].marginals[s])

    def test_bool_labels_round_trip_as_ints(self, tmp_path):
        # Bool-keyed cells must save under the same canonical int keys
        # the header advertises (True == 1 keeps dict lookups working).
        nodes = np.linspace(0.0, 1.0, 8)
        plan = RepairPlan(
            feature_plans={(0, 0): _feature_plan(nodes, (False, True))},
            n_features=1)
        loaded = load_plan(save_plan(plan, tmp_path / "plan.npz"))
        restored = loaded.feature_plans[(0, 0)]
        assert restored.s_values == (0, 1)
        for s in (False, True):
            np.testing.assert_array_equal(
                restored.transports[s].toarray(),
                plan.feature_plans[(0, 0)].transports[s].toarray())

    def test_non_integer_labels_rejected_at_save(self, tmp_path):
        nodes = np.linspace(0.0, 1.0, 8)
        plan = RepairPlan(
            feature_plans={(0, 0): _feature_plan(nodes, ("a", "b"))},
            n_features=1)
        with pytest.raises(ValidationError, match="integer"):
            save_plan(plan, tmp_path / "plan.npz")


class TestSparseStorage:
    def test_sparse_round_trip_preserves_storage_and_values(self,
                                                            tmp_path):
        nodes = np.linspace(-1.0, 1.0, 20)
        original = _feature_plan(nodes, (0, 1), sparse=True)
        plan = RepairPlan(feature_plans={(0, 0): original}, n_features=1)
        written = save_plan(plan, tmp_path / "plan.npz")
        loaded = load_plan(written)
        for s in (0, 1):
            restored = loaded.feature_plans[(0, 0)].transports[s]
            assert restored.is_sparse
            np.testing.assert_array_equal(
                restored.toarray(), original.transports[s].toarray())
            assert restored.cost == original.transports[s].cost

    def test_mixed_storage_archive(self, tmp_path):
        # One sparse and one dense transport in the same cell.
        nodes = np.linspace(0.0, 1.0, 10)
        generator = np.random.default_rng(7)
        pmf0 = generator.dirichlet(np.ones(10))
        pmf1 = generator.dirichlet(np.ones(10))
        transports = {
            0: TransportPlan(np.diag(pmf0), nodes, nodes, 0.0).to_sparse(),
            1: TransportPlan(np.outer(pmf1, pmf1), nodes, nodes, 0.5),
        }
        cell = FeaturePlan(grid=InterpolationGrid(nodes),
                           marginals={0: pmf0, 1: pmf1},
                           barycenter=np.full(10, 0.1),
                           transports=transports)
        plan = RepairPlan(feature_plans={(0, 0): cell}, n_features=1)
        loaded = load_plan(save_plan(plan, tmp_path / "plan.npz"))
        restored = loaded.feature_plans[(0, 0)]
        assert restored.transports[0].is_sparse
        assert not restored.transports[1].is_sparse
        for s in (0, 1):
            np.testing.assert_array_equal(restored.transports[s].toarray(),
                                          transports[s].toarray())

    def test_screened_design_round_trips_sparse(self, paper_split,
                                                tmp_path):
        plan = design_repair(paper_split.research, 40, solver="screened")
        assert any(fp.transports[s].is_sparse
                   for fp in plan.feature_plans.values()
                   for s in fp.s_values)
        loaded = load_plan(save_plan(plan, tmp_path / "plan.npz"))
        for key, original in plan.feature_plans.items():
            for s in original.s_values:
                restored = loaded.feature_plans[key].transports[s]
                assert restored.is_sparse == \
                    original.transports[s].is_sparse
                np.testing.assert_array_equal(
                    restored.toarray(), original.transports[s].toarray())
        a = repair_dataset(paper_split.archive, plan,
                           rng=np.random.default_rng(3))
        b = repair_dataset(paper_split.archive, loaded,
                           rng=np.random.default_rng(3))
        np.testing.assert_allclose(a.features, b.features)

    def test_compressed_archive_loads_identically(self, fitted_plan,
                                                  tmp_path):
        plain = save_plan(fitted_plan, tmp_path / "plain.npz")
        packed = save_plan(fitted_plan, tmp_path / "packed.npz",
                           compress=True)
        a, b = load_plan(plain), load_plan(packed)
        for key in fitted_plan.feature_plans:
            for s in (0, 1):
                np.testing.assert_array_equal(
                    a.feature_plans[key].transports[s].toarray(),
                    b.feature_plans[key].transports[s].toarray())


class TestV1BackwardCompat:
    """Archives written by the original dense-only v1 code still load."""

    def _write_v1(self, plan, path, *, s_values=(0, 1)):
        """Replicate the v1 writer byte layout: dense plans, compressed
        npz, no s_values header field."""
        header = {
            "format_version": 1,
            "n_features": plan.n_features,
            "t": plan.t,
            "metadata": {str(k): v for k, v in plan.metadata.items()
                         if isinstance(v, (int, float, str, bool))},
            "cells": [[int(u), int(k)]
                      for (u, k) in sorted(plan.feature_plans)],
        }
        arrays = {"__header__": np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8)}
        for (u, k), feature_plan in plan.feature_plans.items():
            prefix = f"cell_{u}_{k}"
            arrays[f"{prefix}_nodes"] = feature_plan.grid.nodes
            arrays[f"{prefix}_barycenter"] = feature_plan.barycenter
            for s in s_values:
                arrays[f"{prefix}_marginal_{s}"] = feature_plan.marginals[s]
                arrays[f"{prefix}_plan_{s}"] = \
                    feature_plan.transports[s].toarray()
                arrays[f"{prefix}_cost_{s}"] = np.array(
                    feature_plan.transports[s].cost)
        np.savez_compressed(path, **arrays)
        return path

    def test_v1_archive_loads(self, fitted_plan, tmp_path):
        path = self._write_v1(fitted_plan, tmp_path / "v1.npz")
        loaded = load_plan(path)
        assert set(loaded.feature_plans) == set(fitted_plan.feature_plans)
        for key, original in fitted_plan.feature_plans.items():
            restored = loaded.feature_plans[key]
            for s in (0, 1):
                np.testing.assert_array_equal(
                    restored.transports[s].toarray(),
                    original.transports[s].toarray())

    def test_v1_archive_with_nonbinary_labels_loads(self, tmp_path):
        # The v1 *loader* hardcoded s in (0, 1); the v1 writer happily
        # wrote other labels.  Those archives must now load via key-name
        # recovery instead of raising "corrupt archive".
        nodes = np.linspace(0.0, 1.0, 9)
        cell = _feature_plan(nodes, (1, 2))
        plan = RepairPlan(feature_plans={(0, 0): cell}, n_features=1)
        path = self._write_v1(plan, tmp_path / "v1.npz", s_values=(1, 2))
        loaded = load_plan(path)
        restored = loaded.feature_plans[(0, 0)]
        assert restored.s_values == (1, 2)
        for s in (1, 2):
            np.testing.assert_array_equal(restored.transports[s].toarray(),
                                          cell.transports[s].toarray())

    def test_v1_repairs_identically_after_upgrade(self, fitted_plan,
                                                  paper_split, tmp_path):
        path = self._write_v1(fitted_plan, tmp_path / "v1.npz")
        loaded = load_plan(path)
        a = repair_dataset(paper_split.archive, fitted_plan,
                           rng=np.random.default_rng(11))
        b = repair_dataset(paper_split.archive, loaded,
                           rng=np.random.default_rng(11))
        np.testing.assert_allclose(a.features, b.features)


class TestMappedArchives:
    """``load_plan(..., mmap=True)``: plan bytes served from the page
    cache through zero-copy views instead of eager reads."""

    def test_mmap_load_bitwise_equal(self, fitted_plan, tmp_path):
        written = save_plan(fitted_plan, tmp_path / "plan.npz")
        mapped = load_plan(written, mmap=True)
        for key, original in fitted_plan.feature_plans.items():
            restored = mapped.feature_plans[key]
            np.testing.assert_array_equal(restored.grid.nodes,
                                          original.grid.nodes)
            for s in (0, 1):
                np.testing.assert_array_equal(
                    restored.transports[s].toarray(),
                    original.transports[s].toarray())

    def test_mmap_arrays_are_views_of_the_map(self, fitted_plan,
                                              tmp_path):
        import mmap as mmap_module

        def assert_view_of_the_map(array):
            # Aligned, or numpy copies it inside take and searchsorted.
            assert array.flags.aligned
            assert not array.flags.writeable
            base = array
            while getattr(base, "base", None) is not None:
                base = base.base
            assert isinstance(base, memoryview)
            assert isinstance(base.obj, mmap_module.mmap)

        written = save_plan(fitted_plan, tmp_path / "plan.npz")
        mapped = load_plan(written, mmap=True)
        for cell in mapped.feature_plans.values():
            assert_view_of_the_map(cell.grid.nodes)
            assert_view_of_the_map(cell.barycenter)
            for transport in cell.transports.values():
                matrix = transport.matrix
                if transport.is_sparse:
                    for array in (matrix.data, matrix.indices,
                                  matrix.indptr):
                        assert_view_of_the_map(array)
                else:
                    assert_view_of_the_map(matrix)
                # Sampling reads the plan without writing it.
                transport.sample_conditional([0, 1], [0.25, 0.75])
                transport.barycentric_projection()

    def test_mmap_builds_cells_on_first_use(self, paper_split, tmp_path,
                                            monkeypatch):
        built = []
        read_cell = serialize._read_cell

        def recording(archive, header, cell, file_path):
            built.append(cell)
            return read_cell(archive, header, cell, file_path)

        monkeypatch.setattr(serialize, "_read_cell", recording)
        plan = design_repair(paper_split.research, 20)
        written = save_plan(plan, tmp_path / "plan.npz")
        mapped = load_plan(written, mmap=True)
        assert built == []
        assert set(mapped.feature_plans) == set(plan.feature_plans)
        assert mapped.u_values == plan.u_values
        assert all(mapped.covers(u) for u in plan.u_values)
        assert built == []

        archive = paper_split.archive
        group = plan.u_values[0]
        rows = archive.u == group
        one_group = FairnessDataset(archive.features[rows],
                                    archive.s[rows], archive.u[rows])
        expected = repair_dataset(one_group, plan,
                                  rng=np.random.default_rng(4))
        got = repair_dataset(one_group, mapped,
                             rng=np.random.default_rng(4))
        np.testing.assert_array_equal(got.features, expected.features)
        assert sorted(built) == [(group, k)
                                 for k in range(plan.n_features)]
        # A built cell is kept: repairing again reads nothing.
        repair_dataset(one_group, mapped, rng=np.random.default_rng(4))
        assert len(built) == plan.n_features

    def test_racing_first_accesses_keep_one_cell(self, fitted_plan,
                                                 tmp_path, monkeypatch):
        # Threads racing on a cell's first access may each build it, but
        # every one of them gets the single copy the plan keeps.  Each
        # build waits until all eight threads have read the cell, so
        # every thread really misses the kept copy and builds its own.
        import threading

        n_threads = 8
        reads = []
        all_read = threading.Barrier(n_threads, timeout=30)
        read_cell = serialize._read_cell

        def racing(archive, header, cell, file_path):
            built = read_cell(archive, header, cell, file_path)
            reads.append(cell)
            all_read.wait()
            return built

        monkeypatch.setattr(serialize, "_read_cell", racing)
        written = save_plan(fitted_plan, tmp_path / "plan.npz")
        mapped = load_plan(written, mmap=True)
        cells = mapped.feature_plans
        key = next(iter(cells))
        got = []

        def access():
            got.append(cells[key])

        threads = [threading.Thread(target=access)
                   for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert reads == [key] * n_threads
        assert len(got) == n_threads
        assert all(cell is cells[key] for cell in got)
        assert len(reads) == n_threads  # a kept cell is not read again

    @pytest.mark.parametrize("mmap", [False, True])
    def test_tiny_negative_mass_is_clipped(self, fitted_plan, tmp_path,
                                           mmap):
        # The loader wraps the stored arrays without the constructor's
        # copy, so it must still clip mass within -atol of zero.
        written = save_plan(fitted_plan, tmp_path / "plan.npz")
        with np.load(written) as archive:
            arrays = {key: archive[key] for key in archive.files}
        key = next(key for key in sorted(arrays) if re.fullmatch(
            r"cell_\d+_\d+_plan_\d+(_data)?", key))
        mass = arrays[key].copy()
        mass.reshape(-1)[0] = -1e-9
        arrays[key] = mass
        np.savez(written, **arrays)
        u, k, s = map(int, re.findall(r"\d+", key))
        transport = load_plan(written, mmap=mmap).feature_plans[
            (u, k)].transports[s]
        stored = transport.matrix.data if transport.is_sparse \
            else transport.matrix
        assert stored.reshape(-1)[0] == 0.0
        assert stored.min() == 0.0

    def test_mmap_repairs_identically(self, fitted_plan, paper_split,
                                      tmp_path):
        written = save_plan(fitted_plan, tmp_path / "plan.npz")
        a = repair_dataset(paper_split.archive, load_plan(written),
                           rng=np.random.default_rng(5))
        b = repair_dataset(paper_split.archive,
                           load_plan(written, mmap=True),
                           rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a.features, b.features)

    def test_compressed_archive_falls_back_to_eager_read(self,
                                                         fitted_plan,
                                                         tmp_path):
        # Deflated members cannot be viewed in place; mmap loads must
        # still succeed (eagerly) and match.
        written = save_plan(fitted_plan, tmp_path / "packed.npz",
                            compress=True)
        mapped = load_plan(written, mmap=True)
        plain = load_plan(written)
        for key in fitted_plan.feature_plans:
            for s in (0, 1):
                np.testing.assert_array_equal(
                    mapped.feature_plans[key].transports[s].toarray(),
                    plain.feature_plans[key].transports[s].toarray())


class TestIndexDtypes:
    """Sparse archives store int32 CSR indices whenever the matrices
    fit; loaders hand scipy whichever width was stored."""

    def _sparse_plan(self, n_nodes=40):
        nodes = np.linspace(0.0, 1.0, n_nodes)
        return RepairPlan(
            feature_plans={(0, 0): _feature_plan(nodes, (0, 1),
                                                 sparse=True)},
            n_features=1, t=0.5)

    def test_default_stores_int32(self, tmp_path):
        written = save_plan(self._sparse_plan(), tmp_path / "plan.npz")
        with np.load(written) as archive:
            index_keys = [key for key in archive.files
                          if key.endswith(("_indices", "_indptr"))]
            assert index_keys
            for key in index_keys:
                assert archive[key].dtype == np.int32

    def test_forced_int64_honoured(self, tmp_path):
        written = save_plan(self._sparse_plan(), tmp_path / "plan.npz",
                            index_dtype="int64")
        with np.load(written) as archive:
            for key in archive.files:
                if key.endswith(("_indices", "_indptr")):
                    assert archive[key].dtype == np.int64

    @pytest.mark.parametrize("index_dtype", [None, "int32", "int64"])
    def test_round_trip_identical_either_width(self, tmp_path,
                                               index_dtype):
        plan = self._sparse_plan()
        written = save_plan(plan, tmp_path / "plan.npz",
                            index_dtype=index_dtype)
        loaded = load_plan(written)
        for s in (0, 1):
            np.testing.assert_array_equal(
                loaded.feature_plans[(0, 0)].transports[s].toarray(),
                plan.feature_plans[(0, 0)].transports[s].toarray())

    def test_int32_archive_is_smaller(self, paper_split, tmp_path):
        plan = design_repair(paper_split.research, 40, solver="screened")
        narrow = save_plan(plan, tmp_path / "i32.npz")
        wide = save_plan(plan, tmp_path / "i64.npz", index_dtype="int64")
        assert narrow.stat().st_size < wide.stat().st_size

    def test_unsupported_index_dtype_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="index dtype"):
            save_plan(self._sparse_plan(), tmp_path / "plan.npz",
                      index_dtype="int16")


class TestDiagnosticsPersistence:
    def test_ot_diagnostics_survive_round_trip(self, fitted_plan,
                                               tmp_path):
        written = save_plan(fitted_plan, tmp_path / "plan.npz")
        loaded = load_plan(written)
        for key, original in fitted_plan.feature_plans.items():
            restored = loaded.feature_plans[key]
            assert set(restored.diagnostics) == {0, 1}
            for s in (0, 1):
                record = restored.diagnostics[s]
                assert record["solver"] == original.diagnostics[s]["solver"]
                assert record["converged"] == \
                    original.diagnostics[s]["converged"]
                assert record["value"] == pytest.approx(
                    original.diagnostics[s]["value"])
