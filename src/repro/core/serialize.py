"""Persistence for repair plans.

The whole point of the paper's method is *design once, apply forever*:
the plans ``π*_{u,s,k}`` are computed on the research data and then used
to repair unbounded archival torrents. In a real deployment the design
and application happen in different processes (or machines, or months),
so the plan must survive a round-trip to disk.

:func:`save_plan` / :func:`load_plan` serialise a
:class:`~repro.core.plan.RepairPlan` to a single ``.npz`` archive: every
array under a structured key plus a JSON header carrying the design
metadata. The format is versioned and validated on load.

On-disk layout (format version 2)
---------------------------------

* ``__header__`` — UTF-8 JSON with ``format_version``, ``n_features``,
  ``t``, ``metadata``, the ``cells`` list of ``[u, k]`` pairs, each
  cell's actual protected-class labels under ``s_values``
  (``"u_k" -> [s, ...]``), and optional per-cell solver ``diagnostics``.
* per cell ``(u, k)``: ``cell_{u}_{k}_nodes`` and
  ``cell_{u}_{k}_barycenter``; per protected class ``s``:
  ``cell_{u}_{k}_marginal_{s}``, ``cell_{u}_{k}_cost_{s}``, and the plan
  ``π*_{u,s,k}`` stored **either** densely under ``cell_{u}_{k}_plan_{s}``
  **or** as the CSR triplet ``cell_{u}_{k}_plan_{s}_data`` /
  ``..._indices`` / ``..._indptr`` when the in-memory
  :class:`~repro.ot.coupling.TransportPlan` is CSR-backed, as every
  ``"exact"`` plan is.  Sparse storage is what makes large-``n_Q``
  designs archive at ``O(n_Q)`` instead of ``O(n_Q²)`` bytes.
* CSR index arrays (``indices`` / ``indptr``) are written as ``int32``
  whenever the plan shape and non-zero count fit (they always do below
  ``n_Q ~ 2·10⁹``), halving the index bytes that dominate sparse
  archives; pass ``index_dtype="int64"`` to force the old layout.
  Loaders accept either width transparently.
* the header's optional ``plan_dtype`` field records the storage
  precision of the plan arrays: ``save_plan(..., dtype="float32")``
  quantises the plan mass (CSR ``data`` / dense matrices) to ~1e-7
  relative for another ~2x of plan bytes on disk; everything else stays
  float64 and loaders up-convert on read.
* v2 archives are written as plain (uncompressed) ``.npz`` by default:
  with sparse plan storage there is almost nothing left for deflate to
  win (measured ≤ 1.4x on screened designs) while compression slows the
  save/load hot path of a long-lived repair service.  Pass
  ``compress=True`` to restore deflate — worthwhile for archives that
  keep fully dense entropic plans.  Uncompressed archives are also what
  :func:`load_plan`'s ``mmap=True`` mode (below) maps zero-copy.

Memory-mapped loading
---------------------

``load_plan(path, mmap=True)`` exposes every stored array as a read-only
view over one shared ``mmap`` of the archive file instead of reading the
bytes eagerly: worker start-up touches only the JSON header and the zip
directory, plan bytes fault in lazily on first use, and — because the
mapping is backed by the page cache — N serving workers mapping the same
archive share one physical copy of the plan.  Members that are deflated
(``compress=True`` archives) silently fall back to an eager read.  The
mapping lives exactly as long as arrays viewing it do.

Sharded archives
----------------

``save_plan(..., shard_by=...)`` splits one design across several
archives so a fleet of serving workers can each map only the cells they
serve: ``shard_by="u"`` groups cells per unprotected group,
``shard_by="cell"`` writes one archive per ``(u, k)`` cell, and an
integer ``n`` chunks the sorted cell list into ``n`` near-equal shards.
The returned path is a JSON *manifest* (``<stem>.manifest.json``)
naming each shard file and the cells it carries; every shard is itself
a valid v2 ``.npz`` restricted to its cells.  ``load_plan`` reads a
manifest transparently (merging all shards back into one
:class:`RepairPlan`); :class:`ShardedPlanArchive` is the lazy,
cell-addressable view the serving tier uses to map shards on demand.

Compatibility policy
--------------------

``load_plan`` reads both version 2 and the original version 1 layout
(always-dense plans, no ``s_values`` header field).  For v1 archives the
protected-class labels are recovered from the array keys themselves, so
v1 plans designed with labels other than ``{0, 1}`` — which the original
loader wrongly rejected as corrupt — now load too.  ``save_plan`` always
writes the current version; there is no downgrade path.
"""

from __future__ import annotations

import ast
import json
import mmap as _mmap_module
import struct
import zipfile
from collections import OrderedDict
from pathlib import Path

import numpy as np

from ..density.grid import InterpolationGrid
from ..exceptions import DataError, ValidationError
from ..ot.coupling import TransportPlan
from .plan import FeaturePlan, RepairPlan

__all__ = ["save_plan", "load_plan", "ShardedPlanArchive",
           "FORMAT_VERSION", "PLAN_DTYPES", "INDEX_DTYPES", "SHARD_MODES"]

#: Bump when the on-disk layout changes incompatibly.
FORMAT_VERSION = 2

#: Oldest archive version :func:`load_plan` still reads.
_OLDEST_READABLE_VERSION = 1


#: Transport-plan storage dtypes :func:`save_plan` accepts.
PLAN_DTYPES = ("float64", "float32")

#: CSR index storage dtypes :func:`save_plan` accepts (``None`` = auto).
INDEX_DTYPES = ("int32", "int64")

#: Named sharding policies of ``save_plan(..., shard_by=...)`` (an
#: integer shard count is also accepted).
SHARD_MODES = ("u", "cell")

#: Manifest files announce themselves with this marker field.
_MANIFEST_FORMAT = "repro-plan-manifest"


def save_plan(plan: RepairPlan, path, *, compress: bool = False,
              dtype=None, index_dtype=None, shard_by=None) -> Path:
    """Serialise ``plan`` to ``path`` (a ``.npz`` archive).

    CSR-backed transports are stored as ``(data, indices, indptr)``
    triplets, dense ones as full matrices.  ``compress`` opts into
    deflate (see the module docstring for the trade-off).  ``dtype``
    selects the storage precision of the transport-plan arrays only
    (CSR ``data`` / dense matrices): the default ``"float64"`` is
    exact, ``"float32"`` quantises the plan mass to ~1e-7 relative for
    half the plan bytes on disk — grids, marginals, barycentres and
    cost values always stay float64, and loaders up-convert, so a
    quantised archive round-trips into ordinary float64
    :class:`~repro.ot.coupling.TransportPlan` objects.  The choice is
    recorded in the header (``plan_dtype``, a format-v2 field; archives
    written before the field existed read as float64).

    ``index_dtype`` controls the width of the CSR index arrays: the
    default ``None`` picks ``int32`` whenever the plan shape and
    non-zero count fit (halving the index bytes that dominate sparse
    archives) and ``int64`` otherwise; pass ``"int32"`` / ``"int64"``
    to force a width (forcing ``int32`` on an overflowing plan raises).

    ``shard_by`` splits the design across several archives plus a JSON
    manifest — ``"u"`` (one shard per unprotected group), ``"cell"``
    (one per ``(u, k)`` cell) or an integer shard count; see the module
    docstring.  Returns the resolved path actually written — the
    ``.npz`` archive (numpy appends the suffix when missing), or the
    manifest path when sharding.
    """
    if not isinstance(plan, RepairPlan):
        raise ValidationError(
            f"save_plan expects a RepairPlan, got {type(plan).__name__}")
    plan_dtype = np.dtype("float64" if dtype is None else dtype)
    if plan_dtype.name not in PLAN_DTYPES:
        raise ValidationError(
            f"unsupported plan dtype {dtype!r}; expected one of "
            f"{PLAN_DTYPES}")
    if index_dtype is not None and str(index_dtype) not in INDEX_DTYPES:
        raise ValidationError(
            f"unsupported index dtype {index_dtype!r}; expected one of "
            f"{INDEX_DTYPES} or None (auto)")
    file_path = Path(path)
    if shard_by is not None:
        return _save_sharded(plan, file_path, shard_by, compress,
                             plan_dtype, index_dtype)
    return _write_archive(plan, sorted(plan.feature_plans), file_path,
                          compress, plan_dtype, index_dtype)


def _write_archive(plan: RepairPlan, cells, file_path: Path,
                   compress: bool, plan_dtype: np.dtype,
                   index_dtype) -> Path:
    """Write one ``.npz`` archive holding the given cell subset."""
    header = {
        "format_version": FORMAT_VERSION,
        "n_features": plan.n_features,
        "t": plan.t,
        # Storage precision of the plan arrays (marginals/supports/cost
        # values stay float64); absent in archives written before the
        # field existed, which are float64 by construction.
        "plan_dtype": plan_dtype.name,
        "metadata": _jsonable(plan.metadata),
        "cells": [[int(u), int(k)] for (u, k) in sorted(cells)],
        # Each cell's actual protected-class labels; round-tripping them
        # (instead of assuming {0, 1}) is what keeps "design once, apply
        # forever" true for any label encoding.
        "s_values": {
            f"{int(u)}_{int(k)}": [_int_label(s)
                                   for s in plan.feature_plans[(u, k)]
                                   .s_values]
            for (u, k) in cells
        },
        # Per-cell OTResult summaries; optional (absent in old archives).
        "diagnostics": {
            f"{int(u)}_{int(k)}": {
                str(_int_label(s)): _jsonable(record)
                if isinstance(record, dict) else _scalar(record)
                for s, record in plan.feature_plans[(u, k)]
                .diagnostics.items()
            }
            for (u, k) in cells
            if plan.feature_plans[(u, k)].diagnostics
        },
    }
    arrays = {"__header__": np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8)}
    for (u, k) in cells:
        feature_plan = plan.feature_plans[(u, k)]
        prefix = f"cell_{u}_{k}"
        arrays[f"{prefix}_nodes"] = feature_plan.grid.nodes
        arrays[f"{prefix}_barycenter"] = feature_plan.barycenter
        for s in feature_plan.s_values:
            # Array keys must use the canonical int label the header's
            # s_values advertise, or bool-likes would save under keys
            # (e.g. "..._marginal_True") the loader never looks up.
            label = _int_label(s)
            transport = feature_plan.transports[s]
            arrays[f"{prefix}_marginal_{label}"] = feature_plan.marginals[s]
            arrays[f"{prefix}_cost_{label}"] = np.array(transport.cost)
            if transport.is_sparse:
                matrix = transport.matrix
                idx_dtype = _csr_index_dtype(matrix, index_dtype)
                arrays[f"{prefix}_plan_{label}_data"] = \
                    matrix.data.astype(plan_dtype, copy=False)
                arrays[f"{prefix}_plan_{label}_indices"] = \
                    matrix.indices.astype(idx_dtype, copy=False)
                arrays[f"{prefix}_plan_{label}_indptr"] = \
                    matrix.indptr.astype(idx_dtype, copy=False)
            else:
                arrays[f"{prefix}_plan_{label}"] = \
                    transport.matrix.astype(plan_dtype, copy=False)

    writer = np.savez_compressed if compress else np.savez
    writer(file_path, **arrays)
    if file_path.suffix != ".npz":
        file_path = file_path.with_name(file_path.name + ".npz")
    return file_path


def _csr_index_dtype(matrix, index_dtype) -> np.dtype:
    """Storage dtype of a CSR plan's ``indices`` / ``indptr`` arrays.

    ``int32`` fits when both the column count (bounds ``indices``) and
    the non-zero count (bounds ``indptr``) stay below ``2³¹``; auto mode
    (``index_dtype=None``) takes it whenever it fits.
    """
    limit = np.iinfo(np.int32).max
    fits = matrix.shape[1] <= limit and matrix.nnz <= limit
    if index_dtype is None:
        return np.dtype(np.int32 if fits else np.int64)
    requested = np.dtype(str(index_dtype))
    if requested == np.int32 and not fits:
        raise ValidationError(
            f"plan with shape {matrix.shape} and nnz {matrix.nnz} "
            "overflows int32 indices; use index_dtype='int64' (or None)")
    return requested


def load_plan(path, *, mmap: bool = False) -> RepairPlan:
    """Load a :class:`RepairPlan` previously written by :func:`save_plan`.

    Reads the current sparse-aware version 2 layout, the original
    version 1 layout, and shard manifests (every shard is loaded and
    merged — see the module docstring's sharding section; use
    :class:`ShardedPlanArchive` for lazy per-cell access).

    With ``mmap=True`` every stored array of an *uncompressed* archive
    becomes a read-only zero-copy view over one shared memory map of
    the file: nothing is read eagerly, plan bytes fault in on first
    use, and concurrent processes mapping the same archive share one
    physical copy.  Deflated members fall back to an eager read.

    Raises
    ------
    DataError
        When the file is missing, not a plan archive, or from an
        incompatible format version.
    """
    file_path = Path(path)
    if not file_path.exists():
        raise DataError(f"plan file not found: {file_path}")
    if _is_manifest(file_path):
        return ShardedPlanArchive(file_path, mmap=mmap).load_all()
    header, feature_plans = _read_archive(file_path, mmap=mmap)
    return RepairPlan(feature_plans=feature_plans,
                      n_features=int(header["n_features"]),
                      t=float(header["t"]),
                      metadata=dict(header.get("metadata", {})))


def _read_archive(file_path: Path, *, mmap: bool = False,
                  cells=None) -> tuple:
    """Header + ``{(u, k): FeaturePlan}`` of one archive file.

    ``cells`` restricts loading to a subset of the archive's cells
    (``None`` loads all).
    """
    # np.load hands a non-zip file to pickle (an empty one escapes as a
    # bare EOFError), so check the format before either reader sees it.
    if not zipfile.is_zipfile(file_path):
        raise DataError(f"{file_path} is corrupt or not a repro plan "
                        "archive: File is not a zip file")
    try:
        with (_MappedNpz(file_path) if mmap
              else np.load(file_path)) as archive:
            if "__header__" not in archive:
                raise DataError(
                    f"{file_path} is not a repro plan archive "
                    "(missing header)")
            header = json.loads(bytes(archive["__header__"]).decode("utf-8"))
            _check_version(header, file_path)
            all_s_values = header.get("s_values", {})
            all_diagnostics = header.get("diagnostics", {})
            wanted = None if cells is None else {
                (int(u), int(k)) for (u, k) in cells}
            feature_plans = {}
            for u, k in header["cells"]:
                if wanted is not None and (int(u), int(k)) not in wanted:
                    continue
                prefix = f"cell_{u}_{k}"
                nodes = archive[f"{prefix}_nodes"]
                grid = InterpolationGrid(nodes)
                s_values = all_s_values.get(f"{u}_{k}")
                if s_values is None:
                    # v1 archives carried no label list; recover the
                    # labels from the keys instead of assuming {0, 1}.
                    s_values = _infer_s_values(archive.files, prefix)
                marginals = {}
                transports = {}
                for s in s_values:
                    s = int(s)
                    marginals[s] = archive[f"{prefix}_marginal_{s}"]
                    transports[s] = _load_transport(archive, prefix, s,
                                                    nodes)
                diagnostics = {
                    int(s): record
                    for s, record in all_diagnostics.get(f"{u}_{k}",
                                                         {}).items()
                }
                feature_plans[(u, k)] = FeaturePlan(
                    grid=grid, marginals=marginals,
                    barycenter=archive[f"{prefix}_barycenter"],
                    transports=transports, diagnostics=diagnostics)
    except (KeyError, ValueError, json.JSONDecodeError,
            zipfile.BadZipFile) as exc:
        raise DataError(
            f"{file_path} is corrupt or not a repro plan archive: "
            f"{exc}") from exc
    return header, feature_plans


class _MappedNpz:
    """Read an *uncompressed* ``.npz`` as zero-copy views over one mmap.

    ``np.load(mmap_mode=...)`` does not support ``.npz`` archives, so
    this parses the zip directory itself: each stored (deflate-free)
    member's ``.npy`` payload is located inside the file and exposed as
    an ``np.frombuffer`` view over a single shared read-only memory
    map.  The views keep the mapping alive; closing this object only
    releases the zip handle.  Compressed members (``compress=True``
    archives) fall back to an eager in-memory read.
    """

    def __init__(self, path) -> None:
        self._zip = zipfile.ZipFile(path)
        self._mmap = _mmap_module.mmap(self._zip.fp.fileno(), 0,
                                       access=_mmap_module.ACCESS_READ)
        self._members = {info.filename[:-4]: info
                         for info in self._zip.infolist()
                         if info.filename.endswith(".npy")}

    @property
    def files(self) -> list:
        return list(self._members)

    def __contains__(self, key: str) -> bool:
        return key in self._members

    def __getitem__(self, key: str) -> np.ndarray:
        try:
            info = self._members[key]
        except KeyError:
            raise KeyError(f"{key} is not a file in the archive") from None
        if info.compress_type != zipfile.ZIP_STORED:
            with self._zip.open(info.filename) as handle:
                return np.lib.format.read_array(handle,
                                                allow_pickle=False)
        return self._view(info)

    def _view(self, info: zipfile.ZipInfo) -> np.ndarray:
        # The local file header's name/extra lengths can differ from
        # the central directory's, so read them from the local header.
        offset = info.header_offset
        local = self._mmap[offset:offset + 30]
        if len(local) < 30 or local[:4] != b"PK\x03\x04":
            raise DataError(
                f"corrupt zip member {info.filename!r} (bad local header)")
        name_len, extra_len = struct.unpack("<HH", local[26:30])
        return _npy_view(self._mmap, offset + 30 + name_len + extra_len)

    def close(self) -> None:
        self._zip.close()
        try:
            self._mmap.close()
        except BufferError:
            # Live array views still reference the map; it is released
            # when the last of them is garbage-collected.
            pass

    def __enter__(self) -> "_MappedNpz":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _npy_view(buffer, offset: int) -> np.ndarray:
    """A zero-copy ndarray over the ``.npy`` payload at ``offset``."""
    if bytes(buffer[offset:offset + 6]) != b"\x93NUMPY":
        raise DataError("zip member is not a .npy array")
    major = buffer[offset + 6]
    if major == 1:
        (header_len,) = struct.unpack("<H", buffer[offset + 8:offset + 10])
        header_start = offset + 10
    else:
        (header_len,) = struct.unpack("<I", buffer[offset + 8:offset + 12])
        header_start = offset + 12
    header = ast.literal_eval(
        bytes(buffer[header_start:header_start + header_len])
        .decode("latin1"))
    dtype = np.dtype(header["descr"])
    shape = tuple(header["shape"])
    count = int(np.prod(shape)) if shape else 1
    array = np.frombuffer(buffer, dtype=dtype, count=count,
                          offset=header_start + header_len)
    order = "F" if header.get("fortran_order") else "C"
    return array.reshape(shape, order=order)


# -- sharded archives ------------------------------------------------------


def _save_sharded(plan: RepairPlan, file_path: Path, shard_by,
                  compress: bool, plan_dtype: np.dtype,
                  index_dtype) -> Path:
    """Write per-cell-group shard archives plus their JSON manifest."""
    groups = _shard_groups(plan, shard_by)
    stem = file_path.name
    for suffix in (".json", ".npz"):
        if stem.endswith(suffix):
            stem = stem[:-len(suffix)]
    if stem.endswith(".manifest"):
        stem = stem[:-len(".manifest")]
    directory = file_path.parent
    shards = []
    for label, cells in groups:
        shard_name = f"{stem}.shard-{label}.npz"
        _write_archive(plan, cells, directory / shard_name, compress,
                       plan_dtype, index_dtype)
        shards.append({"file": shard_name,
                       "cells": [[int(u), int(k)] for (u, k) in cells]})
    manifest = {
        "format": _MANIFEST_FORMAT,
        "format_version": FORMAT_VERSION,
        "n_features": plan.n_features,
        "t": plan.t,
        "metadata": _jsonable(plan.metadata),
        "shard_by": str(shard_by),
        "shards": shards,
    }
    manifest_path = directory / f"{stem}.manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path


def _shard_groups(plan: RepairPlan, shard_by) -> list:
    """``[(label, [cells...]), ...]`` partition of the plan's cells."""
    cells = sorted(plan.feature_plans)
    if shard_by == "u":
        groups: dict = {}
        for (u, k) in cells:
            groups.setdefault(u, []).append((u, k))
        return [(f"u{u}", groups[u]) for u in sorted(groups)]
    if shard_by == "cell":
        return [(f"u{u}-k{k}", [(u, k)]) for (u, k) in cells]
    if isinstance(shard_by, (int, np.integer)) and not isinstance(
            shard_by, bool):
        n_shards = int(shard_by)
        if not 1 <= n_shards <= len(cells):
            raise ValidationError(
                f"shard_by={n_shards} must be in 1..{len(cells)} "
                f"(the cell count)")
        bounds = np.linspace(0, len(cells), n_shards + 1).astype(int)
        return [(str(i), cells[bounds[i]:bounds[i + 1]])
                for i in range(n_shards)]
    raise ValidationError(
        f"unknown shard_by {shard_by!r}; expected one of {SHARD_MODES} "
        "or a shard count")


def _is_manifest(file_path: Path) -> bool:
    """Manifest files are JSON; archives are zip (``PK`` magic)."""
    if file_path.suffix == ".json":
        return True
    with open(file_path, "rb") as handle:
        head = handle.read(2)
    return head not in (b"PK",) and head[:1] in (b"{", b" ", b"\n")


class ShardedPlanArchive:
    """Lazy, cell-addressable view of a sharded plan archive.

    Reads only the manifest up front; each shard archive is opened (and,
    with ``mmap=True``, memory-mapped) the first time one of its cells
    is requested through :meth:`feature_plan`.  This is what lets a
    serving worker map only the cells it actually serves.  ``max_shards``
    bounds how many shards stay resident (least-recently-used eviction);
    ``None`` keeps every touched shard.

    The object quacks enough like a :class:`RepairPlan` for Algorithm-2
    consumers: ``n_features``, ``t``, ``metadata``, ``u_values``,
    ``covers`` and ``feature_plan``.  :meth:`load_all` materialises the
    full plan (what ``load_plan`` does for manifests).
    """

    def __init__(self, manifest_path, *, mmap: bool = False,
                 max_shards: int | None = None) -> None:
        path = Path(manifest_path)
        if not path.exists():
            raise DataError(f"plan manifest not found: {path}")
        try:
            manifest = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise DataError(
                f"{path} is not a plan manifest: {exc}") from exc
        if manifest.get("format") != _MANIFEST_FORMAT:
            raise DataError(
                f"{path} is not a plan manifest (format field "
                f"{manifest.get('format')!r})")
        _check_version(manifest, path)
        if max_shards is not None and max_shards < 1:
            raise ValidationError(
                f"max_shards must be >= 1 or None, got {max_shards}")
        self._path = path
        self._mmap = mmap
        self._max_shards = max_shards
        self.n_features = int(manifest["n_features"])
        self.t = float(manifest["t"])
        self.metadata = dict(manifest.get("metadata", {}))
        self._shards = manifest["shards"]
        self._cell_to_shard = {}
        for index, shard in enumerate(self._shards):
            for (u, k) in shard["cells"]:
                self._cell_to_shard[(int(u), int(k))] = index
        if not self._cell_to_shard:
            raise DataError(f"{path} names no cells")
        #: shard index -> {(u, k): FeaturePlan}, LRU-ordered.
        self._resident: OrderedDict = OrderedDict()
        self.shard_loads = 0
        self.shard_evictions = 0

    @property
    def cells(self) -> tuple:
        return tuple(sorted(self._cell_to_shard))

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def u_values(self) -> tuple:
        return tuple(sorted({u for (u, _) in self._cell_to_shard}))

    def covers(self, u: int) -> bool:
        return all((u, k) in self._cell_to_shard
                   for k in range(self.n_features))

    def shard_path(self, index: int) -> Path:
        return self._path.parent / self._shards[index]["file"]

    def feature_plan(self, u: int, k: int) -> FeaturePlan:
        """The cell's :class:`FeaturePlan`, mapping its shard on demand."""
        try:
            index = self._cell_to_shard[(int(u), int(k))]
        except KeyError:
            raise ValidationError(
                f"no plan designed for (u={u}, k={k}); available groups "
                f"{self.u_values}") from None
        cells = self._shard_cells(index)
        return cells[(int(u), int(k))]

    def _shard_cells(self, index: int) -> dict:
        if index in self._resident:
            self._resident.move_to_end(index)
            return self._resident[index]
        cells = self._load_shard(index)
        self._resident[index] = cells
        self.shard_loads += 1
        if (self._max_shards is not None
                and len(self._resident) > self._max_shards):
            self._resident.popitem(last=False)
            self.shard_evictions += 1
        return cells

    def _load_shard(self, index: int) -> dict:
        shard_file = self.shard_path(index)
        if not shard_file.exists():
            raise DataError(
                f"shard {shard_file} named by {self._path} is missing")
        _, feature_plans = _read_archive(shard_file, mmap=self._mmap)
        return feature_plans

    def load_all(self) -> RepairPlan:
        """Materialise every shard into one :class:`RepairPlan`."""
        feature_plans = {}
        for index in range(len(self._shards)):
            feature_plans.update(self._load_shard(index))
        return RepairPlan(feature_plans=feature_plans,
                          n_features=self.n_features, t=self.t,
                          metadata=dict(self.metadata))

    def stats(self) -> dict:
        """Residency counters for the serving tier's ``/stats``."""
        return {"n_shards": self.n_shards,
                "resident": len(self._resident),
                "loads": self.shard_loads,
                "evictions": self.shard_evictions}


def _load_transport(archive, prefix: str, s: int,
                    nodes: np.ndarray) -> TransportPlan:
    """One plan from either its dense key or its CSR triplet keys.

    Plan arrays are up-converted to float64 on load (quantised
    ``dtype="float32"`` archives round-trip into ordinary float64
    plans); CSR index arrays are accepted at either stored width
    (int32 / int64).
    """
    cost = float(archive[f"{prefix}_cost_{s}"])
    dense_key = f"{prefix}_plan_{s}"
    if dense_key in archive:
        matrix = np.asarray(archive[dense_key], dtype=np.float64)
        return TransportPlan(matrix, nodes, nodes, cost)
    n = nodes.size
    return TransportPlan.from_sparse(
        (np.asarray(archive[f"{dense_key}_data"], dtype=np.float64),
         archive[f"{dense_key}_indices"],
         archive[f"{dense_key}_indptr"]),
        nodes, nodes, cost, shape=(n, n))


def _infer_s_values(keys, prefix: str) -> list:
    """Protected-class labels present for ``prefix``, from the key names."""
    marker = f"{prefix}_marginal_"
    s_values = sorted(int(key[len(marker):]) for key in keys
                      if key.startswith(marker))
    if not s_values:
        raise KeyError(f"no marginals stored for cell {prefix!r}")
    return s_values


def _check_version(header: dict, file_path: Path) -> None:
    version = header.get("format_version")
    if (not isinstance(version, int)
            or not (_OLDEST_READABLE_VERSION <= version <= FORMAT_VERSION)):
        raise DataError(
            f"{file_path} uses plan-format version {version}; this "
            f"library reads versions {_OLDEST_READABLE_VERSION}.."
            f"{FORMAT_VERSION}")


def _int_label(s) -> int:
    """Protected-class labels are persisted as ints; reject anything else
    early so the archive cannot be written unreadably."""
    if isinstance(s, (bool, np.bool_)):
        return int(s)
    if isinstance(s, (int, np.integer)):
        return int(s)
    raise ValidationError(
        f"plan archives require integer protected-class labels, got "
        f"{s!r} ({type(s).__name__})")


def _jsonable(metadata: dict) -> dict:
    """Best-effort conversion of metadata values to JSON-safe types."""
    out = {}
    for key, value in metadata.items():
        if isinstance(value, dict):
            out[str(key)] = {str(k): _scalar(v) for k, v in value.items()}
        else:
            out[str(key)] = _scalar(value)
    return out


def _scalar(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)
