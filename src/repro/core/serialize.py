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
  :func:`load_plan`'s ``mmap=True`` mode (below) maps zero-copy; their
  writer pads each member's local zip header so that its array data
  starts at a multiple of 8 bytes into the file, and mapped views are
  aligned.

Memory-mapped loading
---------------------

``load_plan(path, mmap=True)`` maps the archive file once and reads
only the JSON header and the zip directory.  The returned plan's
``feature_plans`` is a read-only mapping that reads, checks and wraps
each cell on its first access and then keeps it, so a serving worker
holds only the cells it has served.  Every stored array stays a
read-only view of the one mapping, CSR triplets and dense matrices
included; a plan array is copied only to up-convert float32 mass or to
clip an entry at zero.  Because the mapping is backed by the page
cache, N serving workers mapping the same archive share one physical
copy of the plan bytes.  A corrupt cell raises its :class:`DataError`
on that first access rather than inside ``load_plan``.  Members that
are deflated (``compress=True`` archives) are read at load.  No file
handle outlives ``load_plan``; the mapping lives as long as the plan
or an array viewing it does.

Compatibility policy
--------------------

``load_plan`` reads both version 2 and the original version 1 layout
(always-dense plans, no ``s_values`` header field).  For v1 archives the
protected-class labels are recovered from the array keys themselves, so
v1 plans designed with labels other than ``{0, 1}`` — which the original
loader wrongly rejected as corrupt — now load too.  ``save_plan`` always
writes the current version; there is no downgrade path.  The JSON shard
manifests that earlier versions of this library could write are not
read: such a file is not a zip archive and fails to load like any other.
"""

from __future__ import annotations

import ast
import json
import mmap as _mmap_module
import struct
import zipfile
from collections.abc import Mapping
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ..density.grid import InterpolationGrid
from ..exceptions import DataError, ValidationError
from ..ot.coupling import TransportPlan
from .plan import FeaturePlan, RepairPlan

__all__ = ["save_plan", "load_plan", "FORMAT_VERSION", "PLAN_DTYPES",
           "INDEX_DTYPES"]

#: Bump when the on-disk layout changes incompatibly.
FORMAT_VERSION = 2

#: Oldest archive version :func:`load_plan` still reads.
_OLDEST_READABLE_VERSION = 1


#: Transport-plan storage dtypes :func:`save_plan` accepts.
PLAN_DTYPES = ("float64", "float32")

#: CSR index storage dtypes :func:`save_plan` accepts (``None`` = auto).
INDEX_DTYPES = ("int32", "int64")

#: Header ID of the zip extra field that pads a member's local header
#: (the ID Android's zipalign uses; zip readers skip unknown fields).
_ALIGNMENT_FIELD = 0xD935


def save_plan(plan: RepairPlan, path, *, compress: bool = False,
              dtype=None, index_dtype=None) -> Path:
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

    Returns the path written, with the ``.npz`` suffix appended when
    missing.
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
    cells = sorted(plan.feature_plans)
    header = {
        "format_version": FORMAT_VERSION,
        "n_features": plan.n_features,
        "t": plan.t,
        # Storage precision of the plan arrays (marginals/supports/cost
        # values stay float64); absent in archives written before the
        # field existed, which are float64 by construction.
        "plan_dtype": plan_dtype.name,
        "metadata": _jsonable(plan.metadata),
        "cells": [[int(u), int(k)] for (u, k) in cells],
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
                data, indices, indptr = transport._csr
                idx_dtype = _csr_index_dtype(transport, index_dtype)
                arrays[f"{prefix}_plan_{label}_data"] = \
                    data.astype(plan_dtype, copy=False)
                arrays[f"{prefix}_plan_{label}_indices"] = \
                    indices.astype(idx_dtype, copy=False)
                arrays[f"{prefix}_plan_{label}_indptr"] = \
                    indptr.astype(idx_dtype, copy=False)
            else:
                arrays[f"{prefix}_plan_{label}"] = \
                    transport.matrix.astype(plan_dtype, copy=False)

    file_path = Path(path)
    if file_path.suffix != ".npz":
        file_path = file_path.with_name(file_path.name + ".npz")
    if compress:
        np.savez_compressed(file_path, **arrays)
    else:
        _savez_aligned(file_path, arrays)
    return file_path


def _savez_aligned(file_path: Path, arrays: dict) -> None:
    """``np.savez`` with every member's array data at a multiple of 8
    bytes into the file.

    A mapped view is only as aligned as its offset in the file, and
    numpy copies a whole misaligned array inside ``take`` and
    ``searchsorted``: a 64-value kernel dispatch on a misaligned
    ``n_Q = 2000`` cell takes ~13% longer.  A ``.npy`` header pads the
    data to a multiple of 64 bytes from the member's start, so padding
    each local file header to a multiple of 8 aligns the data for every
    stored dtype.
    """
    with open(file_path, "wb") as handle, \
            zipfile.ZipFile(handle, "w") as archive:
        for key, value in arrays.items():
            info = zipfile.ZipInfo(f"{key}.npy")
            # The local header holds 30 fixed bytes, the name, this
            # extra field (4 bytes plus the padding) and the 20-byte
            # zip64 field that force_zip64 appends.
            end = handle.tell() + 30 + len(info.filename.encode()) + 4 + 20
            info.extra = (struct.pack("<HH", _ALIGNMENT_FIELD, -end % 8)
                          + bytes(-end % 8))
            with archive.open(info, "w", force_zip64=True) as member:
                np.lib.format.write_array(member, np.asanyarray(value),
                                          allow_pickle=False)
            # The central directory needs no padding.
            info.extra = b""


def _csr_index_dtype(plan: TransportPlan, index_dtype) -> np.dtype:
    """Storage dtype of a CSR plan's ``indices`` / ``indptr`` arrays.

    ``int32`` fits when both the column count (bounds ``indices``) and
    the non-zero count (bounds ``indptr``) stay below ``2³¹``; auto mode
    (``index_dtype=None``) takes it whenever it fits.
    """
    limit = np.iinfo(np.int32).max
    fits = plan.shape[1] <= limit and plan.nnz <= limit
    if index_dtype is None:
        return np.dtype(np.int32 if fits else np.int64)
    requested = np.dtype(str(index_dtype))
    if requested == np.int32 and not fits:
        raise ValidationError(
            f"plan with shape {plan.shape} and nnz {plan.nnz} "
            "overflows int32 indices; use index_dtype='int64' (or None)")
    return requested


def load_plan(path, *, mmap: bool = False) -> RepairPlan:
    """Load a :class:`RepairPlan` previously written by :func:`save_plan`.

    Reads the current sparse-aware version 2 layout and the original
    version 1 layout.  By default every cell is read, checked and
    wrapped here, so a corrupt archive fails to load.

    With ``mmap=True`` only the JSON header and the zip directory are
    read here: each cell is read, checked and wrapped on its first
    access through ``feature_plans`` (so a corrupt cell raises there),
    and every array of an uncompressed archive stays a read-only view
    of one shared memory map of the file (see the module docstring).

    Raises
    ------
    DataError
        When the file is missing, not a plan archive, or from an
        incompatible format version, or a cell is corrupt.
    """
    file_path = Path(path)
    if not file_path.exists():
        raise DataError(f"plan file not found: {file_path}")
    # np.load hands a non-zip file to pickle (an empty one escapes as a
    # bare EOFError), so check the format before either reader sees it.
    if not zipfile.is_zipfile(file_path):
        raise DataError(f"{file_path} is corrupt or not a repro plan "
                        "archive: File is not a zip file")
    with _archive_errors(file_path):
        if mmap:
            archive = _MappedNpz(file_path)
            header = _read_header(archive, file_path)
            feature_plans = _MappedCells(archive, header, file_path)
        else:
            with np.load(file_path) as archive:
                header = _read_header(archive, file_path)
                feature_plans = {
                    cell: _read_cell(archive, header, cell, file_path)
                    for cell in _header_cells(header)}
        return RepairPlan(feature_plans=feature_plans,
                          n_features=int(header["n_features"]),
                          t=float(header["t"]),
                          metadata=dict(header.get("metadata", {})))


@contextmanager
def _archive_errors(file_path: Path):
    """Raise what reading a malformed archive raises as a
    :class:`DataError` naming the file."""
    try:
        yield
    except DataError:
        raise
    except (KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise DataError(
            f"{file_path} is corrupt or not a repro plan archive: "
            f"{exc}") from exc


def _read_header(archive, file_path: Path) -> dict:
    """The archive's JSON header, its format version checked."""
    if "__header__" not in archive:
        raise DataError(
            f"{file_path} is not a repro plan archive (missing header)")
    header = json.loads(bytes(archive["__header__"]).decode("utf-8"))
    _check_version(header, file_path)
    return header


def _header_cells(header: dict) -> list:
    """The archive's ``(u, k)`` cells, in the header's order."""
    return [(int(u), int(k)) for (u, k) in header["cells"]]


def _read_cell(archive, header: dict, cell: tuple,
               file_path: Path) -> FeaturePlan:
    """Read, check and wrap one cell: the cell reader of both modes of
    :func:`load_plan`, over the stored arrays themselves."""
    u, k = cell
    prefix = f"cell_{u}_{k}"
    with _archive_errors(file_path):
        nodes = archive[f"{prefix}_nodes"]
        s_values = header.get("s_values", {}).get(f"{u}_{k}")
        if s_values is None:
            # v1 archives carried no label list; recover the labels from
            # the keys instead of assuming {0, 1}.
            s_values = _infer_s_values(archive.files, prefix)
        marginals = {}
        transports = {}
        for s in map(int, s_values):
            marginals[s] = archive[f"{prefix}_marginal_{s}"]
            transports[s] = _read_transport(archive, prefix, s, nodes)
        diagnostics = {
            int(s): record
            for s, record in header.get("diagnostics", {}).get(
                f"{u}_{k}", {}).items()
        }
        return FeaturePlan(grid=InterpolationGrid(nodes),
                           marginals=marginals,
                           barycenter=archive[f"{prefix}_barycenter"],
                           transports=transports, diagnostics=diagnostics)


def _read_transport(archive, prefix: str, s: int,
                    nodes: np.ndarray) -> TransportPlan:
    """One plan from either its dense key or its CSR triplet keys, over
    the stored arrays (:meth:`TransportPlan._over_arrays`).

    Quantised ``dtype="float32"`` plan mass is up-converted to float64,
    so such archives load into ordinary float64 plans; CSR index arrays
    are accepted at either stored width (int32 / int64).  A triplet's
    structure is checked in ``O(nnz)`` (1-D arrays, integer indices,
    an ``indptr`` from 0 to nnz that never decreases, every column on
    the grid), so a corrupt one fails here, not in a repair.
    """
    cost = float(archive[f"{prefix}_cost_{s}"])
    key = f"{prefix}_plan_{s}"
    if key in archive:
        matrix, shape = archive[key].astype(np.float64, copy=False), None
    else:
        matrix = (archive[f"{key}_data"].astype(np.float64, copy=False),
                  archive[f"{key}_indices"], archive[f"{key}_indptr"])
        shape = (nodes.size, nodes.size)
    return TransportPlan._over_arrays(matrix, nodes, nodes, cost,
                                      shape=shape)


class _MappedCells(Mapping):
    """The ``(u, k) -> FeaturePlan`` cells of a mapped archive.

    A cell is read, checked and wrapped by :func:`_read_cell` on its
    first access and then kept; a corrupt cell raises its
    :class:`DataError` on every access.  Membership, iteration and
    length read the header's cell list only, so they never build a
    cell.
    """

    def __init__(self, archive: _MappedNpz, header: dict,
                 file_path: Path) -> None:
        self._archive = archive
        self._header = header
        self._path = file_path
        self._cells = dict.fromkeys(_header_cells(header))
        self._built: dict = {}

    def __getitem__(self, cell) -> FeaturePlan:
        plan = self._built.get(cell)
        if plan is None:
            if cell not in self._cells:
                raise KeyError(cell)
            # Threads racing on a first access may each build the cell;
            # setdefault keeps one of them.
            plan = self._built.setdefault(cell, _read_cell(
                self._archive, self._header, cell, self._path))
        return plan

    def __contains__(self, cell) -> bool:
        return cell in self._cells

    def __iter__(self):
        return iter(self._cells)

    def __len__(self) -> int:
        return len(self._cells)


class _MappedNpz:
    """An uncompressed ``.npz`` archive as zero-copy views over one
    read-only memory map.

    ``np.load(mmap_mode=...)`` does not support ``.npz`` archives, so
    this parses the zip directory itself: each stored (deflate-free)
    member's ``.npy`` payload is located inside the file and exposed as
    an ``np.frombuffer`` view over the map.  The file and zip handles
    are closed before the constructor returns; the map stays open as
    long as this object or a view of it lives.  Deflated members
    (``compress=True`` archives) are read into memory here, read-only.
    """

    def __init__(self, path) -> None:
        with open(path, "rb") as handle, zipfile.ZipFile(handle) as archive:
            self._mmap = _mmap_module.mmap(handle.fileno(), 0,
                                           access=_mmap_module.ACCESS_READ)
            self._members = {}
            for info in archive.infolist():
                if not info.filename.endswith(".npy"):
                    continue
                member = info
                if info.compress_type != zipfile.ZIP_STORED:
                    with archive.open(info) as stream:
                        member = np.lib.format.read_array(
                            stream, allow_pickle=False)
                    member.flags.writeable = False
                self._members[info.filename[:-4]] = member

    @property
    def files(self) -> list:
        return list(self._members)

    def __contains__(self, key: str) -> bool:
        return key in self._members

    def __getitem__(self, key: str) -> np.ndarray:
        try:
            member = self._members[key]
        except KeyError:
            raise KeyError(f"{key} is not a file in the archive") from None
        if isinstance(member, np.ndarray):
            return member
        # The local file header's name/extra lengths can differ from
        # the central directory's, so read them from the local header.
        offset = member.header_offset
        local = self._mmap[offset:offset + 30]
        if len(local) < 30 or local[:4] != b"PK\x03\x04":
            raise ValueError(
                f"corrupt zip member {member.filename!r} (bad local header)")
        name_len, extra_len = struct.unpack("<HH", local[26:30])
        return _npy_view(self._mmap, offset + 30 + name_len + extra_len)


def _npy_view(buffer, offset: int) -> np.ndarray:
    """A zero-copy ndarray over the ``.npy`` payload at ``offset``."""
    if bytes(buffer[offset:offset + 6]) != b"\x93NUMPY":
        raise ValueError("zip member is not a .npy array")
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
