"""Pluggable array-API compute backends for the vectorised OT kernels.

The batched kernels of the OT layer (the monotone staircase of
:func:`repro.ot.onedim.batched_north_west_corner`, the stacked Sinkhorn
iterations of :mod:`repro.ot.sinkhorn`) are long chains of array
operations with no data-dependent Python control flow — exactly the
shape a device array library can take over unchanged.  This module is
the seam: an :class:`ArrayBackend` exposes the namespace-style
operations those kernels need (``asarray``, ``cumsum``, ``argsort``,
``take_along_axis``, ``searchsorted``, ``einsum``, ``logsumexp``,
``to_numpy``, ...), and the kernels are written against it instead of
against :mod:`numpy` directly.

Backends
--------

``numpy`` (always available, the default)
    Delegates 1:1 to numpy/scipy.  The delegation is chosen so that a
    kernel running on this backend performs **exactly** the operations
    the pre-backend code performed — results are bit-identical.
``array_api_strict`` (optional; the CI conformance backend)
    Wraps the ``array_api_strict`` namespace, which implements the
    Python array-API standard and nothing else.  Running the kernel
    tests on it proves the kernels stay inside the standard — i.e. that
    any conforming device library can slot in.
``torch`` / ``cupy`` (optional, detected at runtime)
    GPU-capable backends; registered only when the library imports.

Lookup is entry-point-free: :func:`get_backend` resolves a spec —
``None`` / ``"auto"`` (numpy today; device backends are explicit
opt-ins so default results never change), a registered name, or a
ready-made :class:`ArrayBackend` instance.  Third-party backends plug
in with :func:`register_array_backend`.

>>> nx = get_backend()
>>> nx.name
'numpy'
>>> import numpy as np
>>> bool(np.array_equal(nx.to_numpy(nx.cumsum(nx.asarray([1., 2.]), 0)),
...                     [1., 3.]))
True
>>> sorted(set(available_backends()) & {"numpy"})
['numpy']
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError

__all__ = ["ArrayBackend", "NumpyBackend", "ArrayAPIBackend",
           "TorchBackend", "CupyBackend", "get_backend",
           "available_backends", "register_array_backend",
           "BACKEND_NAMES"]


class ArrayBackend:
    """Protocol of a compute backend: the array namespace the kernels use.

    Structural, not nominal — any object exposing these operations (with
    numpy semantics) works; the subclasses here exist to adapt concrete
    libraries.  ``to_numpy`` is the single boundary back to the host:
    kernels call it exactly once, when handing results to the
    numpy/CSR-backed :class:`~repro.ot.coupling.TransportPlan` layer.
    """

    name = "abstract"

    #: dtype handles (backend-native objects accepted by ``asarray``).
    float64: object = None
    int64: object = None
    bool: object = None

    # -- construction / conversion ----------------------------------------
    def asarray(self, x, dtype=None):  # pragma: no cover - interface
        raise NotImplementedError

    def astype(self, x, dtype):  # pragma: no cover - interface
        raise NotImplementedError

    def to_numpy(self, x) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def scalar(self, x) -> float:
        """One device scalar to a host float (a single sync point)."""
        return float(self.to_numpy(x))

    # -- creation ----------------------------------------------------------
    def zeros(self, shape, dtype=None):  # pragma: no cover - interface
        raise NotImplementedError

    def ones(self, shape, dtype=None):  # pragma: no cover - interface
        raise NotImplementedError

    def arange(self, start, stop=None, dtype=None):  # pragma: no cover
        raise NotImplementedError

    # -- structure ---------------------------------------------------------
    def reshape(self, x, shape):  # pragma: no cover - interface
        raise NotImplementedError

    def stack(self, arrays, axis=0):  # pragma: no cover - interface
        raise NotImplementedError

    def concat(self, arrays, axis=0):  # pragma: no cover - interface
        raise NotImplementedError

    def take(self, x, indices, axis):  # pragma: no cover - interface
        raise NotImplementedError

    def take_along_axis(self, x, indices, axis):  # pragma: no cover
        raise NotImplementedError

    # -- algorithmic kernels ----------------------------------------------
    def cumsum(self, x, axis):  # pragma: no cover - interface
        raise NotImplementedError

    def argsort(self, x, axis=-1):
        """Stable argsort (ties keep input order) along ``axis``."""
        raise NotImplementedError  # pragma: no cover - interface

    def searchsorted(self, sorted_sequence, values, side="left"):
        raise NotImplementedError  # pragma: no cover - interface

    def einsum(self, subscripts, *operands):  # pragma: no cover
        raise NotImplementedError

    def matmul(self, a, b):  # pragma: no cover - interface
        raise NotImplementedError

    def transpose(self, x):
        """Matrix transpose (swap the last two axes)."""
        raise NotImplementedError  # pragma: no cover - interface

    def logsumexp(self, x, axis=None):  # pragma: no cover - interface
        raise NotImplementedError

    # -- elementwise -------------------------------------------------------
    def exp(self, x):  # pragma: no cover - interface
        raise NotImplementedError

    def log(self, x):  # pragma: no cover - interface
        raise NotImplementedError

    def abs(self, x):  # pragma: no cover - interface
        raise NotImplementedError

    def power(self, a, b):  # pragma: no cover - interface
        raise NotImplementedError

    def where(self, condition, a, b):  # pragma: no cover - interface
        raise NotImplementedError

    def maximum(self, a, b):  # pragma: no cover - interface
        raise NotImplementedError

    def minimum(self, a, b):  # pragma: no cover - interface
        raise NotImplementedError

    def logical_or(self, a, b):  # pragma: no cover - interface
        raise NotImplementedError

    def isfinite(self, x):  # pragma: no cover - interface
        raise NotImplementedError

    # -- reductions --------------------------------------------------------
    def sum(self, x, axis=None, keepdims=False):  # pragma: no cover
        raise NotImplementedError

    def max(self, x, axis=None, keepdims=False):  # pragma: no cover
        raise NotImplementedError

    def min(self, x, axis=None, keepdims=False):  # pragma: no cover
        raise NotImplementedError

    def any(self, x, axis=None):  # pragma: no cover - interface
        raise NotImplementedError

    def all(self, x, axis=None):  # pragma: no cover - interface
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class NumpyBackend(ArrayBackend):
    """The numpy/scipy reference backend.

    Every operation delegates to the exact numpy/scipy call the
    pre-backend kernels made (``matmul`` is ``numpy.matmul``,
    ``logsumexp`` is :func:`scipy.special.logsumexp`, ...), so kernels
    running here are **bit-identical** to the historical implementation.
    """

    name = "numpy"
    float64 = np.float64
    int64 = np.int64
    bool = np.bool_

    def asarray(self, x, dtype=None):
        return np.asarray(x, dtype=dtype)

    def astype(self, x, dtype):
        return x.astype(dtype)

    def to_numpy(self, x) -> np.ndarray:
        return np.asarray(x)

    def zeros(self, shape, dtype=None):
        return np.zeros(shape, dtype=dtype)

    def ones(self, shape, dtype=None):
        return np.ones(shape, dtype=dtype)

    def arange(self, start, stop=None, dtype=None):
        return np.arange(start, stop, dtype=dtype)

    def reshape(self, x, shape):
        return np.reshape(x, shape)

    def stack(self, arrays, axis=0):
        return np.stack(arrays, axis=axis)

    def concat(self, arrays, axis=0):
        return np.concatenate(arrays, axis=axis)

    def take(self, x, indices, axis):
        return np.take(x, indices, axis=axis)

    def take_along_axis(self, x, indices, axis):
        return np.take_along_axis(x, indices, axis=axis)

    def cumsum(self, x, axis):
        return np.cumsum(x, axis=axis)

    def argsort(self, x, axis=-1):
        return np.argsort(x, axis=axis, kind="stable")

    def searchsorted(self, sorted_sequence, values, side="left"):
        return np.searchsorted(sorted_sequence, values, side=side)

    def einsum(self, subscripts, *operands):
        return np.einsum(subscripts, *operands)

    def matmul(self, a, b):
        return np.matmul(a, b)

    def transpose(self, x):
        return np.swapaxes(x, -2, -1)

    def logsumexp(self, x, axis=None):
        from scipy.special import logsumexp
        return logsumexp(x, axis=axis)

    def exp(self, x):
        return np.exp(x)

    def log(self, x):
        return np.log(x)

    def abs(self, x):
        return np.abs(x)

    def power(self, a, b):
        return np.power(a, b)

    def where(self, condition, a, b):
        return np.where(condition, a, b)

    def maximum(self, a, b):
        return np.maximum(a, b)

    def minimum(self, a, b):
        return np.minimum(a, b)

    def logical_or(self, a, b):
        return np.logical_or(a, b)

    def isfinite(self, x):
        return np.isfinite(x)

    def sum(self, x, axis=None, keepdims=False):
        return np.sum(x, axis=axis, keepdims=keepdims)

    def max(self, x, axis=None, keepdims=False):
        return np.max(x, axis=axis, keepdims=keepdims)

    def min(self, x, axis=None, keepdims=False):
        return np.min(x, axis=axis, keepdims=keepdims)

    def any(self, x, axis=None):
        return np.any(x, axis=axis)

    def all(self, x, axis=None):
        return np.all(x, axis=axis)


class ArrayAPIBackend(ArrayBackend):
    """Adapter for any namespace implementing the Python array-API standard.

    Used with ``array_api_strict`` it is the CI conformance harness: the
    strict namespace rejects every numpy-ism outside the standard
    (implicit bool arithmetic, scalar second operands, ``kind=`` sort
    arguments, ...), so a kernel that runs here runs on any conforming
    device library.  Operations the standard lacks (``einsum``,
    ``logsumexp``, ``take_along_axis`` before 2024.12) are emulated from
    standard primitives.
    """

    def __init__(self, xp, name=None):
        self.xp = xp
        self.name = name or getattr(xp, "__name__", "array_api")
        self.float64 = xp.float64
        self.int64 = xp.int64
        self.bool = xp.bool

    def _wrap_operand(self, reference, value):
        """Promote a Python scalar operand to a 0-d array (the standard
        only guarantees array-array elementwise signatures)."""
        if hasattr(value, "dtype") and hasattr(value, "shape"):
            return value
        return self.xp.asarray(value, dtype=reference.dtype)

    def asarray(self, x, dtype=None):
        # Only arrays of *this* namespace pass through untouched —
        # numpy 2.x arrays also expose __array_namespace__, and the
        # strict namespace rejects foreign arrays inside its functions.
        namespace = getattr(x, "__array_namespace__", None)
        if namespace is not None and namespace() is self.xp:
            return x if dtype is None else self.xp.astype(x, dtype)
        # Round-trip via numpy so nested sequences and foreign array
        # types are accepted uniformly.
        return self.xp.asarray(np.asarray(x), dtype=dtype)

    def astype(self, x, dtype):
        return self.xp.astype(x, dtype)

    def to_numpy(self, x) -> np.ndarray:
        try:
            return np.asarray(x)
        except (TypeError, ValueError):
            # Namespaces whose arrays refuse __array__ still export
            # dlpack (array-API mandates it).
            return np.asarray(np.from_dlpack(x))

    def zeros(self, shape, dtype=None):
        return self.xp.zeros(shape, dtype=dtype)

    def ones(self, shape, dtype=None):
        return self.xp.ones(shape, dtype=dtype)

    def arange(self, start, stop=None, dtype=None):
        return self.xp.arange(start, stop, dtype=dtype)

    def reshape(self, x, shape):
        return self.xp.reshape(x, shape)

    def stack(self, arrays, axis=0):
        return self.xp.stack(list(arrays), axis=axis)

    def concat(self, arrays, axis=0):
        return self.xp.concat(list(arrays), axis=axis)

    def take(self, x, indices, axis):
        return self.xp.take(x, indices, axis=axis)

    def take_along_axis(self, x, indices, axis):
        native = getattr(self.xp, "take_along_axis", None)
        if native is not None:
            return native(x, indices, axis=axis)
        # Pre-2024.12 namespaces: emulate the 2-D trailing-axis case the
        # kernels use via flat gather arithmetic.
        if x.ndim != 2 or axis not in (1, -1):
            raise ValidationError(
                f"backend {self.name!r} take_along_axis fallback supports "
                "2-D arrays along the last axis only")
        rows, cols = x.shape
        offsets = self.xp.reshape(
            self.xp.arange(rows, dtype=indices.dtype) * cols, (rows, 1))
        flat = self.xp.reshape(x, (-1,))
        gathered = self.xp.take(
            flat, self.xp.reshape(indices + offsets, (-1,)), axis=0)
        return self.xp.reshape(gathered, indices.shape)

    def cumsum(self, x, axis):
        return self.xp.cumulative_sum(x, axis=axis)

    def argsort(self, x, axis=-1):
        return self.xp.argsort(x, axis=axis, stable=True)

    def searchsorted(self, sorted_sequence, values, side="left"):
        return self.xp.searchsorted(sorted_sequence, values, side=side)

    def einsum(self, subscripts, *operands):
        """The einsum contractions the OT kernels use, via ``matmul``.

        The array-API standard has no ``einsum``; the stacked-kernel
        patterns below cover every call the kernels make.  Unknown
        subscripts fail loudly rather than silently mis-contract.
        """
        xp = self.xp
        key = subscripts.replace(" ", "")
        if key == "bij,bj->bi":
            a, b = operands
            return xp.matmul(a, b[..., None])[..., 0]
        if key == "bij,bi->bj":
            a, b = operands
            return xp.matmul(b[:, None, :], a)[:, 0, :]
        if key == "ij,j->i":
            a, b = operands
            return xp.matmul(a, b)
        if key == "ij,i->j":
            a, b = operands
            return xp.matmul(xp.matrix_transpose(a), b)
        if key in ("bt,bt->b", "bi,bi->b"):
            a, b = operands
            return xp.sum(a * b, axis=-1)
        raise ValidationError(
            f"einsum pattern {subscripts!r} is not supported by the "
            "array-API backend adapter")

    def matmul(self, a, b):
        return self.xp.matmul(a, b)

    def transpose(self, x):
        return self.xp.matrix_transpose(x)

    def logsumexp(self, x, axis=None):
        xp = self.xp
        shift = xp.max(x, axis=axis, keepdims=True)
        # Freeze non-finite shifts at zero so fully -inf slices produce
        # -inf (not nan) like scipy's implementation.
        shift = xp.where(xp.isfinite(shift), shift,
                         xp.zeros_like(shift))
        summed = xp.sum(xp.exp(x - shift), axis=axis)
        return xp.log(summed) + xp.squeeze(
            shift, axis=tuple(range(x.ndim)) if axis is None else axis)

    def exp(self, x):
        return self.xp.exp(x)

    def log(self, x):
        return self.xp.log(x)

    def abs(self, x):
        return self.xp.abs(x)

    def power(self, a, b):
        return self.xp.pow(a, self._wrap_operand(a, b))

    def where(self, condition, a, b):
        if not (hasattr(a, "dtype") or hasattr(b, "dtype")):
            a = self.xp.asarray(a)
        if hasattr(a, "dtype"):
            b = self._wrap_operand(a, b)
        else:
            a = self._wrap_operand(b, a)
        return self.xp.where(condition, a, b)

    def maximum(self, a, b):
        return self.xp.maximum(a, self._wrap_operand(a, b))

    def minimum(self, a, b):
        return self.xp.minimum(a, self._wrap_operand(a, b))

    def logical_or(self, a, b):
        return self.xp.logical_or(a, b)

    def isfinite(self, x):
        return self.xp.isfinite(x)

    def sum(self, x, axis=None, keepdims=False):
        return self.xp.sum(x, axis=axis, keepdims=keepdims)

    def max(self, x, axis=None, keepdims=False):
        return self.xp.max(x, axis=axis, keepdims=keepdims)

    def min(self, x, axis=None, keepdims=False):
        return self.xp.min(x, axis=axis, keepdims=keepdims)

    def any(self, x, axis=None):
        return self.xp.any(x, axis=axis)

    def all(self, x, axis=None):
        return self.xp.all(x, axis=axis)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class TorchBackend(ArrayBackend):
    """PyTorch backend (CPU by default; pass ``device=`` for CUDA/MPS)."""

    name = "torch"

    def __init__(self, device=None):
        import torch  # deferred: optional dependency

        self.torch = torch
        self.device = device
        self.float64 = torch.float64
        self.int64 = torch.int64
        self.bool = torch.bool

    def asarray(self, x, dtype=None):
        if isinstance(x, self.torch.Tensor):
            tensor = x
        else:
            # as_tensor mishandles non-contiguous host views (e.g.
            # numpy broadcast_to results with zero strides).
            tensor = self.torch.as_tensor(
                np.ascontiguousarray(np.asarray(x)))
        if dtype is not None:
            tensor = tensor.to(dtype)
        if self.device is not None:
            tensor = tensor.to(self.device)
        return tensor

    def astype(self, x, dtype):
        return x.to(dtype)

    def to_numpy(self, x) -> np.ndarray:
        return x.detach().cpu().numpy()

    def zeros(self, shape, dtype=None):
        return self.torch.zeros(shape, dtype=dtype, device=self.device)

    def ones(self, shape, dtype=None):
        return self.torch.ones(shape, dtype=dtype, device=self.device)

    def arange(self, start, stop=None, dtype=None):
        if stop is None:
            start, stop = 0, start
        return self.torch.arange(start, stop, dtype=dtype,
                                 device=self.device)

    def reshape(self, x, shape):
        return self.torch.reshape(x, shape)

    def stack(self, arrays, axis=0):
        return self.torch.stack(list(arrays), dim=axis)

    def concat(self, arrays, axis=0):
        return self.torch.cat(list(arrays), dim=axis)

    def take(self, x, indices, axis):
        return self.torch.index_select(x, axis, indices)

    def take_along_axis(self, x, indices, axis):
        return self.torch.take_along_dim(x, indices, dim=axis)

    def cumsum(self, x, axis):
        return self.torch.cumsum(x, dim=axis)

    def argsort(self, x, axis=-1):
        return self.torch.argsort(x, dim=axis, stable=True)

    def searchsorted(self, sorted_sequence, values, side="left"):
        return self.torch.searchsorted(sorted_sequence, values, side=side)

    def einsum(self, subscripts, *operands):
        return self.torch.einsum(subscripts, *operands)

    def matmul(self, a, b):
        return self.torch.matmul(a, b)

    def transpose(self, x):
        return self.torch.transpose(x, -2, -1)

    def logsumexp(self, x, axis=None):
        if axis is None:
            return self.torch.logsumexp(x.reshape(-1), dim=0)
        return self.torch.logsumexp(x, dim=axis)

    def exp(self, x):
        return self.torch.exp(x)

    def log(self, x):
        return self.torch.log(x)

    def abs(self, x):
        return self.torch.abs(x)

    def power(self, a, b):
        return self.torch.pow(a, b)

    def where(self, condition, a, b):
        if not isinstance(a, self.torch.Tensor) \
                and not isinstance(b, self.torch.Tensor):
            a = self.asarray(a)
        return self.torch.where(condition, a, b)

    def maximum(self, a, b):
        if not isinstance(b, self.torch.Tensor):
            b = self.torch.as_tensor(b, dtype=a.dtype, device=a.device)
        return self.torch.maximum(a, b)

    def minimum(self, a, b):
        if not isinstance(b, self.torch.Tensor):
            b = self.torch.as_tensor(b, dtype=a.dtype, device=a.device)
        return self.torch.minimum(a, b)

    def logical_or(self, a, b):
        return self.torch.logical_or(a, b)

    def isfinite(self, x):
        return self.torch.isfinite(x)

    def sum(self, x, axis=None, keepdims=False):
        if axis is None:
            return self.torch.sum(x)
        return self.torch.sum(x, dim=axis, keepdim=keepdims)

    def max(self, x, axis=None, keepdims=False):
        if axis is None:
            return self.torch.max(x)
        return self.torch.amax(x, dim=axis, keepdim=keepdims)

    def min(self, x, axis=None, keepdims=False):
        if axis is None:
            return self.torch.min(x)
        return self.torch.amin(x, dim=axis, keepdim=keepdims)

    def any(self, x, axis=None):
        if axis is None:
            return self.torch.any(x)
        return self.torch.any(x, dim=axis)

    def all(self, x, axis=None):
        if axis is None:
            return self.torch.all(x)
        return self.torch.all(x, dim=axis)


class CupyBackend(ArrayBackend):
    """CuPy backend (numpy-compatible namespace on CUDA devices)."""

    name = "cupy"

    def __init__(self):
        import cupy  # deferred: optional dependency

        self.cupy = cupy
        self.float64 = cupy.float64
        self.int64 = cupy.int64
        self.bool = cupy.bool_

    def asarray(self, x, dtype=None):
        return self.cupy.asarray(x, dtype=dtype)

    def astype(self, x, dtype):
        return x.astype(dtype)

    def to_numpy(self, x) -> np.ndarray:
        return self.cupy.asnumpy(x)

    def zeros(self, shape, dtype=None):
        return self.cupy.zeros(shape, dtype=dtype)

    def ones(self, shape, dtype=None):
        return self.cupy.ones(shape, dtype=dtype)

    def arange(self, start, stop=None, dtype=None):
        return self.cupy.arange(start, stop, dtype=dtype)

    def reshape(self, x, shape):
        return self.cupy.reshape(x, shape)

    def stack(self, arrays, axis=0):
        return self.cupy.stack(list(arrays), axis=axis)

    def concat(self, arrays, axis=0):
        return self.cupy.concatenate(list(arrays), axis=axis)

    def take(self, x, indices, axis):
        return self.cupy.take(x, indices, axis=axis)

    def take_along_axis(self, x, indices, axis):
        return self.cupy.take_along_axis(x, indices, axis=axis)

    def cumsum(self, x, axis):
        return self.cupy.cumsum(x, axis=axis)

    def argsort(self, x, axis=-1):
        return self.cupy.argsort(x, axis=axis, kind="stable")

    def searchsorted(self, sorted_sequence, values, side="left"):
        return self.cupy.searchsorted(sorted_sequence, values, side=side)

    def einsum(self, subscripts, *operands):
        return self.cupy.einsum(subscripts, *operands)

    def matmul(self, a, b):
        return self.cupy.matmul(a, b)

    def transpose(self, x):
        return self.cupy.swapaxes(x, -2, -1)

    def logsumexp(self, x, axis=None):
        shift = self.cupy.max(x, axis=axis, keepdims=True)
        shift = self.cupy.where(self.cupy.isfinite(shift), shift, 0.0)
        out = self.cupy.log(self.cupy.sum(self.cupy.exp(x - shift),
                                          axis=axis))
        return out + self.cupy.squeeze(shift, axis=axis)

    def exp(self, x):
        return self.cupy.exp(x)

    def log(self, x):
        return self.cupy.log(x)

    def abs(self, x):
        return self.cupy.abs(x)

    def power(self, a, b):
        return self.cupy.power(a, b)

    def where(self, condition, a, b):
        return self.cupy.where(condition, a, b)

    def maximum(self, a, b):
        return self.cupy.maximum(a, b)

    def minimum(self, a, b):
        return self.cupy.minimum(a, b)

    def logical_or(self, a, b):
        return self.cupy.logical_or(a, b)

    def isfinite(self, x):
        return self.cupy.isfinite(x)

    def sum(self, x, axis=None, keepdims=False):
        return self.cupy.sum(x, axis=axis, keepdims=keepdims)

    def max(self, x, axis=None, keepdims=False):
        return self.cupy.max(x, axis=axis, keepdims=keepdims)

    def min(self, x, axis=None, keepdims=False):
        return self.cupy.min(x, axis=axis, keepdims=keepdims)

    def any(self, x, axis=None):
        return self.cupy.any(x, axis=axis)

    def all(self, x, axis=None):
        return self.cupy.all(x, axis=axis)


# -- entry-point-free registry ------------------------------------------------


def _make_numpy() -> ArrayBackend:
    return NumpyBackend()


def _make_array_api_strict() -> ArrayBackend:
    import array_api_strict  # raises ImportError when unavailable

    return ArrayAPIBackend(array_api_strict, name="array_api_strict")


def _make_torch() -> ArrayBackend:
    return TorchBackend()


def _make_cupy() -> ArrayBackend:
    return CupyBackend()


#: name -> zero-argument factory.  Factories raise ``ImportError`` when
#: the underlying library is absent; :func:`get_backend` turns that into
#: an actionable :class:`~repro.exceptions.ValidationError`.
_FACTORIES: dict = {
    "numpy": _make_numpy,
    "array_api_strict": _make_array_api_strict,
    "torch": _make_torch,
    "cupy": _make_cupy,
}

#: Aliases accepted by :func:`get_backend` besides the primary names.
_ALIASES: dict = {"auto": "numpy", "strict": "array_api_strict"}

#: The registered primary backend names (availability not implied; see
#: :func:`available_backends`).
BACKEND_NAMES = tuple(_FACTORIES)

#: Resolved singletons, one per primary name.
_INSTANCES: dict = {}


def register_array_backend(name: str, factory, *,
                           overwrite: bool = False) -> None:
    """Register a zero-argument backend ``factory`` under ``name``.

    The entry-point-free plugin hook: third-party device backends add
    themselves here and every ``backend=`` consumer (``solve``,
    ``solve_many``, ``design_repair``, the CLI) can resolve them by
    name.  The factory may raise ``ImportError`` to signal that its
    library is unavailable at runtime.
    """
    if not name or not isinstance(name, str):
        raise ValidationError("backend name must be a non-empty string")
    if (name in _FACTORIES or name in _ALIASES) and not overwrite:
        raise ValidationError(
            f"backend {name!r} is already registered; pass overwrite=True "
            "to replace it")
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def available_backends() -> tuple:
    """Names of the backends that can actually be constructed right now
    (the optional libraries behind ``torch``/``cupy``/
    ``array_api_strict`` are probed, not assumed).

    >>> "numpy" in available_backends()
    True
    """
    names = []
    for name in _FACTORIES:
        try:
            _resolve_name(name)
        except ValidationError:
            continue
        names.append(name)
    return tuple(names)


def _resolve_name(name: str) -> ArrayBackend:
    if name in _INSTANCES:
        return _INSTANCES[name]
    factory = _FACTORIES[name]
    try:
        instance = factory()
    except ImportError as exc:
        raise ValidationError(
            f"backend {name!r} is registered but not available in this "
            f"environment ({exc}); install it or pick another backend"
        ) from exc
    _INSTANCES[name] = instance
    return instance


def get_backend(spec=None) -> ArrayBackend:
    """Resolve a backend *spec* into an :class:`ArrayBackend`.

    Parameters
    ----------
    spec:
        ``None`` or ``"auto"`` — the numpy reference backend (device
        backends are explicit opt-ins, so default results never change);
        a registered name (``"numpy"``, ``"torch"``, ``"cupy"``,
        ``"array_api_strict"``, or anything added through
        :func:`register_array_backend`); or a ready-made
        :class:`ArrayBackend` instance (returned as-is).

    >>> get_backend("auto").name
    'numpy'
    >>> get_backend(get_backend("numpy")).name
    'numpy'
    """
    if spec is None:
        return _resolve_name("numpy")
    if isinstance(spec, ArrayBackend):
        return spec
    if isinstance(spec, str):
        name = _ALIASES.get(spec, spec)
        if name not in _FACTORIES:
            raise ValidationError(
                f"unknown backend {spec!r}; expected one of "
                f"{tuple(_FACTORIES) + tuple(_ALIASES)} or an ArrayBackend "
                "instance")
        return _resolve_name(name)
    raise ValidationError(
        f"cannot resolve backend spec of type {type(spec).__name__}; pass "
        f"a name from {tuple(_FACTORIES)}, None/'auto', or an ArrayBackend")
