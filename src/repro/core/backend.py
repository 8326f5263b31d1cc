"""The array namespace the vectorised OT kernels are written against.

The batched kernels of the OT layer (the monotone staircase of
:func:`repro.ot.onedim.batched_north_west_corner`, the stacked Sinkhorn
iterations of :mod:`repro.ot.sinkhorn`) are long chains of array
operations with no data-dependent Python control flow.  They call an
:class:`ArrayBackend` (``asarray``, ``cumsum``, ``argsort``,
``take_along_axis``, ``einsum``, ``logsumexp``, ``to_numpy``, ...)
instead of :mod:`numpy` directly.

Backends
--------

``numpy`` (the default)
    Delegates 1:1 to numpy/scipy.  The delegation is chosen so that a
    kernel running on this backend performs **exactly** the operations
    the pre-backend code performed — results are bit-identical.
``array_api_strict`` (optional; the CI conformance namespace)
    :class:`ArrayAPIBackend` over ``array_api_strict``, which implements
    the Python array-API standard and nothing else.  Running the kernel
    tests on it proves the kernels stay inside the standard.

:func:`get_backend` resolves a spec: ``None`` or ``"numpy"``,
``"array_api_strict"``, or a ready-made :class:`ArrayBackend` instance.

>>> nx = get_backend()
>>> nx.name
'numpy'
>>> import numpy as np
>>> bool(np.array_equal(nx.to_numpy(nx.cumsum(nx.asarray([1., 2.]), 0)),
...                     [1., 3.]))
True
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError

__all__ = ["ArrayBackend", "NumpyBackend", "ArrayAPIBackend",
           "get_backend"]


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
    array library.  The test suite also runs it over numpy's main
    namespace, which implements the standard from numpy 2 on.
    Operations the standard lacks (``einsum``, ``logsumexp``,
    ``take_along_axis`` before 2024.12) are emulated from standard
    primitives.
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

    def any(self, x, axis=None):
        return self.xp.any(x, axis=axis)

    def all(self, x, axis=None):
        return self.xp.all(x, axis=axis)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


_NUMPY = NumpyBackend()


def get_backend(spec=None) -> ArrayBackend:
    """Resolve a backend *spec* into an :class:`ArrayBackend`.

    Parameters
    ----------
    spec:
        ``None`` or ``"numpy"`` — the numpy reference backend;
        ``"array_api_strict"`` — :class:`ArrayAPIBackend` over the
        optional ``array_api_strict`` package; or a ready-made
        :class:`ArrayBackend` instance (returned as-is).

    >>> get_backend("numpy").name
    'numpy'
    >>> get_backend(get_backend()) is get_backend()
    True
    """
    if isinstance(spec, ArrayBackend):
        return spec
    if spec is None or spec == "numpy":
        return _NUMPY
    if spec == "array_api_strict":
        try:
            import array_api_strict
        except ImportError as exc:
            raise ValidationError(
                "backend 'array_api_strict' needs the array-api-strict "
                f"package, which is not installed ({exc})") from exc
        return ArrayAPIBackend(array_api_strict, name="array_api_strict")
    raise ValidationError(
        f"unknown backend {spec!r}; expected None, 'numpy', "
        "'array_api_strict' or an ArrayBackend instance")
