"""Streaming access to archival data ("torrents").

The paper's motivating regime is an archive far larger than the research
set, possibly observed online.  :class:`ArchiveStream` models that: it
yields :class:`~repro.data.dataset.FairnessDataset` batches either from a
materialised archive (chunked into read-only views, so no row is copied)
or from a generator callable (unbounded simulation of a live feed).  The
repair pipeline consumes batches one at a time, so peak memory is bounded
by the batch size regardless of archive cardinality.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

import numpy as np

from .._validation import check_positive_int
from ..exceptions import ValidationError
from .dataset import FairnessDataset

__all__ = ["ArchiveStream", "stream_batches"]


def _read_only(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


def stream_batches(dataset: FairnessDataset,
                   batch_size: int) -> Iterator[FairnessDataset]:
    """Yield contiguous row batches of ``dataset`` of size ``batch_size``.

    The final batch may be smaller; order is preserved so repaired batches
    can be re-assembled positionally.  Each batch is a read-only view of
    the rows of ``dataset``, which was validated when it was built: no
    row is copied or checked again, and a write through a batch raises.
    """
    batch_size = check_positive_int(batch_size, name="batch_size")
    y = dataset.y
    for start in range(0, len(dataset), batch_size):
        rows = slice(start, start + batch_size)
        yield FairnessDataset._trusted(
            _read_only(dataset.features[rows]), _read_only(dataset.s[rows]),
            _read_only(dataset.u[rows]),
            None if y is None else _read_only(y[rows]), dataset.schema)


class ArchiveStream:
    """An iterable source of archival batches.

    Parameters
    ----------
    source:
        Either a :class:`FairnessDataset` (streamed in chunks) or a
        zero-argument callable returning a fresh batch per call (an
        unbounded feed).
    batch_size:
        Chunk size when the source is a materialised dataset.
    max_batches:
        Stop after this many batches; mandatory for callable sources (the
        feed is otherwise infinite).
    """

    def __init__(self, source, *, batch_size: int = 1024,
                 max_batches: int | None = None) -> None:
        self._batch_size = check_positive_int(batch_size, name="batch_size")
        if max_batches is not None:
            max_batches = check_positive_int(max_batches, name="max_batches")
        self._max_batches = max_batches
        if isinstance(source, FairnessDataset):
            self._dataset: FairnessDataset | None = source
            self._generator: Callable[[], FairnessDataset] | None = None
        elif callable(source):
            if max_batches is None:
                raise ValidationError(
                    "callable sources are unbounded; pass max_batches")
            self._dataset = None
            self._generator = source
        else:
            raise ValidationError(
                "source must be a FairnessDataset or a callable, got "
                f"{type(source).__name__}")

    @property
    def batch_size(self) -> int:
        return self._batch_size

    def __iter__(self) -> Iterator[FairnessDataset]:
        if self._dataset is not None:
            count = 0
            for batch in stream_batches(self._dataset, self._batch_size):
                if (self._max_batches is not None
                        and count >= self._max_batches):
                    return
                count += 1
                yield batch
            return
        assert self._generator is not None
        for _ in range(self._max_batches):
            batch = self._generator()
            if not isinstance(batch, FairnessDataset):
                raise ValidationError(
                    "stream callable must return FairnessDataset batches")
            yield batch
