"""Request combining for concurrent repair requests.

A burst of single-row HTTP requests would naively cost one vectorised
dispatch *each*; since Algorithm 2's per-cell kernel is element-wise,
requests that are in flight together can share one dispatch per
``(u, s, k)`` cell instead.  :class:`MicroBatcher` merges them by flat
combining (Hendler et al., SPAA 2010), with no timer and no background
thread: whichever submitter holds the combining lock dispatches the
oldest pending items, up to ``max_batch`` of them, on behalf of their
owners.

A submitter on an idle server takes the free lock at once and
dispatches its lone item in its own thread, so it never waits for
companions.  Requests that arrive while a dispatch is running queue up
behind the lock, and the next holder takes them together: merging
happens exactly when there is contention.  Every holder dispatches at
least the oldest pending item, and a submitter leaves only once its own
item is done, so nothing stays pending without an owner about to
dispatch it.
"""

from __future__ import annotations

import threading

from ..exceptions import ValidationError

__all__ = ["MicroBatcher"]


class _Slot:
    """One submitted item's result mailbox."""

    __slots__ = ("event", "result", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result = None
        self.error = None


class MicroBatcher:
    """Group concurrent ``submit`` calls into shared ``dispatch`` calls.

    Parameters
    ----------
    dispatch:
        ``dispatch(items) -> results`` with ``len(results) ==
        len(items)``, element ``i`` being item ``i``'s result.  A result
        that is an :class:`Exception` is raised in that item's
        submitting thread (per-item failure isolation); a ``dispatch``
        that itself raises fails every item of the batch.
    max_batch:
        Cap on the items one dispatch carries.
    """

    def __init__(self, dispatch, *, max_batch: int = 32) -> None:
        if not isinstance(max_batch, int) or max_batch < 1:
            raise ValidationError(
                f"max_batch must be a positive int, got {max_batch!r}")
        self._dispatch = dispatch
        self.max_batch = max_batch
        self._lock = threading.Lock()        # guards _pending + counters
        self._combining = threading.Lock()   # held for each dispatch
        self._pending: list = []
        self.n_items = 0
        self.n_flushes = 0
        self.n_size_flushes = 0
        self.max_batch_seen = 0

    def submit(self, item):
        """Dispatch ``item``, merged with whatever queued behind the
        running dispatch; blocks until its result.

        Raises the item's per-result exception, if any.
        """
        slot = _Slot()
        with self._lock:
            self._pending.append((item, slot))
        while not slot.event.is_set():
            with self._combining:
                # A holder before us may already have served our item.
                if slot.event.is_set():
                    break
                with self._lock:
                    batch = self._pending[:self.max_batch]
                    del self._pending[:self.max_batch]
                    self.n_flushes += 1
                    self.n_items += len(batch)
                    if len(batch) == self.max_batch:
                        self.n_size_flushes += 1
                    self.max_batch_seen = max(self.max_batch_seen,
                                              len(batch))
                self._run(batch)
        if slot.error is not None:
            raise slot.error
        return slot.result

    def _run(self, batch: list) -> None:
        """Dispatch a drained batch and resolve every slot in it — even
        when the dispatch is interrupted, so no owner is left waiting."""
        results = [RuntimeError("dispatch was interrupted")] * len(batch)
        try:
            results = self._dispatch([item for item, _ in batch])
            if len(results) != len(batch):
                raise RuntimeError(
                    f"dispatch returned {len(results)} results for "
                    f"{len(batch)} items")
        except Exception as exc:
            results = [exc] * len(batch)
        finally:
            for (_, slot), result in zip(batch, results):
                if isinstance(result, Exception):
                    slot.error = result
                else:
                    slot.result = result
                slot.event.set()

    def stats(self) -> dict:
        """Dispatch counters for the ``/stats`` endpoint.

        ``size_flushes`` counts dispatches that hit the ``max_batch``
        cap; ``timeout_flushes`` is always 0, since no dispatch waits on
        a timer (the key stays for readers of the old counters).
        """
        with self._lock:
            mean = (self.n_items / self.n_flushes) if self.n_flushes else 0.0
            return {"items": self.n_items, "flushes": self.n_flushes,
                    "size_flushes": self.n_size_flushes,
                    "timeout_flushes": 0,
                    "max_batch_seen": self.max_batch_seen,
                    "mean_batch": mean,
                    "max_batch": self.max_batch}
