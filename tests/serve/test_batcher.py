"""Tests for the request-combining batcher."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.exceptions import ValidationError
from repro.serve.batcher import MicroBatcher


def _echo_dispatch(record):
    def dispatch(items):
        record.append(list(items))
        return [item * 10 for item in items]
    return dispatch


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def _start(target, arg) -> threading.Thread:
    # Daemon threads: a submitter stuck by a regression fails its join
    # below instead of keeping the test process alive.
    thread = threading.Thread(target=target, args=(arg,), daemon=True)
    thread.start()
    return thread


def _join_all(threads, timeout=10.0):
    for thread in threads:
        thread.join(timeout=timeout)
        assert not thread.is_alive(), "submitter never returned"


class _Gated:
    """Wraps a dispatch so that its first call blocks until released,
    holding the combining lock while later submitters queue."""

    def __init__(self, dispatch) -> None:
        self.dispatch = dispatch
        self.running = threading.Event()
        self.release = threading.Event()
        self.calls = 0

    def __call__(self, items):
        self.calls += 1
        if self.calls == 1:
            self.running.set()
            assert self.release.wait(timeout=10.0)
        return self.dispatch(items)


def _queue_behind_gate(batcher, gated, submit, items):
    """Start ``submit(items[0])`` as the gated dispatch, then one thread
    per remaining item, each pending before the next starts, so the
    queue holds them oldest first."""
    threads = [_start(submit, items[0])]
    assert gated.running.wait(timeout=5.0)
    for position, item in enumerate(items[1:], start=1):
        threads.append(_start(submit, item))
        _wait_until(lambda: len(batcher._pending) == position)
    return threads


class TestCombining:
    def test_lone_submit_dispatches_on_submitting_thread(self):
        dispatchers = []

        def dispatch(items):
            dispatchers.append(threading.get_ident())
            return [item * 10 for item in items]

        batcher = MicroBatcher(dispatch, max_batch=64)
        assert batcher.submit(7) == 70
        assert dispatchers == [threading.get_ident()]
        stats = batcher.stats()
        assert stats["flushes"] == 1
        assert stats["timeout_flushes"] == 0

    def test_items_queued_behind_a_dispatch_go_out_together(self):
        batches = []
        gated = _Gated(_echo_dispatch(batches))
        batcher = MicroBatcher(gated, max_batch=64)
        results = {}

        def submit(i):
            results[i] = batcher.submit(i)

        threads = _queue_behind_gate(batcher, gated, submit, [0, 1, 2, 3, 4])
        gated.release.set()
        _join_all(threads)
        assert results == {i: i * 10 for i in range(5)}
        assert batches == [[0], [1, 2, 3, 4]]
        stats = batcher.stats()
        assert stats["flushes"] == 2
        assert stats["max_batch_seen"] == 4
        assert stats["size_flushes"] == 0

    def test_cap_drains_oldest_first(self):
        batches = []
        gated = _Gated(_echo_dispatch(batches))
        batcher = MicroBatcher(gated, max_batch=2)
        results = {}

        def submit(i):
            results[i] = batcher.submit(i)

        threads = _queue_behind_gate(batcher, gated, submit, list(range(6)))
        gated.release.set()
        _join_all(threads)
        assert results == {i: i * 10 for i in range(6)}
        assert batches == [[0], [1, 2], [3, 4], [5]]
        stats = batcher.stats()
        assert stats["size_flushes"] == 2
        assert stats["max_batch_seen"] == 2

    def test_stress_every_submitter_gets_its_own_result(self):
        # More threads than cores, switching every microsecond: a lost
        # or crossed slot shows up as a wrong result, a missing item or
        # a submitter that never returns.
        batch_sizes = []

        def dispatch(items):
            batch_sizes.append(len(items))
            # Yield the interpreter lock, as the numpy kernels do, so
            # other submitters queue behind the running dispatch.
            time.sleep(0)
            return [(owner, j, "done") for owner, j in items]

        batcher = MicroBatcher(dispatch, max_batch=8)
        n_threads, per_thread = 16, 200
        wrong = []

        def submitter(owner):
            for j in range(per_thread):
                if batcher.submit((owner, j)) != (owner, j, "done"):
                    wrong.append((owner, j))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [_start(submitter, owner)
                       for owner in range(n_threads)]
            _join_all(threads, timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        stats = batcher.stats()
        assert stats["items"] == n_threads * per_thread
        assert sum(batch_sizes) == n_threads * per_thread
        assert stats["flushes"] == len(batch_sizes)
        assert max(batch_sizes) <= 8


class TestErrorDelivery:
    def test_per_item_exception_raised_in_owner_only(self):
        def dispatch(items):
            return [ValueError(f"bad {item}") if item == 1 else item
                    for item in items]

        batcher = MicroBatcher(dispatch, max_batch=2)
        outcomes = {}

        def submit(i):
            try:
                outcomes[i] = batcher.submit(i)
            except ValueError as exc:
                outcomes[i] = exc

        _join_all([_start(submit, i) for i in range(2)])
        assert outcomes[0] == 0
        assert isinstance(outcomes[1], ValueError)

    def test_dispatch_failure_fails_whole_batch(self):
        def dispatch(items):
            raise RuntimeError("engine down")

        batcher = MicroBatcher(dispatch, max_batch=8)
        with pytest.raises(RuntimeError, match="engine down"):
            batcher.submit(1)

    def test_length_mismatch_detected(self):
        batcher = MicroBatcher(lambda items: [], max_batch=8)
        with pytest.raises(RuntimeError, match="results"):
            batcher.submit(1)

    def test_interrupted_dispatch_resolves_every_owner(self):
        # An interrupt (a BaseException) escaping the dispatch stops the
        # combining thread, but every other owner in that batch still
        # gets an answer instead of waiting forever.
        class Interrupt(BaseException):
            pass

        def dispatch(items):
            if "boom" in items:
                raise Interrupt()
            return list(items)

        gated = _Gated(dispatch)
        batcher = MicroBatcher(gated, max_batch=8)
        outcomes = {}

        def submit(item):
            try:
                outcomes[item] = batcher.submit(item)
            except BaseException as exc:  # recorded, the thread ends
                outcomes[item] = type(exc)

        threads = _queue_behind_gate(batcher, gated, submit,
                                     ["first", "boom", "other"])
        gated.release.set()
        _join_all(threads)
        assert outcomes["first"] == "first"
        assert sorted([outcomes["boom"], outcomes["other"]],
                      key=lambda kind: kind.__name__) \
            == [Interrupt, RuntimeError]


class TestStats:
    def test_mean_batch(self):
        batcher = MicroBatcher(lambda items: list(items), max_batch=8)
        for i in range(3):
            batcher.submit(i)
        stats = batcher.stats()
        assert stats["items"] == 3
        assert stats["flushes"] == 3
        assert stats["mean_batch"] == pytest.approx(1.0)
        assert stats["max_batch"] == 8
        assert stats["timeout_flushes"] == 0


class TestValidation:
    @pytest.mark.parametrize("max_batch", [0, -3, 1.5])
    def test_bad_max_batch(self, max_batch):
        with pytest.raises(ValidationError, match="max_batch"):
            MicroBatcher(lambda items: items, max_batch=max_batch)
