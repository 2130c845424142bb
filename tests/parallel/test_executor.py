"""Tests for the order-preserving thread pool."""

import threading
import time

import pytest

from repro.parallel import BatchExecutor, validate_workers


class TestConstruction:
    def test_rejects_serial_width(self):
        with pytest.raises(ValueError):
            BatchExecutor(1)
        with pytest.raises(ValueError):
            BatchExecutor(0)

    @pytest.mark.parametrize("pool_cls", [BatchExecutor])
    @pytest.mark.parametrize("workers", [1, 0, -3])
    def test_both_executors_share_the_rejection_message(
        self, pool_cls, workers
    ):
        # One validator, one message: the pool and the standalone
        # check read the same.
        expected = f"batch executor needs workers >= 2, got {workers}"
        with pytest.raises(ValueError, match=expected):
            pool_cls(workers)
        with pytest.raises(ValueError, match=expected):
            validate_workers(workers)

    def test_context_manager_shutdown_idempotent(self):
        with BatchExecutor(2) as pool:
            pool.run(lambda x: x, [1, 2])
        pool.shutdown()  # second shutdown is a no-op
        assert pool.tasks == 2


class TestRun:
    def test_results_in_submission_order(self):
        # Earlier items sleep longer, so completion order is reversed;
        # the results must still come back in submission order.
        with BatchExecutor(4) as pool:
            delays = [0.05, 0.03, 0.01, 0.0]

            def work(i):
                time.sleep(delays[i])
                return i * 10

            assert pool.run(work, [0, 1, 2, 3]) == [0, 10, 20, 30]

    def test_single_item_runs_inline(self):
        with BatchExecutor(2) as pool:
            caller = threading.current_thread().name
            seen = []
            pool.run(lambda x: seen.append(threading.current_thread().name), [1])
            assert seen == [caller]
            # Inline batches bypass the pool accounting entirely.
            assert pool.tasks == 0
            assert pool.batches == 0

    def test_multi_item_uses_worker_threads(self):
        with BatchExecutor(2) as pool:
            names = pool.run(lambda x: threading.current_thread().name, [1, 2])
            assert all(n.startswith("repro-route") for n in names)
            assert pool.tasks == 2
            assert pool.batches == 1

    def test_worker_exception_propagates(self):
        def boom(x):
            if x == 2:
                raise RuntimeError("net exploded")
            return x

        with BatchExecutor(2) as pool, pytest.raises(
            RuntimeError, match="net exploded"
        ):
            pool.run(boom, [1, 2, 3])


class TestOnTaskHook:
    def test_called_on_calling_thread_in_submission_order(self):
        calls = []
        caller = threading.current_thread().name

        def on_task(index, busy):
            calls.append((index, busy, threading.current_thread().name))

        with BatchExecutor(4, on_task=on_task) as pool:
            delays = [0.03, 0.0, 0.02, 0.01]
            pool.run(lambda i: time.sleep(delays[i]), [0, 1, 2, 3])
        # Submission order, regardless of completion order.
        assert [c[0] for c in calls] == [0, 1, 2, 3]
        assert all(c[2] == caller for c in calls)
        assert all(c[1] >= 0.0 for c in calls)

    def test_global_index_continues_across_batches(self):
        indices = []
        with BatchExecutor(2, on_task=lambda i, b: indices.append(i)) as pool:
            pool.run(lambda x: x, [1, 2, 3])
            pool.run(lambda x: x, [4, 5])
        assert indices == [0, 1, 2, 3, 4]

    def test_inline_single_item_batches_bypass_hook(self):
        calls = []
        with BatchExecutor(2, on_task=lambda i, b: calls.append(i)) as pool:
            pool.run(lambda x: x, [1])
            pool.run(lambda x: x, [2, 3])
        # The width-1 batch bypassed the pool and the hook alike; the
        # pooled batch still numbers its tasks from zero.
        assert calls == [0, 1]

    def test_default_is_no_hook(self):
        with BatchExecutor(2) as pool:
            assert pool.on_task is None
            assert pool.run(lambda x: x + 1, [1, 2]) == [2, 3]


class TestAccounting:
    def test_utilization_bounds(self):
        pool = BatchExecutor(2)
        assert pool.utilization() == 0.0  # nothing pooled yet
        with pool:
            pool.run(lambda x: time.sleep(0.01), [1, 2, 3, 4])
        assert 0.0 < pool.utilization() <= 1.0

    def test_busy_and_capacity_accumulate(self):
        with BatchExecutor(2) as pool:
            pool.run(lambda x: time.sleep(0.005), [1, 2])
            first_busy = pool.busy_seconds
            first_capacity = pool.capacity_seconds
            pool.run(lambda x: time.sleep(0.005), [1, 2])
        assert pool.busy_seconds > first_busy
        assert pool.capacity_seconds > first_capacity
        assert pool.tasks == 4
        assert pool.batches == 2
