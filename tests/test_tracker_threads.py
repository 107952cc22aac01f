"""The active-query tracker under threads: admission never lets more
than ``max_concurrent`` queries run, a queued query is admitted when a
slot frees, and every record ends up done exactly once."""

from __future__ import annotations

import sys
import threading
import time

from repro.obs.query import ActiveQueryTracker

WORKERS = 8
QUERIES_EACH = 40
SLOTS = 2


def test_slots_hold_under_contention():
    tracker = ActiveQueryTracker(max_concurrent=SLOTS, queue_timeout=30.0, done_capacity=16)
    lock = threading.Lock()
    running = [0]
    peak = [0]
    errors: list[BaseException] = []

    def worker(n: int) -> None:
        try:
            for i in range(QUERIES_EACH):
                with tracker.track(f"q{n}-{i}") as record:
                    assert record.state == "running"
                    with lock:
                        running[0] += 1
                        peak[0] = max(peak[0], running[0])
                    time.sleep(0.0002)
                    with lock:
                        running[0] -= 1
        except BaseException as exc:  # reported below, not lost in the thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(WORKERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert peak[0] == SLOTS  # contended, and never over the limit
    assert tracker.queries_tracked == WORKERS * QUERIES_EACH
    assert tracker.queue_timeouts == 0
    assert tracker.active() == []
    recent = tracker.recent()
    assert len(recent) == 16 and all(r.state == "done" for r in recent)
    assert len({r.id for r in recent}) == 16
