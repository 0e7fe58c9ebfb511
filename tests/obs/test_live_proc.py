"""Process runtime collector: the GC pause hook."""

import gc
import threading

from repro.obs.live import proc


def test_collection_inside_a_pause_snapshot_does_not_deadlock():
    """A collection can start while the scraping thread holds the pause
    histogram's lock (any allocation in ``snapshot()`` may trigger one);
    the hook then runs on that same thread and must not wait for it."""
    was_tracking = proc._gc_callback in gc.callbacks
    proc.track_gc(True)
    hist = proc.gc_pauses()
    before = hist.snapshot().count

    def scrape_while_collecting():
        with hist._lock:
            gc.collect()

    worker = threading.Thread(target=scrape_while_collecting, daemon=True)
    worker.start()
    worker.join(timeout=10.0)
    try:
        assert not worker.is_alive(), "GC hook deadlocked on the pause lock"
        assert proc.gc_pauses().snapshot().count > before
    finally:
        proc.track_gc(was_tracking)
