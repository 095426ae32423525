"""Unit tests for the benchmarks' RW-lock comparator (``rwlock.py``)."""

import threading
import time

from rwlock import RWLock


class TestRWLock:
    def test_readers_share(self):
        lock = RWLock()
        both_in = threading.Barrier(2, timeout=5)

        def reader():
            with lock.read():
                both_in.wait()  # only passes if both hold it at once

        threads = [threading.Thread(target=reader) for __ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_readers(self):
        lock = RWLock()
        order = []
        writer_in = threading.Event()

        def writer():
            with lock.write():
                writer_in.set()
                order.append("write-start")
                order.append("write-end")

        def reader():
            writer_in.wait(timeout=5)
            with lock.read():
                order.append("read")

        w, r = threading.Thread(target=writer), threading.Thread(
            target=reader
        )
        w.start(), r.start()
        w.join(timeout=5), r.join(timeout=5)
        assert order == ["write-start", "write-end", "read"]

    def test_writer_preference_blocks_new_readers(self):
        lock = RWLock()
        lock.acquire_read()
        write_done = threading.Event()

        def writer():
            with lock.write():
                write_done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        # A waiting writer parks new readers behind it.
        import time

        time.sleep(0.05)
        assert not write_done.is_set()
        lock.release_read()
        thread.join(timeout=5)
        assert write_done.is_set()


class TestRWLockFairness:
    def test_counters_track_acquisitions(self):
        lock = RWLock()
        with lock.read():
            pass
        with lock.write():
            pass
        assert lock.read_acquisitions == 1
        assert lock.write_acquisitions == 1

    def test_read_streak_triggers_a_fairness_yield(self):
        lock = RWLock(fairness_bound=4, yield_s=0.001)
        held = threading.Event()
        release = threading.Event()

        def holder():
            with lock.read():
                held.set()
                release.wait(timeout=5)

        thread = threading.Thread(target=holder)
        thread.start()
        assert held.wait(timeout=5)
        # Build an unbroken admission streak past the bound while a
        # reader is still inside; the bound must fire and be counted.
        for __ in range(6):
            with lock.read():
                pass
        assert lock.fairness_yields >= 1
        release.set()
        thread.join()

    def test_write_resets_the_streak(self):
        lock = RWLock(fairness_bound=4, yield_s=0.001)
        for __ in range(3):
            with lock.read():
                pass
        with lock.write():
            pass
        assert lock._read_streak == 0

    def test_writer_completes_under_continuous_read_stream(self):
        """The degraded-mode regression: a writer queued behind an
        unbroken stream of admitted reads must still get in."""
        lock = RWLock(fairness_bound=8, yield_s=0.0005)
        stop = threading.Event()
        wrote = threading.Event()

        def reader():
            while not stop.is_set():
                with lock.read():
                    time.sleep(0.0002)

        readers = [
            threading.Thread(target=reader, daemon=True)
            for __ in range(4)
        ]
        for thread in readers:
            thread.start()
        time.sleep(0.02)  # the read stream is in full swing

        def writer():
            with lock.write():
                wrote.set()

        pen = threading.Thread(target=writer, daemon=True)
        pen.start()
        finished = wrote.wait(timeout=5)
        stop.set()
        pen.join(timeout=5)
        for thread in readers:
            thread.join(timeout=5)
        assert finished, "writer starved behind the read stream"
