"""Tests for the cross-process shared-memory table arena.

The arena's contract: a table keyed the same way is built exactly once
machine-wide — the first caller builds, every other process (and every later
run) attaches to the very same memory — with graceful degradation to
process-private arrays when shared memory is unavailable or opted out.
"""
import gc
import os
import subprocess
import sys
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import table_arena

pytestmark = pytest.mark.skipif(
    not table_arena._SHM_AVAILABLE,
    reason="multiprocessing.shared_memory unavailable")

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


@pytest.fixture(autouse=True)
def _clean_arena():
    """Each test starts from (and leaves behind) an empty arena."""
    table_arena.purge(force=True)
    table_arena.reset_arena_counters()
    yield
    table_arena.purge(force=True)


def _unique_key(label):
    return ("test", label, uuid.uuid4().hex)


def _fill_arange(arrays):
    arrays[0][...] = np.arange(arrays[0].size, dtype=np.int64)


class TestLocalModes(object):
    def test_build_then_rehit(self):
        key = _unique_key("rehit")
        arrays, mode = table_arena.get_or_build(
            key, [((64,), np.int64)], _fill_arange)
        assert mode == "built"
        assert np.array_equal(arrays[0], np.arange(64))
        again, mode = table_arena.get_or_build(
            key, [((64,), np.int64)], _fill_arange)
        assert mode == "rehit"
        assert np.shares_memory(again[0], arrays[0])

    def test_detach_then_attach_preserves_content(self):
        key = _unique_key("attach")
        arrays, mode = table_arena.get_or_build(
            key, [((32,), np.int64), ((32,), np.bool_)], None)
        assert mode == "built"
        arrays[0][...] = 7
        arrays[1][...] = True
        assert table_arena.detach_all() >= 1
        again, mode = table_arena.get_or_build(
            key, [((32,), np.int64), ((32,), np.bool_)], None)
        assert mode == "attached"
        assert int(again[0][5]) == 7 and bool(again[1][5])

    def test_opt_out_env_var(self, monkeypatch):
        monkeypatch.setenv(table_arena.ARENA_ENV, "0")
        assert not table_arena.arena_enabled()
        key = _unique_key("optout")
        arrays, mode = table_arena.get_or_build(
            key, [((16,), np.int64)], _fill_arange)
        assert mode == "local"
        assert np.array_equal(arrays[0], np.arange(16))
        assert table_arena.segment_refcount(key) is None  # nothing shared

    def test_segment_names_are_deterministic_and_short(self):
        key = ("value", "multiplier", "AAM(16)", "right", 1234)
        name = table_arena.segment_name(key)
        assert name == table_arena.segment_name(key)
        assert name != table_arena.segment_name(key + ("x",))
        assert len(name) <= 30  # POSIX shm_open name limit headroom

    def test_stats_and_registry(self):
        key = _unique_key("stats")
        table_arena.get_or_build(key, [((128,), np.int64)], _fill_arange)
        stats = table_arena.arena_stats()
        assert stats["enabled"]
        assert stats["builds"] == 1
        assert stats["open_segments"] >= 1
        assert stats["registry_segments"] >= 1
        assert stats["registry_bytes"] >= 128 * 8

    def test_purge_unlinks_and_prunes(self):
        key = _unique_key("purge")
        table_arena.get_or_build(key, [((16,), np.int64)], None)
        assert table_arena.purge(force=True) >= 1
        assert table_arena.arena_stats()["registry_segments"] == 0
        assert table_arena.segment_refcount(key) is None


class TestInProcessRace(object):
    def test_threads_racing_one_key_share_one_build(self):
        """Threads of one process racing one key get one mapping.

        A losing second handle on the segment would be dropped, and its
        finaliser would unmap the memory under views already handed out.
        """
        key = _unique_key("threads")
        builds = []
        start = threading.Barrier(8)

        def build(arrays):
            builds.append(threading.get_ident())
            time.sleep(0.1)  # widen the race window
            arrays[0][...] = np.arange(arrays[0].size, dtype=np.int64)

        def worker():
            start.wait()
            return table_arena.get_or_build(key, [((4096,), np.int64)],
                                            build)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads more often
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(worker) for _ in range(8)]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        gc.collect()  # would finalise (and unmap) any dropped handle
        assert len(builds) == 1
        assert sorted(mode for _, mode in results) == ["built"] + ["rehit"] * 7
        first = results[0][0][0]
        for arrays, _ in results:
            assert np.shares_memory(arrays[0], first)
            assert np.array_equal(arrays[0], np.arange(4096))


class TestStaleSegments(object):
    def test_dead_builder_segment_is_stolen(self):
        """A segment whose builder died mid-build is unlinked and rebuilt."""
        from multiprocessing import shared_memory

        key = _unique_key("stale")
        name = table_arena.segment_name(key)
        layout, payload = table_arena._array_layout([((16,), np.int64)])
        stale = shared_memory.SharedMemory(
            name=name, create=True, size=table_arena._HEADER_SIZE + payload)
        # Header of an in-flight build: magic + sizes set, ready never flips.
        table_arena._HEADER.pack_into(stale.buf, 0, table_arena._MAGIC, 0, 1,
                                      payload, 0.0)
        arrays, mode = table_arena.get_or_build(
            key, [((16,), np.int64)], _fill_arange, timeout_s=0.05)
        assert mode == "built"
        assert np.array_equal(arrays[0], np.arange(16))
        assert table_arena.arena_stats()["stale_cleaned"] >= 1
        stale.close()

    def test_wrong_layout_segment_is_stolen(self):
        """A ready segment of mismatched size is replaced, not mis-mapped."""
        key = _unique_key("layout")
        arrays, mode = table_arena.get_or_build(key, [((8,), np.int64)], None)
        assert mode == "built"
        table_arena.detach_all()
        bigger, mode = table_arena.get_or_build(
            key, [((1024,), np.int64)], _fill_arange, timeout_s=0.05)
        assert mode == "built"
        assert np.array_equal(bigger[0], np.arange(1024))


class TestCrossProcess(object):
    def _run(self, key, script_tail, check=True):
        script = (
            "import numpy as np\n"
            "from repro.core import table_arena\n"
            f"key = {key!r}\n"
            + script_tail)
        env = dict(os.environ, PYTHONPATH=SRC)
        return subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=check,
                              timeout=120)

    def test_child_attaches_to_parent_build(self):
        key = _unique_key("xproc")
        arrays, mode = table_arena.get_or_build(
            key, [((64,), np.int64)], _fill_arange)
        assert mode == "built"
        result = self._run(key, (
            "arrays, mode = table_arena.get_or_build("
            "key, [((64,), np.int64)])\n"
            "assert np.array_equal(arrays[0], np.arange(64)), 'content'\n"
            "print(mode)\n"))
        assert result.stdout.strip() == "attached"

    def test_parent_attaches_to_child_build_after_child_exit(self):
        """Segments outlive their creator: the whole point of the arena."""
        key = _unique_key("persist")
        self._run(key, (
            "def build(arrays): arrays[0][...] = 42\n"
            "arrays, mode = table_arena.get_or_build("
            "key, [((32,), np.int64)], build)\n"
            "assert mode == 'built', mode\n"))
        arrays, mode = table_arena.get_or_build(key, [((32,), np.int64)])
        assert mode == "attached"
        assert int(arrays[0][0]) == 42

    def test_exit_decrements_refcount_but_keeps_segment(self):
        key = _unique_key("refcount")
        table_arena.get_or_build(key, [((16,), np.int64)], None)
        assert table_arena.segment_refcount(key) == 1
        self._run(key, (
            "arrays, mode = table_arena.get_or_build("
            "key, [((16,), np.int64)])\n"
            "assert mode == 'attached', mode\n"
            "assert table_arena.segment_refcount(key) == 2\n"))
        # The child registered (2) and de-registered at exit (back to 1).
        assert table_arena.segment_refcount(key) == 1

    def test_concurrent_processes_build_exactly_once(self):
        """The attach-or-build race has one winner; everyone gets content."""
        key = _unique_key("race")
        script = (
            "import numpy as np\n"
            "from repro.core import table_arena\n"
            f"key = {key!r}\n"
            "def build(arrays):\n"
            "    import time; time.sleep(0.2)  # widen the race window\n"
            "    arrays[0][...] = np.arange(arrays[0].size, dtype=np.int64)\n"
            "arrays, mode = table_arena.get_or_build("
            "key, [((256,), np.int64)], build)\n"
            "assert np.array_equal(arrays[0], np.arange(256)), 'content'\n"
            "print(mode)\n")
        env = dict(os.environ, PYTHONPATH=SRC)
        procs = [subprocess.Popen([sys.executable, "-c", script], env=env,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
                 for _ in range(4)]
        modes = []
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            modes.append(out.strip())
        assert sorted(modes) == ["attached", "attached", "attached", "built"]


class TestBackendIntegration(object):
    def test_lut_tables_attach_across_processes(self):
        """A second process serves from the first process's sum table."""
        script = (
            "import numpy as np\n"
            "from repro.core import parse_operator\n"
            "from repro.core.backends import LutBackend\n"
            "from repro.core.table_arena import arena_stats\n"
            "op = parse_operator('ADDt(16,10)')\n"
            "a = np.arange(-500, 500, dtype=np.int64)\n"
            "LutBackend().execute(op, a, a[::-1].copy())\n"
            "stats = arena_stats()\n"
            "print('builds', stats['builds'], 'attaches', stats['attaches'])\n")
        env = dict(os.environ, PYTHONPATH=SRC)
        try:
            first = subprocess.run([sys.executable, "-c", script], env=env,
                                   capture_output=True, text=True, check=True,
                                   timeout=120)
            second = subprocess.run([sys.executable, "-c", script], env=env,
                                    capture_output=True, text=True,
                                    check=True, timeout=120)
        finally:
            table_arena.purge(force=True)
        assert first.stdout.strip() == "builds 1 attaches 0"
        assert second.stdout.strip() == "builds 0 attaches 1"
