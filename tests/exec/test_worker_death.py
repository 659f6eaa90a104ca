"""A pool worker killed mid-life must not poison its executor.

SIGKILL one worker of a warm ``ShardedExecutor`` pool (what the OOM
killer does): the parse that finds the pool broken raises a typed
:class:`~repro.errors.ExecutorError`, the very next parse on the same
executor succeeds on a fresh pool, and no shared-memory segment leaks.
"""

import os
import signal
import time
from multiprocessing import shared_memory
from pathlib import Path

import pytest

from repro.core.parser import ParPaRawParser
from repro.errors import ExecutorError, ReproError
from repro.exec import ShardedExecutor
from repro.serve.service import IngestService, ServiceConfig

DATA = b"id,name,score\n" + b"".join(
    b"%d,item-%d,%d.5\n" % (i, i, i) for i in range(400))
SHM = Path("/dev/shm")


@pytest.fixture()
def created_segments(monkeypatch):
    """Names of the shared-memory segments this process creates."""
    names: list[str] = []

    class Recording(shared_memory.SharedMemory):
        def __init__(self, *args, create=False, **kwargs):
            super().__init__(*args, create=create, **kwargs)
            if create:
                names.append(self.name)

    monkeypatch.setattr(shared_memory, "SharedMemory", Recording)
    return names


def assert_no_leak(names: list[str]) -> None:
    assert names, "the parses never published their input"
    leaked = [name for name in names
              if (SHM / name.lstrip("/")).exists()]
    assert not leaked, f"shared-memory segments leaked: {leaked}"


def kill_one_worker(executor: ShardedExecutor) -> None:
    """SIGKILL one pool worker and wait until the pool notices."""
    pool = executor._pool
    assert pool is not None, "the pool must be warm"
    pid = next(iter(pool._processes))
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while not pool._broken:
        assert time.monotonic() < deadline, "pool never noticed the kill"
        time.sleep(0.05)


def test_killed_worker_fails_one_parse_then_recovers(created_segments):
    with ShardedExecutor(workers=2, use_processes=True) as executor:
        parser = ParPaRawParser(executor=executor)
        expected = parser.parse(DATA).table.to_pylist()
        kill_one_worker(executor)

        with pytest.raises(ExecutorError, match="worker died") as info:
            parser.parse(DATA)
        assert isinstance(info.value, ReproError)
        assert info.value.phase == "contexts"
        assert info.value.shard == 0
        assert executor._pool is None, "the broken pool must be discarded"

        assert parser.parse(DATA).table.to_pylist() == expected
        assert parser.parse(DATA).table.to_pylist() == expected
    assert_no_leak(created_segments)


def test_service_survives_a_killed_worker(created_segments):
    """The ingest service shares one executor across requests: one dead
    worker fails one request, not every later one."""
    with IngestService(ServiceConfig(workers=2)) as service:
        expected = service.parse(DATA).table.to_pylist()
        kill_one_worker(service._executor)
        with pytest.raises(ExecutorError, match="worker died"):
            service.parse(DATA)
        assert service.parse(DATA).table.to_pylist() == expected
        assert service.status()["requests"]["failed"] == 1
    assert_no_leak(created_segments)
