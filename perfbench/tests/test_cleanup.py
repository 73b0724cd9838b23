"""A run stops and reaps every process it started, orphans included."""

import os
import subprocess
from multiprocessing import resource_tracker, shared_memory

import run


def alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_stop_children_reaps_children_orphans_and_the_resource_tracker():
    run.become_subreaper()
    child = subprocess.Popen(["sleep", "60"])
    # The shell exits at once; its background sleep is orphaned.
    orphan = int(subprocess.run(["sh", "-c", "sleep 60 >/dev/null 2>&1 & echo $!"],
                                capture_output=True, text=True, check=True).stdout)
    segment = shared_memory.SharedMemory(create=True, size=64)
    segment.close()
    segment.unlink()
    tracker = resource_tracker._resource_tracker._pid
    assert tracker is not None and alive(tracker)

    run.stop_children(timeout=5.0)

    assert run.child_pids() == []
    assert not alive(child.pid) and not alive(orphan) and not alive(tracker)
    child.returncode = -1  # reaped by stop_children, not by Popen
