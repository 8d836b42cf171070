"""Resident-memory readings of benchmark processes, from ``/proc``."""

from __future__ import annotations

import os
import threading


def _children_of() -> dict[int, list[int]]:
    children: dict[int, list[int]] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(b")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    return children


def tree_rss_bytes(pid: int) -> int:
    """Resident bytes of ``pid`` and all its descendants right now."""
    page = os.sysconf("SC_PAGE_SIZE")
    children = _children_of()
    total, stack = 0, [pid]
    while stack:
        current = stack.pop()
        try:
            with open(f"/proc/{current}/statm", "rb") as handle:
                total += int(handle.read().split()[1]) * page
        except OSError:
            pass
        stack.extend(children.get(current, ()))
    return total


class PeakSampler(threading.Thread):
    """High-water resident memory of a process tree, sampled at 10 Hz."""

    def __init__(self, pid: int) -> None:
        super().__init__(daemon=True)
        self.pid = pid
        self.peak = 0
        self._done = threading.Event()

    def run(self) -> None:
        while not self._done.wait(0.1):
            self.peak = max(self.peak, tree_rss_bytes(self.pid))

    def stop(self) -> None:
        self._done.set()
        if self.is_alive():
            self.join()


def vm_hwm_bytes(pid: int) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")
