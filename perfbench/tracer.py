"""Wall-clock spans around the program's layer boundaries.

The program's own telemetry runs on the simulated clock, so it cannot
say where wall time goes. For a traced run the benchmark wraps the
public functions of each layer in :func:`time.perf_counter` spans. A
span records its name, start, end and parent (the innermost wrapped
call that was active when it began). Spans are held in flat arrays and
written out when the run ends; per-name call counts, inclusive time and
self time (duration minus the time covered by child spans) are summed
as spans close, so the summary costs nothing extra at the end.

A function that other modules bound at import time (``from m import f``)
is replaced in every loaded module that holds it, because that is
where the call looks it up.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from contextlib import contextmanager
from hashlib import blake2b
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.self_s: list[float] = []
        #: Open spans, innermost last: [time covered by children, span index].
        self.stack: list[list] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.incl.append(0.0)
            self.self_s.append(0.0)
        return nid

    def _open(self, nid: int) -> list:
        index = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1][1] if self.stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [0.0, index]
        self.stack.append(frame)
        return frame

    def _close(self, nid: int, frame: list, start: float, end: float) -> None:
        self.stack.pop()
        duration = end - start
        index = frame[1]
        self.span_start[index] = start
        self.span_end[index] = end
        self.calls[nid] += 1
        self.incl[nid] += duration
        self.self_s[nid] += duration - frame[0]
        if self.stack:
            self.stack[-1][0] += duration

    @contextmanager
    def span(self, name: str):
        nid = self._id(name)
        frame = self._open(nid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(nid, frame, start, time.perf_counter())

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self._id(name)
        open_, close, clock = self._open, self._close, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = open_(nid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(nid, frame, start, clock())

        return traced

    def wrap_iter(self, name: str, fn):
        """``fn`` returns an iterator; each ``next`` on it becomes a span."""
        nid = self._id(name)
        open_, close, clock = self._open, self._close, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                frame = open_(nid)
                start = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    close(nid, frame, start, clock())
                yield item

        return traced

    # ------------------------------------------------------------ patching

    def patch_method(self, owner: type, attr: str, name: str, wrap=None) -> None:
        """Replace ``owner.attr`` (a plain, class or static method)."""
        wrap = wrap or self.wrap
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(wrap(name, raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(wrap(name, raw.__func__))
        else:
            replacement = wrap(name, raw)
        setattr(owner, attr, replacement)

    def patch_function(self, module, attr: str, name: str, wrap=None) -> None:
        """Replace ``module.attr`` wherever a loaded module bound it."""
        wrap = wrap or self.wrap
        original = getattr(module, attr)
        replacement = wrap(name, original)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, attr, None) is original:
                setattr(loaded, attr, replacement)

    # ------------------------------------------------------------- results

    def summary(self) -> dict[str, dict[str, float]]:
        return {
            name: {
                "calls": self.calls[nid],
                "incl_s": self.incl[nid],
                "self_s": self.self_s[nid],
            }
            for nid, name in enumerate(self.names)
        }

    def covered_by_children(self, parent_names: set[str]) -> float:
        """Wall time of spans whose parent span is named in ``parent_names``."""
        parent_ids = {self._ids[name] for name in parent_names if name in self._ids}
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        total = 0.0
        for index in range(len(names)):
            parent = parents[index]
            if parent >= 0 and names[parent] in parent_ids:
                total += ends[index] - starts[index]
        return total

    def write(self, directory: Path) -> None:
        """Spans as raw arrays plus a JSON index naming their columns."""
        directory.mkdir(parents=True, exist_ok=True)
        for column in ("span_name", "span_parent", "span_start", "span_end"):
            with open(directory / f"{column}.bin", "wb") as handle:
                getattr(self, column).tofile(handle)
        (directory / "spans.json").write_text(
            json.dumps(
                {
                    "names": self.names,
                    "spans": len(self.span_name),
                    "columns": {
                        "span_name": "int32 index into names",
                        "span_parent": "int32 span index, -1 at the root",
                        "span_start": "float64 perf_counter seconds",
                        "span_end": "float64 perf_counter seconds",
                    },
                    "summary": self.summary(),
                },
                indent=1,
                sort_keys=True,
            )
        )


class DistinctImages:
    """Counts distinct screenshot contents passed to a hash function."""

    def __init__(self) -> None:
        self.seen: set[bytes] = set()

    def wrap(self, tracer: Tracer):
        def wrap(name, fn):
            traced = tracer.wrap(name, fn)

            @functools.wraps(fn)
            def counting(image, *args, **kwargs):
                digest = blake2b(image.tobytes(), digest_size=16)
                digest.update(repr((image.shape, str(image.dtype))).encode())
                self.seen.add(digest.digest())
                return traced(image, *args, **kwargs)

            return counting

        return wrap


class FirstListings:
    """Counts lookups that are the first to find a domain listed."""

    def __init__(self) -> None:
        self.listed: set[str] = set()
        self.useful = 0

    def wrap(self, tracer: Tracer):
        def wrap(name, fn):
            traced = tracer.wrap(name, fn)

            @functools.wraps(fn)
            def counting(gsb, domain, *args, **kwargs):
                listed = traced(gsb, domain, *args, **kwargs)
                if listed and domain not in self.listed:
                    self.listed.add(domain)
                    self.useful += 1
                return listed

            return counting

        return wrap
