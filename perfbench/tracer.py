"""Span tracing from outside the program, and the traced-server launcher.

The program under test is not instrumented.  A :class:`Tracer` replaces
public callables of each layer with wrappers that record one span per
call: ``[name, start, end, parent, request_id, extra]``.  Times are
``time.monotonic()`` seconds (CLOCK_MONOTONIC, one clock for every
process on the host), so spans written by the server line up with the
load generator's own timestamps.  Spans stay in memory and are written
out once, when the traced program ends.

Run as a script, this module is the traced server launcher::

    python3 perfbench/tracer.py --spans OUT.json -- --references 16384 ...

It installs the serving-layer wrappers, then calls
``repro.serve.__main__.main`` with the arguments after ``--``.
"""

from __future__ import annotations

import argparse
import contextvars
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Callable, Optional

NAME, START, END, PARENT, RID, EXTRA = range(6)

#: The request a coroutine is serving (set where the request is decoded).
current_request: contextvars.ContextVar = contextvars.ContextVar(
    "current_request", default=None
)


class Tracer:
    """An in-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: Optional[int], extra=None) -> int:
        """Start a span now; returns its index."""
        span = [name, time.monotonic(), None, parent, current_request.get(), extra]
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    def close(self, index: int) -> None:
        """End the span ``index`` now."""
        self.spans[index][END] = time.monotonic()

    def call(self, name: str, fn: Callable, args, kwargs, extra=None, on_open=None):
        """Run ``fn`` inside a span nested under this thread's open span."""
        stack = self._stack()
        index = self.open(name, stack[-1] if stack else None, extra)
        if on_open is not None:
            on_open(index)
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            self.close(index)

    def wrap(self, fn: Callable, name: str, extra: Optional[Callable] = None) -> Callable:
        """A traced stand-in for ``fn``; ``extra(*args)`` annotates the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            note = extra(*args, **kwargs) if extra is not None else None
            return self.call(name, fn, args, kwargs, note)

        return traced

    # -- installing -----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, module: str, attr: str, name: str, extra=None) -> None:
        """Wrap ``module.attr`` in every loaded ``repro`` module that imported it."""
        original = getattr(importlib.import_module(module), attr)
        traced = self.wrap(original, name, extra)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "repro" and getattr(mod, attr, None) is original:
                self._set(mod, attr, traced)

    def patch_method(self, cls, attr: str, name: str, extra=None) -> None:
        """Wrap a method on its class."""
        self._set(cls, attr, self.wrap(getattr(cls, attr), name, extra))

    def uninstall(self) -> None:
        """Put back every patched attribute (most recent first)."""
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def install_core(self) -> None:
        """Executor, backend-selection and SoA-packing wrappers."""
        for module in (
            "repro.core.soa_exec",
            "repro.core.compiled",
            "repro.kernels.treejoin",
            "repro.kernels.matmul",
        ):
            importlib.import_module(module)
        from repro.core.schedules import Schedule

        self.patch_method(
            Schedule, "run", "core.run",
            extra=lambda schedule, spec, *a, **k: {"spec": spec.name,
                                                    "schedule": schedule.name},
        )
        self.patch_function("repro.core.backend_select", "choose_backend",
                            "backend_select.choose")
        self.patch_function("repro.spaces.soa", "soa_view", "soa.pack")

    def install_serve(self) -> None:
        """Serving-layer wrappers (protocol, batcher, service, shards, trees)."""
        serve_main = importlib.import_module("repro.serve.__main__")
        from repro.serve.batcher import AdmissionBatcher
        from repro.serve.protocol import group_key
        from repro.serve.service import QueryService

        self.install_core()
        self.patch_function("repro.dualtree.kdtree", "build_kdtree", "service.build_kdtree")
        self.patch_function("repro.serve.shards", "gather_columns", "shards.gather")
        counter = itertools.count()
        decode = self.wrap(
            importlib.import_module("repro.serve.protocol").decode_query,
            "protocol.decode",
        )

        def decode_query(payload):
            current_request.set(next(counter))
            return decode(payload)

        self._set(serve_main, "decode_query", decode_query)
        self.patch_function("repro.serve.protocol", "encode_result", "protocol.encode")

        tick_of: dict[int, int] = {}
        execute_batch = QueryService.execute_batch

        def traced_execute(service, queries):
            kinds: dict[str, int] = {}
            for query in queries:
                kind = group_key(query)[0]
                kinds[kind] = kinds.get(kind, 0) + 1
            opened: list[int] = []
            results = self.call("service.tick", execute_batch, (service, queries), {},
                                {"kinds": kinds}, on_open=opened.append)
            for result in results:
                tick_of[id(result)] = opened[0]
            return results

        self._set(QueryService, "execute_batch", traced_execute)
        submit = AdmissionBatcher.submit

        async def traced_submit(batcher, query):
            # Coroutines interleave on the loop thread, so this span has
            # no parent; it links to the tick that answered it instead.
            index = self.open("batcher.submit", None)
            try:
                result = await submit(batcher, query)
            finally:
                self.close(index)
            self.spans[index][EXTRA] = {"tick": tick_of.get(id(result))}
            return result

        self._set(AdmissionBatcher, "submit", traced_submit)

    def dump(self, path: str) -> None:
        """Write every span as JSON (a span still open has ``end`` null)."""
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


# ---------------------------------------------------------------------------
# Span arithmetic


def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals."""
    total = 0.0
    cover_start = cover_end = None
    for start, end in sorted(intervals):
        if cover_end is None or start > cover_end:
            if cover_end is not None:
                total += cover_end - cover_start
            cover_start, cover_end = start, end
        else:
            cover_end = max(cover_end, end)
    if cover_end is not None:
        total += cover_end - cover_start
    return total


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    A span's children are the spans whose ``parent`` is its index; the
    covered part is the union of their intervals clipped to the span.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span[PARENT]
        if parent is not None and span[END] is not None:
            children.setdefault(parent, []).append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        if end is None:
            out.append(0.0)
            continue
        covered = union_length(
            (max(start, s), min(end, e))
            for s, e in children.get(index, ())
            if min(end, e) > max(start, s)
        )
        out.append((end - start) - covered)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans")
    parser.add_argument("server_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    server_args = args.server_args
    if server_args and server_args[0] == "--":
        server_args = server_args[1:]
    tracer = Tracer()
    tracer.install_serve()
    from repro.serve.__main__ import main as serve_main

    try:
        return serve_main(server_args)
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
