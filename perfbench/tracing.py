"""Span tracing around the calls into each `fuchsian` module.

The tracer wraps every public function of the package modules in the
namespaces that bind it (the defining module, the package, and every
module that imported it with `from .x import f`), plus
`MoebiusMap.__post_init__` as `moebius.construct`. Nothing under `src/`
is edited: the wrappers live only in a process that called `install()`
and are removed by `uninstall()`.

Each span is (name, start, end, parent, request id, failed) and is kept
in flat arrays until the run ends. A layer's self time is the span's
duration minus the time its child spans cover; direct recursion (as in
`cli.to_json`) is folded into the outermost span.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time
from array import array
from collections import defaultdict

# package modules, which are the benchmark's layers (besides `process`)
LAYER_MODULES = (
    "moebius",
    "curves",
    "disk_geometry",
    "group_builder",
    "tessellation",
    "whittaker",
    "cli",
)
ROOT_SPAN = "bench.request"
# functions whose outermost call also counts the bytes of its str result
_BYTE_COUNTED = {"cli.to_json"}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.counters: dict[str, int] = defaultdict(int)
        self.stack = [-1]
        self.request_id = -1
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.request.append(self.request_id)
        self.failed.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, failed: bool) -> None:
        self.end[idx] = time.perf_counter()
        if failed:
            self.failed[idx] = 1
        self.stack.pop()

    # -- request roots ----------------------------------------------------

    def begin_request(self, request_id: int) -> int:
        self.request_id = request_id
        return self._open(self._intern(ROOT_SPAN))

    def end_request(self, idx: int, failed: bool) -> None:
        self._close(idx, failed)
        self.request_id = -1

    def span(self, name: str) -> "_Span":
        return _Span(self, self._intern(name))

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        name_id, stack = self.name_id, self.stack
        count_bytes = name in _BYTE_COUNTED
        counters = self.counters
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and name_id[top] == nid:
                return fn(*args, **kwargs)
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(idx, True)
                raise
            close(idx, False)
            if count_bytes:
                counters[name + ".bytes"] += len(result.encode("utf-8"))
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the layer modules where bound."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("fuchsian")
        modules = {
            layer: importlib.import_module(f"fuchsian.{layer}")
            for layer in LAYER_MODULES
        }
        namespaces = [package, *modules.values()]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is fn:
                            self._restore.append((ns, bound, fn))
                            setattr(ns, bound, wrapper)
        moebius_map = modules["moebius"].MoebiusMap
        original = moebius_map.__dict__["__post_init__"]
        self._restore.append((moebius_map, "__post_init__", original))
        moebius_map.__post_init__ = self.wrap("moebius.construct", original)

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._restore):
            setattr(ns, attr, value)
        self._restore.clear()

    # -- spans from a child process ---------------------------------------

    def dump_child(self, path: str) -> None:
        """Write this process's spans for `adopt` in the parent."""
        doc = {
            "names": self.names,
            "spans": [
                [self.name_id[i], self.start[i], self.end[i],
                 self.parent[i], self.failed[i]]
                for i in range(len(self))
            ],
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def adopt(self, path: str, parent: int) -> None:
        """Append a child's spans under the span `parent` of this tracer.

        Both processes read `time.perf_counter`, which on Linux is the
        system-wide monotonic clock, so the child's times need no shift.
        """
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        remap = [self._intern(n) for n in doc["names"]]
        base = len(self)
        rid = self.request[parent]
        for nid, start, end, par, failed in doc["spans"]:
            self.name_id.append(remap[nid])
            self.parent.append(parent if par < 0 else base + par)
            self.request.append(rid)
            self.start.append(start)
            self.end.append(end)
            self.failed.append(failed)
        for key, value in doc["counters"].items():
            self.counters[key] += value

    # -- results ------------------------------------------------------------

    def summarize(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_ms, failures, failed_ms (self time
        of spans that raised), and total_ms of the request roots."""
        n = len(self)
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        table: dict[str, dict[str, float]] = {}
        for i in range(n):
            if self.request[i] < 0:  # e.g. output checks between requests
                continue
            name = self.names[self.name_id[i]]
            row = table.get(name)
            if row is None:
                row = table[name] = {
                    "calls": 0, "self_ms": 0.0, "total_ms": 0.0,
                    "failures": 0, "failed_ms": 0.0,
                }
            dur = self.end[i] - self.start[i]
            self_ms = (dur - covered[i]) * 1e3
            row["calls"] += 1
            row["self_ms"] += self_ms
            row["total_ms"] += dur * 1e3
            if self.failed[i]:
                row["failures"] += 1
                row["failed_ms"] += self_ms
        return table

    def write(self, path: str) -> None:
        """Write all spans as gzip-compressed tab-separated lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("request\tname\tstart_s\tend_s\tparent\tfailed\n")
            names = self.names
            for i in range(len(self)):
                fh.write(
                    f"{self.request[i]}\t{names[self.name_id[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                    f"{self.parent[i]}\t{self.failed[i]}\n"
                )


class _Span:
    def __init__(self, tracer: Tracer, nid: int) -> None:
        self.tracer, self.nid, self.idx = tracer, nid, -1

    def __enter__(self) -> "_Span":
        self.idx = self.tracer._open(self.nid)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.tracer._close(self.idx, exc_type is not None)
