"""Spans around calls into the layers of ``ifslab``, recorded from outside
the package.

The tracer replaces a fixed set of public functions (plus the CLI's JSON
writer) with wrappers, in every ``ifslab`` module that holds a reference to
them, so calls between modules are caught as well as the benchmark's own.
Each span is (name, start, end, parent, job, items), where ``items`` counts
what the call returned (array elements or list entries); spans stay in
memory until ``write`` is called.

A layer's self time is the time inside its spans that no nested span
covers.  The itemised spans (``ITEMISED``) have metrics of their own and are
counted as children of the span that called them, not as self time, so
``certificate.self_ms`` is what ``certify`` spends outside condition (iii)
and ``verify_chain``, and ``cli.self_ms`` is the command minus every traced
call it makes (what is left is argument parsing, rasterization and circle
drawing).
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

LAYERS = ("cli", "paramspace", "ifs", "certificate", "series", "numerics", "landmarks")

#: (module, function) pairs wrapped while tracing.
TRACED = (
    ("cli", "main"),
    ("cli", "write_ppm"),
    ("cli", "grid_to_rgb"),
    ("cli", "_write_json"),
    ("paramspace", "escape_grid"),
    ("paramspace", "membership"),
    ("ifs", "level_nodes"),
    ("ifs", "attractor_sample"),
    ("certificate", "certify"),
    ("certificate", "condition_instar_separation"),
    ("certificate", "verify_chain"),
    ("certificate", "report_to_dict"),
    ("series", "numerator_polynomial"),
    ("numerics", "newton_root"),
    ("landmarks", "run_suite"),
)

ITEMISED = frozenset({
    "cli.write_ppm", "cli.grid_to_rgb", "cli._write_json",
    "certificate.condition_instar_separation", "certificate.verify_chain",
    "certificate.report_to_dict",
})


def _size(result) -> int:
    """Items a traced call returned: array elements or list entries."""
    size = getattr(result, "size", None)
    if isinstance(size, int):
        return size
    return len(result) if isinstance(result, list) else 0


class Tracer:
    """In-memory span recorder.  ``job`` labels the spans opened while it is
    set; ``install`` and ``uninstall`` add and remove the wrappers."""

    def __init__(self):
        self.spans: list = []
        self.job: str | None = None
        self._stack: list[int] = []
        self._patches: list = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (name, start, end, parent, self.job, _size(result))

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"ifslab.{m}") for m in LAYERS]
        for layer, attr in TRACED:
            owner = importlib.import_module(f"ifslab.{layer}")
            original = getattr(owner, attr)
            wrapper = self.wrap(f"{layer}.{attr}", original)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        """One JSON object per line, in the order spans were opened."""
        with open(path, "w", encoding="ascii") as fh:
            for sid, (name, start, end, parent, job, size) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "job": job, "items": size,
                }) + "\n")


def summarize(spans, jobs: set) -> dict:
    """Totals per span name over the spans of the given jobs, plus self time
    per layer.  Returns {"ms": {name: ms}, "calls": {name: n},
    "items": {name: n}, "self_ms": {layer: ms}}."""
    ms = defaultdict(float)
    calls = defaultdict(int)
    items = defaultdict(int)
    child_ms = defaultdict(float)
    for name, start, end, parent, job, size in spans:
        if job not in jobs:
            continue
        dur = (end - start) * 1e3
        ms[name] += dur
        calls[name] += 1
        items[name] += size
        if parent is not None:
            child_ms[parent] += dur
    self_ms = {layer: 0.0 for layer in LAYERS}
    for sid, (name, start, end, parent, job, size) in enumerate(spans):
        if job not in jobs or name in ITEMISED:
            continue
        layer = name.split(".", 1)[0]
        if layer in self_ms:
            self_ms[layer] += (end - start) * 1e3 - child_ms[sid]
    return {"ms": dict(ms), "calls": dict(calls), "items": dict(items),
            "self_ms": self_ms}
