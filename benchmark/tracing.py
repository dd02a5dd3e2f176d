"""In-memory spans around the calls between cfqp's modules.

The benchmark does not edit the program. It replaces, for the length of
a traced round, the names that one cfqp module imported from another
(for example ``cfqp.oracle.solve_active_set``) with a wrapper that
records a span: name, start, end and the index of the span that was
open when it started. A layer's self time is the duration of its spans
minus the part covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List

#: (module whose binding is replaced, attribute, span name).  A function
#: imported into several modules is wrapped at each binding so that every
#: call path into it is seen; internal calls through a module's own global
#: (``batch_forward`` -> ``forward``) are caught by patching that global.
PATCH_SITES = (
    ("cfqp.cli", "batch_forward", "model.batch_forward"),
    ("cfqp.cli", "deserialize", "model.deserialize"),
    ("cfqp.cli", "serialize", "model.serialize"),
    ("cfqp.cli", "forward", "model.forward"),
    ("cfqp.cli", "kkt_report", "oracle.kkt_report"),
    ("cfqp.cli", "brute_force_solve", "oracle.brute_force_solve"),
    ("cfqp.cli", "discover", "discovery.discover"),
    ("cfqp.cli", "feasible_extent", "discovery.feasible_extent"),
    ("cfqp.dcopf", "build_dcopf", "dcopf.build"),
    ("cfqp.dcopf", "build_dcopf_with_lines", "dcopf.build"),
    ("cfqp.dcopf", "scaled_dataset", "dcopf.scaled_dataset"),
    ("cfqp.dcopf", "is_feasible", "oracle.is_feasible"),
    ("cfqp.discovery", "init_model", "model.init_model"),
    ("cfqp.discovery", "expand", "model.expand"),
    ("cfqp.discovery", "forward", "model.forward"),
    ("cfqp.discovery", "locate_region", "model.locate_region"),
    ("cfqp.discovery", "brute_force_solve", "oracle.brute_force_solve"),
    ("cfqp.discovery", "is_feasible", "oracle.is_feasible"),
    ("cfqp.discovery", "kkt_report", "oracle.kkt_report"),
    ("cfqp.model", "forward", "model.forward"),
    ("cfqp.model", "region_slopes", "core.region_slopes"),
    ("cfqp.model", "factorize", "core.factorize"),
    ("cfqp.oracle", "brute_force_solve", "oracle.brute_force_solve"),
    ("cfqp.oracle", "kkt_report", "oracle.kkt_report"),
    ("cfqp.oracle", "solve_active_set", "core.solve_active_set"),
)


def plain_call(name: str, fn: Callable, *args, **kwargs):
    """The untraced counterpart of :meth:`Tracer.call`."""
    return fn(*args, **kwargs)


class Tracer:
    """Spans kept in memory; written out once, when the run ends."""

    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent index or -1]
        self.raised: Dict[str, int] = defaultdict(int)
        self._open: List[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.raised[name] += 1
            raise
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Route the cross-module calls of the imported cfqp through spans."""
        saved = []
        try:
            for module_name, attr, name in PATCH_SITES:
                module = sys.modules[module_name]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.spans, dict(self.raised))

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": names,
                    "spans": [[code[n], s, e, p] for n, s, e, p in self.spans],
                    "raised": self.raised,
                },
                fh,
                separators=(",", ":"),
            )


class SpanSummary:
    """Calls, total time and self time per span name."""

    def __init__(self, spans: List[list], raised: Dict[str, int]):
        self.spans = spans
        self.raised = raised
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.root_total = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_time[name] += (end - start) - covered[i]
            if parent < 0:
                self.root_total += end - start

    def count(self, name: str, parent: str = None, ancestor: str = None) -> int:
        """Spans called ``name`` whose direct parent, or any ancestor, has
        the given name."""
        n = 0
        for span_name, _, _, p in self.spans:
            if span_name != name:
                continue
            if parent is not None:
                if p < 0 or self.spans[p][0] != parent:
                    continue
            if ancestor is not None:
                while p >= 0 and self.spans[p][0] != ancestor:
                    p = self.spans[p][3]
                if p < 0:
                    continue
            n += 1
        return n

    def module_self(self, module: str) -> float:
        return sum(t for name, t in self.self_time.items()
                   if name.split(".", 1)[0] == module)
