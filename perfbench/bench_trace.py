"""Spans recorded from outside the program, around its public entry points.

:class:`Tracer` replaces chosen functions and methods of the ``repro``
package with wrappers that record one :class:`Span` per call (name,
start, end, parent span, thread) and restores the originals on
:meth:`Tracer.uninstall`.  Spans stay in memory; :meth:`Tracer.
chrome_trace` turns them into Chrome trace-event JSON, which Perfetto
(ui.perfetto.dev) and ``chrome://tracing`` open without an install.

Nothing here changes what the program computes: a wrapper calls the
original with the same arguments and returns its result unchanged.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: ``annotate(span, result, args, kwargs)`` copies counts from a wrapped
#: call's arguments or result onto its span.
Annotate = Callable[["Span", Any, tuple, dict], None]


@dataclass
class Span:
    name: str
    start: float
    end: float
    sid: int
    parent: Optional[int]
    thread: str
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.origin = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, **args: Any):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        span = Span(
            name=name,
            start=time.perf_counter(),
            end=0.0,
            sid=sid,
            parent=stack[-1].sid if stack else None,
            thread=threading.current_thread().name,
            args=dict(args),
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def _wrapper(self, original, name: str, annotate: Optional[Annotate]):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                result = original(*args, **kwargs)
                if annotate is not None:
                    annotate(span, result, args, kwargs)
                return result

        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_function(
        self, func, name: str, annotate: Optional[Annotate] = None
    ) -> None:
        """Wrap ``func`` under every name a loaded ``repro`` module binds
        it to (``from x import f`` copies the binding, so one module
        attribute is not enough)."""
        wrapper = self._wrapper(func, name, annotate)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._patch(module, attr, wrapper)

    def wrap_method(
        self, cls: type, attr: str, name: str,
        annotate: Optional[Annotate] = None,
    ) -> None:
        self._patch(cls, attr, self._wrapper(cls.__dict__[attr], name, annotate))

    def wrap_overrides(self, base: type, attr: str, name: str) -> None:
        """Wrap ``attr`` on ``base`` and on every loaded subclass that
        defines its own (each backend overrides ``run_stage``)."""
        seen = set()
        todo = [base]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            if attr in cls.__dict__:
                self.wrap_method(cls, attr, name)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def within(
        self, start: float, end: float, thread: Optional[str] = None
    ) -> List[Span]:
        """Spans that began inside ``[start, end]`` (on ``thread``)."""
        return [
            s for s in self.spans
            if start <= s.start <= end and (thread is None or s.thread == thread)
        ]

    def chrome_trace(self) -> Dict[str, Any]:
        """Chrome trace-event JSON (complete events, microseconds)."""
        tids: Dict[str, int] = {}
        events: List[Dict[str, Any]] = []
        for s in sorted(self.spans, key=lambda s: s.start):
            tid = tids.setdefault(s.thread, len(tids) + 1)
            events.append({
                "name": s.name,
                "ph": "X",
                "ts": (s.start - self.origin) * 1e6,
                "dur": s.duration * 1e6,
                "pid": 1,
                "tid": tid,
                "args": {**s.args, "id": s.sid, "parent": s.parent},
            })
        for thread, tid in tids.items():
            events.append({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                "args": {"name": thread},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def outermost(spans: Iterable[Span], name: str) -> List[Span]:
    """Spans called ``name`` with no ancestor of the same name (a scoped
    executor's ``run_stage`` calls its base's; count the stage once)."""
    spans = list(spans)
    by_id = {s.sid: s for s in spans}
    out = []
    for s in spans:
        if s.name != name:
            continue
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != name:
            parent = by_id.get(parent.parent)
        if parent is None:
            out.append(s)
    return out


def covered_share(parent: Span, children: Iterable[Span]) -> float:
    """Share of ``parent``'s wall time inside the union of ``children``."""
    intervals = sorted(
        (max(c.start, parent.start), min(c.end, parent.end)) for c in children
    )
    covered = 0.0
    cursor = parent.start
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered / parent.duration if parent.duration > 0 else 0.0
