"""Outside-in span tracer: times the program's layers from the benchmark.

Nothing under ``src/`` knows about this module. :func:`install` replaces
selected public functions and methods of the ``repro`` packages with
wrappers that record, per call:

* a span ``(span_id, name_index, start, end, parent_id)``;
* the call's self time: its duration minus the time covered by the
  wrapped calls nested inside it;
* a call count.

Self time and counts are accumulated as calls return, so memory stays
flat however many calls a run makes. Spans are kept in memory only when
they last at least ``keep_spans_over`` seconds; a span always lasts at
least as long as any span nested in it, so the kept spans still form a
closed tree (every kept span's parent is kept too).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: One recorded span: (span_id, name_index, start, end, parent_id),
#: with parent_id -1 for a span with no wrapped caller.
Span = Tuple[int, int, float, float, int]


class Tracer:
    """Per-name self time, call counts and long spans of wrapped calls."""

    def __init__(
        self,
        names: Sequence[str],
        clock: Callable[[], float] = time.perf_counter,
        keep_spans_over: float = 1e-3,
    ) -> None:
        self.names: List[str] = list(names)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.clock = clock
        self.keep_spans_over = keep_spans_over
        self.self_s: List[float] = [0.0] * len(self.names)
        self.calls: List[int] = [0] * len(self.names)
        self.spans: List[Span] = []
        #: Open calls, innermost last: [span_id, seconds covered by
        #: wrapped calls nested in it].
        self._stack: List[List[Any]] = []
        self._next_id = 0

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable:
        """A wrapper around ``fn`` that records its calls under ``name``.

        ``on_result`` sees every return value (for counters such as
        rounds or failed requests); it runs after the span closes, so its
        own cost is charged to the caller, not to ``name``.
        """
        index = self.index[name]
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        spans = self.spans
        clock = self.clock
        keep = self.keep_spans_over
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[index] += duration - frame[1]
                calls[index] += 1
                if stack:
                    stack[-1][1] += duration
                if duration >= keep:
                    spans.append((span_id, index, start, end, parent))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def totals(self) -> Dict[str, Tuple[float, int]]:
        """name -> (self seconds, calls) so far."""
        return {
            name: (self.self_s[i], self.calls[i])
            for i, name in enumerate(self.names)
        }


def _resolve(module_name: str, qualname: str) -> Tuple[Any, str, Any]:
    """(owner, attribute, raw attribute) for ``module:Qual.name``."""
    owner: Any = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attribute = parts[-1]
    if isinstance(owner, type):
        raw = owner.__dict__[attribute]
    else:
        raw = getattr(owner, attribute)
    return owner, attribute, raw


def install(
    tracer: Tracer,
    targets: Sequence[Tuple[str, str, str]],
    on_result: Optional[Dict[str, Callable[[Any], None]]] = None,
) -> Callable[[], None]:
    """Wrap every ``(name, module, qualname)`` target; returns an undo.

    A module-level function is also rebound in every loaded ``repro``
    module that imported it by name (``from m import f``), so callers
    that bound it at import time reach the wrapper too. Class methods,
    static methods and plain methods are wrapped on the class, which
    every instance shares.
    """
    hooks = on_result or {}
    undo: List[Tuple[Any, str, Any]] = []
    for name, module_name, qualname in targets:
        owner, attribute, raw = _resolve(module_name, qualname)
        hook = hooks.get(qualname)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(tracer.wrap(name, raw.__func__, hook))
        else:
            wrapped = tracer.wrap(name, raw, hook)
        undo.append((owner, attribute, raw))
        setattr(owner, attribute, wrapped)
        if isinstance(owner, type):
            continue
        for module in list(sys.modules.values()):
            if (
                module is not owner
                and getattr(module, "__name__", "").startswith("repro")
                and getattr(module, attribute, None) is raw
            ):
                undo.append((module, attribute, raw))
                setattr(module, attribute, wrapped)

    def uninstall() -> None:
        for owner, attribute, raw in reversed(undo):
            setattr(owner, attribute, raw)

    return uninstall
