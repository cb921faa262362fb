"""In-memory spans around the calls the benchmark makes into each layer.

A ``Tracer`` replaces a public function at the module attribute where its
caller looks it up (``mcsearch.dominance.solve_lp`` is the name
``dominates`` calls), so the program's own files stay untouched.  Each span
records its name, start, end, parent span, operation id and a small note
taken from the arguments or the result.  Spans stay in memory until
``write`` puts them out as JSON lines.
"""
from __future__ import annotations

import functools
import json
from time import perf_counter
from typing import Any, Callable

# span fields: name, start, end, parent index (-1 at the top), op id, note
NAME, START, END, PARENT, OP, NOTE = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op_id, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, note: Any = None) -> None:
        span = self.spans[index]
        span[END] = perf_counter()
        span[NOTE] = note
        self._stack.pop()

    def wrap(
        self,
        module: Any,
        attr: str,
        name: str,
        note: Callable[[tuple, dict, Any], Any] | None = None,
    ) -> None:
        """Replace ``module.attr`` by a function that records one span per call.

        ``note(args, kwargs, result)`` is stored with the span; a call that
        raises is noted as ``{"error": <exception type>}`` and re-raised.
        """
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer.close(index, {"error": type(exc).__name__})
                raise
            tracer.close(index, note(args, kwargs, result) if note else None)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def unwrap(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def durations(self) -> tuple[list[float], list[float]]:
        """Per-span duration and self time (duration minus the time its
        direct children cover; children never overlap in one thread)."""
        dur = [s[END] - s[START] for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "op": s[OP], "note": s[NOTE],
                }, separators=(",", ":")) + "\n")
