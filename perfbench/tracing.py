"""Spans around the program's calls, recorded from outside the program.

``Tracer.patched`` replaces module attributes with wrappers that record a span
per call and restores the originals on exit. This reaches calls made inside
the program because its modules look these names up at call time.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter

REQUEST = "request"


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.request_id: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span: name, start, end, parent index and request id."""
        record = {
            "name": name,
            "start": perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "request": self.request_id,
            "failed": False,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        except BaseException:
            record["failed"] = True
            raise
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if counter is not None:
                    record.update(counter(args, result))
                return result

        return traced

    @contextmanager
    def patched(self, points):
        """Wrap each ``(module, attribute, span name, counter)`` for the block.

        ``counter(args, result)`` returns extra counts to store on the span.
        """
        saved = []
        try:
            for module, attr, name, counter in points:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover (seconds)."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict], layers, extras) -> dict[str, float]:
    """Per-layer calls, self time, share of request time and failed calls.

    ``extras`` maps a layer to the span counts summed under its name, such as
    ``{"circuit.io": ["bytes"]}``. Also returns ``trace.coverage``, the share
    of request time that the layer spans account for.
    """
    own = self_times(spans)
    request_s = sum(s["end"] - s["start"] for s in spans if s["name"] == REQUEST)
    out: dict[str, float] = {}
    covered = 0.0
    for layer in layers:
        mine = [i for i, s in enumerate(spans) if s["name"] == layer]
        self_s = sum(own[i] for i in mine)
        covered += self_s
        out[f"{layer}.calls"] = len(mine)
        out[f"{layer}.self_ms"] = 1e3 * self_s
        out[f"{layer}.share"] = self_s / request_s if request_s else 0.0
        out[f"{layer}.failed"] = sum(1 for i in mine if spans[i]["failed"])
        for key in extras.get(layer, ()):
            out[f"{layer}.{key}"] = sum(spans[i].get(key, 0) for i in mine)
    out["trace.coverage"] = covered / request_s if request_s else 0.0
    return out
