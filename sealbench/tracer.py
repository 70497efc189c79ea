"""Timing wrappers installed on the module attributes between layers.

Each hook replaces one attribute (a module function or a class method)
through which one layer calls the next, and `restore()` puts the
original back. Calls made once per reading are aggregated into
counters so memory stays bounded; calls made once per chunk or per
request are also kept as spans with their parent span. A layer's self
time is its call time minus the time of the traced calls made inside
it. A hook whose target no longer exists marks its layer absent.
"""

from __future__ import annotations

import importlib
import time

COUNTER = "counter"
SPAN = "span"
GENERATOR = "generator"

# (layer, module, class or None, attribute, kind). A layer may have
# several hooks when callers reach it through different module names.
HOOKS = (
    ("harness.generate", "sensorseal.harness", None, "generate", GENERATOR),
    ("crypto.open_sealed", "sensorseal.crypto", "KeyPair", "open_sealed", COUNTER),
    ("events.decode_wire_reading", "sensorseal.sealing", None, "decode_wire_reading", COUNTER),
    ("rules.evaluate_state", "sensorseal.sealing", None, "evaluate_state", COUNTER),
    ("sealing.seal_append", "sensorseal.sealing", None, "seal_append", COUNTER),
    ("sealing.submit_reading", "sensorseal.sealing", "Sealer", "submit_reading", COUNTER),
    ("sealing.close_chunk", "sensorseal.sealing", None, "close_chunk", SPAN),
    ("store.serialize_chunk", "sensorseal.store", None, "serialize_chunk", SPAN),
    ("store.put_sealed_chunk", "sensorseal.store", "ChunkStore", "put_sealed_chunk", SPAN),
    ("store.get_auditor_bundle", "sensorseal.store", "ChunkStore", "get_auditor_bundle", SPAN),
    ("store.parse_chunk", "sensorseal.verify", None, "parse_chunk", SPAN),
    ("store.parse_chunk", "sensorseal.store", None, "parse_chunk", SPAN),
    ("verify.audit_chunk", "sensorseal.verify", None, "audit_chunk", SPAN),
    ("crypto.verify", "sensorseal.verify", None, "verify", SPAN),
    ("store.derive_user_records", "sensorseal.store", None, "derive_user_records", SPAN),
    ("store.get_user_bundle", "sensorseal.store", "ChunkStore", "get_user_bundle", SPAN),
    ("store.write_bundle_file", "sensorseal.store", None, "write_bundle_file", SPAN),
    ("verify.verify_user_range", "sensorseal.verify", None, "verify_user_range", SPAN),
    ("verify.verify_user_chunk", "sensorseal.verify", None, "verify_user_chunk", SPAN),
)

LAYERS = tuple(dict.fromkeys(h[0] for h in HOOKS))

# name suffix, unit
LAYER_METRICS = (("calls", "count"), ("self_s", "s"), ("share", "ratio"), ("us_per_item", "us"))


class Tracer:
    """Collects per-layer counters and per-chunk spans while installed."""

    def __init__(self):
        # layer -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = {layer: [0, 0.0, 0.0] for layer in LAYERS}
        # (layer, start, end, parent span id or None, enclosing layer or None)
        self.spans: list[tuple | None] = []
        self.absent: set[str] = set()
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        present: set[str] = set()
        for layer, module_name, class_name, attr, kind in HOOKS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original, kind))
            present.add(layer)
        self.absent = set(LAYERS) - present

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer: str, fn, kind: str):
        stats = self.stats[layer]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def enter():
            parent = stack[-1] if stack else None
            # frame: child seconds, nearest span id, layer
            frame = [0.0, parent[1] if parent else None, layer]
            if kind == SPAN:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            return parent, frame

        def leave(parent, frame, start):
            elapsed = clock() - start
            stack.pop()
            stats[0] += 1
            stats[1] += elapsed
            stats[2] += elapsed - frame[0]
            if parent is not None:
                parent[0] += elapsed
            if kind == SPAN:
                spans[frame[1]] = (layer, start, start + elapsed,
                                   parent[1] if parent else None,
                                   parent[2] if parent else None)

        if kind == GENERATOR:
            def traced_generator(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    parent, frame = enter()
                    start = clock()
                    try:
                        item = next(items)
                    except StopIteration:
                        stack.pop()
                        return
                    except BaseException:
                        stack.pop()
                        raise
                    leave(parent, frame, start)
                    yield item
            return traced_generator

        def traced(*args, **kwargs):
            parent, frame = enter()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(parent, frame, start)
        return traced

    def metrics(self, traced_wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer calls, self time, share of `traced_wall_s` and µs per call."""
        out = {}
        for layer in LAYERS:
            calls, _, self_s = self.stats[layer]
            values = {
                "calls": calls,
                "self_s": self_s,
                "share": self_s / traced_wall_s if traced_wall_s > 0 else 0.0,
                "us_per_item": 1e6 * self_s / calls if calls else 0.0,
            }
            for suffix, unit in LAYER_METRICS:
                out[f"{layer}.{suffix}"] = (values[suffix], unit)
        return out

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "layer": s[0], "start": s[1], "end": s[2], "parent": s[3], "in": s[4]}
            for i, s in enumerate(self.spans) if s is not None
        ]
