"""Span tracing around the public functions of the diatomic modules.

The tracer measures each layer from outside: it replaces a function with a
timing wrapper under every ``diatomic`` module name that binds it (for
example ``stern_pair`` is bound in ``_backend``, ``sdi`` and ``assembly``),
and wraps ``__init__`` for the two value classes.  Nothing inside the
library changes; ``restore`` puts every original object back.

A span is (id, parent id, layer, start, end, operation id).  A layer's self
time is its span's duration minus the time its direct child spans cover;
calls are single-threaded and strictly nested, so the children of a span
never overlap.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter

from diatomic import _backend
from diatomic.design import PeriodicDesign


class LayerStats:
    __slots__ = ("calls", "self_s", "bits", "max_bits")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.bits = 0
        self.max_bits = 0


class Tracer:
    """Wraps layer entry points, aggregates per-layer stats and keeps spans.

    ``record`` switches on keeping every span in memory (aggregation runs
    regardless); ``op_id`` tags spans with the operation that caused them.
    """

    def __init__(self):
        self.names: list[str] = []
        self.stats: list[LayerStats] = []
        self.record = False
        self.op_id = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        # span columns, appended when a span ends
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_layer = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_op = array("q")

    def _layer(self, name: str) -> int:
        self.names.append(name)
        self.stats.append(LayerStats())
        return len(self.names) - 1

    def _wrapper(self, layer: int, fn, size=None):
        stack = self._stack
        st = self.stats[layer]
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                st.calls += 1
                st.self_s += dur - frame[0]
                if tracer.record:
                    tracer.span_id.append(sid)
                    tracer.span_parent.append(parent)
                    tracer.span_layer.append(layer)
                    tracer.span_start.append(t0)
                    tracer.span_end.append(t1)
                    tracer.span_op.append(tracer.op_id)
            if size is not None:
                b = size(args, result)
                st.bits += b
                if b > st.max_bits:
                    st.max_bits = b
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_function(self, name: str, fn, size=None) -> None:
        """Replace fn under every diatomic module attribute bound to it."""
        wrapper = self._wrapper(self._layer(name), fn, size)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "diatomic" or mod_name.startswith("diatomic.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def wrap_init(self, name: str, cls) -> None:
        """Trace construction (and so normalisation) of a value class."""
        orig = cls.__init__
        self._patched.append((cls, "__init__", orig))
        cls.__init__ = self._wrapper(self._layer(name), orig)

    def root(self, name: str):
        """A wrapper for a benchmark operation: the root span of its layer calls."""
        return self._wrapper(self._layer(name), lambda fn: fn())

    def restore(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def span_count(self) -> int:
        return len(self.span_id)

    def spans_json(self) -> dict:
        """Columnar span dump; times are perf_counter seconds."""
        return {
            "layers": self.names,
            "columns": ["id", "parent", "layer", "start", "end", "op"],
            "id": self.span_id.tolist(),
            "parent": self.span_parent.tolist(),
            "layer": self.span_layer.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "op": self.span_op.tolist(),
        }


# ------------------------------------------------------------------ layers

KERNEL_BITS = {
    # summed operand bit length of one call
    "stern_pair": lambda args, result: args[0].bit_length(),
    "word_matrix": lambda args, result: len(args[0]),
    "matrix_word": lambda args, result: sum(x.bit_length() for x in args),
    "continuant_pair": lambda args, result: sum(k.bit_length() for k in args[0]),
}

FUNCTION_LAYERS = (
    ("sdi", "sdi_quadruple"),
    ("design", "design_of_theta"),
    ("design", "make_periodic"),
    ("quadratic", "quad_from_period"),
    ("quadratic", "quad_of_periodic"),
    ("quadratic", "sqrt_cf"),
    ("assembly", "assembly_dyadic"),
    ("assembly", "assembly_of_rational_theta"),
    ("assembly", "assembly_enclose"),
    ("matrix", "sdm"),
    ("matrix", "design_of_matrix"),
    ("continuant", "continuant"),
    ("derivative", "quotient_scan"),
)

CLASS_LAYERS = (
    ("quadratic", "FieldElement"),
    ("rational", "ExtRational"),
)


def _period_bits(args, result) -> int:
    return len(result.period.bits) if isinstance(result, PeriodicDesign) else 0


def install_layers(tracer: Tracer) -> None:
    """Wrap the four kernels and every public entry point listed above."""
    for name, size in KERNEL_BITS.items():
        tracer.wrap_function(f"kernels.{name}", getattr(_backend, name), size)
    for mod_name, name in FUNCTION_LAYERS:
        mod = importlib.import_module(f"diatomic.{mod_name}")
        size = _period_bits if mod_name == "design" else None
        tracer.wrap_function(f"{mod_name}.{name}", getattr(mod, name), size)
    for mod_name, name in CLASS_LAYERS:
        mod = importlib.import_module(f"diatomic.{mod_name}")
        tracer.wrap_init(f"{mod_name}.{name}", getattr(mod, name))
