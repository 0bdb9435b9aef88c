"""Outside-in tracing of sparsevote runs, layer by layer.

The simulator looks up its collaborators (``worker_rng``, the compression
operators, the codec, the aggregators, ``update_model``) in its own module
namespace at call time, and calls the task methods through the instance.
Replacing those names with timing wrappers therefore traces every call on
the round path without editing the package.  Spans are keyed by the module
that defines the wrapped function, so a renamed or split function still
counts towards its layer; ``wrapped`` tells which functions were found, so
that a metric whose functions no longer exist can be reported as absent.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter
from time import perf_counter

import numpy as np

# Package modules whose functions the simulator imports by name.
LAYERS = ("rng", "models", "compression", "aggregation", "codec")

# Task methods the simulator calls through the task instance, by role.
TASK_METHODS = {
    "worker_grad": "grad",
    "train_loss": "eval",
    "test_metric": "eval",
    "gbar_l1": "eval",
}

# Span record fields, kept as lists for cheap appends.
CHUNK, ROUND, LAYER, NAME, START, END, CHILD, PARENT = range(8)


class Tracer:
    """Wraps the simulator's collaborators and keeps every call as a span."""

    def __init__(self, simulator):
        self._sim = simulator
        self._patched: list[tuple[object, str, object, bool]] = []
        self._stack: list[int] = []
        self.spans: list[list] = []
        self.chunk = 0
        self.round = 0
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        # Time spent inspecting results, excluded from the simulator's self time.
        self.inspect_s = 0.0
        # Names of the wrapped functions, by layer.
        self.wrapped: dict[str, set[str]] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        sim = self._sim
        package = sim.__name__.rpartition(".")[0]
        for name, obj in list(vars(sim).items()):
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            module = obj.__module__
            if module == sim.__name__:
                if name == "update_model":
                    self._patch(sim, name, "simulator", _next_round)
                continue
            if module.rpartition(".")[0] != package:
                continue
            layer = module.rpartition(".")[2]
            if layer in LAYERS:
                self._patch(sim, name, layer, _INSPECT.get(layer))
        for obj in list(vars(sim).values()):
            if inspect.isclass(obj) and obj.__module__ == sim.__name__ and hasattr(obj, "worker_grad"):
                self._patch(obj, "__init__", "setup", None)
                for method in TASK_METHODS:
                    if hasattr(obj, method):
                        self._patch(obj, method, "models", None)

    def uninstall(self) -> None:
        for owner, name, original, owned in reversed(self._patched):
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def begin_run(self, chunk: int) -> None:
        """Mark the start of one run_experiment call; rounds count from 0."""
        self.chunk = chunk
        self.round = 0

    def _patch(self, owner, name: str, layer: str, after) -> None:
        original = getattr(owner, name)
        owned = name in vars(owner)
        setattr(owner, name, self._wrap(original, layer, name, after))
        self._patched.append((owner, name, original, owned))
        self.wrapped.setdefault(layer, set()).add(name)

    def _wrap(self, fn, layer: str, name: str, after):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            span = [self.chunk, self.round, layer, name, 0.0, 0.0, 0.0, parent]
            spans.append(span)
            stack.append(index)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                self.errors[layer, type(err).__name__] += 1
                raise
            finally:
                span[END] = end = perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent][CHILD] += end - span[START]
            if after is not None:
                t0 = perf_counter()
                after(self, name, args, result)
                self.inspect_s += perf_counter() - t0
            return result

        return traced

    # -- results ----------------------------------------------------------

    def layer_time(self, layer: str, names=None) -> tuple[int, float]:
        """(calls, seconds) of a layer's spans on the round path.

        Only spans whose function name passes ``names`` count.  A span nested
        inside another span of the same layer is part of that span, and a
        span inside the task build is set-up work, so neither counts.
        """
        spans = self.spans

        def counted(s) -> bool:
            if s[LAYER] != layer or (names is not None and not names(s[NAME])):
                return False
            parent = s[PARENT]
            while parent is not None:
                if spans[parent][LAYER] in (layer, "setup"):
                    return False
                parent = spans[parent][PARENT]
            return True

        durations = [s[END] - s[START] for s in spans if counted(s)]
        return len(durations), sum(durations)

    def top_level(self) -> tuple[int, float]:
        """(count, seconds) of the spans not nested in another span."""
        durations = [s[END] - s[START] for s in self.spans if s[PARENT] is None]
        return len(durations), sum(durations)

    def write(self, path) -> None:
        """Write every span as CSV, with its self time (duration minus children)."""
        with open(path, "w") as fh:
            fh.write("chunk,round,layer,function,start_us,dur_us,self_us,parent\n")
            origin = self.spans[0][START] if self.spans else 0.0
            for s in self.spans:
                dur = s[END] - s[START]
                fh.write(
                    f"{s[CHUNK]},{s[ROUND]},{s[LAYER]},{s[NAME]},"
                    f"{(s[START] - origin) * 1e6:.1f},{dur * 1e6:.1f},"
                    f"{(dur - s[CHILD]) * 1e6:.1f},{'' if s[PARENT] is None else s[PARENT]}\n"
                )


def wrapper_cost_s(calls: int = 2000, repeats: int = 7) -> float:
    """Time per call that the wrapper spends outside its span's [START, END].

    That time (building and appending the span, the stack push and pop, the
    parent's child-time update) falls to the caller, so a top-level span adds
    it to the simulator's self time.  Measured on a no-op, wrapped against
    unwrapped; the median of ``repeats`` loops of ``calls`` calls.
    """

    def noop():
        return None

    readings = []
    for _ in range(repeats):
        probe = Tracer(None)
        wrapped = probe._wrap(noop, "probe", "noop", None)
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        plain = perf_counter() - t0
        t0 = perf_counter()
        for _ in range(calls):
            wrapped()
        traced = perf_counter() - t0
        inside = sum(s[END] - s[START] for s in probe.spans)
        readings.append((traced - inside - plain) / calls)
    return max(0.0, sorted(readings)[repeats // 2])


def _first_array_size(args) -> int:
    for a in args:
        if isinstance(a, np.ndarray):
            return int(a.size)
    return 0


def _inspect_compression(tracer: Tracer, name, args, result) -> None:
    tracer.counts["compression.entries"] += _first_array_size(args)


def _inspect_codec(tracer: Tracer, name, args, result) -> None:
    if name.startswith("encode"):
        tracer.counts["codec.encode_bits"] += getattr(result, "bit_len", 0)
    elif name.startswith("decode") and args:
        tracer.counts["codec.decode_bits"] += getattr(args[0], "bit_len", 0)


def _inspect_aggregation(tracer: Tracer, name, args, result) -> None:
    if "vote" not in name:
        return
    union = getattr(result, "union_support", None)
    ternary = getattr(result, "ternary", None)
    if union is None or ternary is None:
        return
    tracer.counts["aggregation.votes"] += 1
    tracer.counts["aggregation.dims"] += int(ternary.size)
    tracer.counts["aggregation.union"] += int(np.size(union))
    tracer.counts["aggregation.decisive"] += int(np.count_nonzero(ternary))


def _next_round(tracer: Tracer, name, args, result) -> None:
    # One model update per round, so the round id is the number of updates.
    tracer.round += 1


_INSPECT = {
    "compression": _inspect_compression,
    "codec": _inspect_codec,
    "aggregation": _inspect_aggregation,
}
