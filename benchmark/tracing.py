"""Span tracing of opsys layers, installed from outside the program.

Each traced public function is replaced by a wrapper in every namespace that
binds it: opsys uses ``from .x import f``, so patching the defining module
alone would miss most callers.  Methods and constructors are patched on
their class, and the numpy/scipy kernels on the module opsys reaches them
through (opsys calls ``np.linalg.svd``, ``scipy.linalg.null_space`` and
``scipy.optimize.least_squares`` by attribute).

A wrapper records a span (id, parent id, name, start, end) only while a root
span opened by the benchmark is active, so the output checker, which runs
between operations, is never counted.  Spans stay in memory and are written
out once, when the run ends.  Self time is a span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# (metric name, module that defines it, attribute path within that module)
TARGETS = [
    ("systems.hermitian_basis", "opsys.systems", "hermitian_basis"),
    ("systems.from_span", "opsys.systems", "from_span"),
    ("systems.OperatorSystem", "opsys.systems", "OperatorSystem.__init__"),
    ("systems.certify", "opsys.systems", "certify"),
    ("systems.orbit_dim", "opsys.systems", "orbit_dim"),
    ("linalg.span_orthonormalize", "opsys.linalg", "span_orthonormalize"),
    ("linalg.compress_stack", "opsys.linalg", "Projection.compress_stack"),
    ("linalg.svd", "numpy.linalg", "svd"),
    ("linalg.null_space", "scipy.linalg", "null_space"),
    ("linalg.least_squares", "scipy.optimize", "least_squares"),
    ("constructions.anticlique_lowdim", "opsys.constructions", "anticlique_lowdim"),
    ("constructions.rank2_separator", "opsys.constructions", "rank2_separator"),
    ("constructions.two_clique", "opsys.constructions", "two_clique"),
    ("constructions.diagonal_clique_projection", "opsys.constructions", "diagonal_clique_projection"),
    ("constructions.blocks2_clique", "opsys.constructions", "blocks2_clique"),
    ("constructions.blocks_clique", "opsys.constructions", "blocks_clique"),
    ("ramsey.diagonal_route", "opsys.ramsey", "diagonal_route"),
    ("ramsey.phase1_vector_search", "opsys.ramsey", "phase1_vector_search"),
    ("ramsey.find_clique_or_anticlique", "opsys.ramsey", "find_clique_or_anticlique"),
    ("quantum_graphs.is_bimodule", "opsys.quantum_graphs", "is_bimodule"),
    ("quantum_graphs.general_find", "opsys.quantum_graphs", "general_find"),
    ("quantum_graphs.generalized_certify", "opsys.quantum_graphs", "generalized_certify"),
    ("serialize.dumps", "opsys.serialize", "dumps"),
    ("serialize.read_json", "opsys.serialize", "read_json"),
    ("serialize.system_from_json", "opsys.serialize", "system_from_json"),
    ("serialize.qgraph_from_json", "opsys.serialize", "qgraph_from_json"),
    ("cli.main", "opsys.cli", "main"),
]

FIND = "ramsey.find_clique_or_anticlique"
ANTICLIQUE = "constructions.anticlique_lowdim"


class Tracer:
    """Span recorder plus the per-layer counters derived from the spans."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._next_id = 0
        self.reset_stats()

    def reset_stats(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.extra: Counter = Counter()

    def _open(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
            self.calls[name] += 1
            self.self_s[name] += duration - child
        self.spans.append((span_id, parent[0] if parent else 0, name, start, end))

    @contextmanager
    def root(self, name: str):
        """Root span around one benchmark operation (or the set-up)."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def _under(self, name: str) -> bool:
        return any(f[1] == name for f in self._stack)

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            if name == "linalg.svd":
                shape = getattr(args[0], "shape", ())
                if len(shape) >= 2:
                    m, n = shape[-2:]
                    batch = 1
                    for b in shape[:-2]:
                        batch *= b
                    tracer.extra["svd_flops"] += batch * m * n * min(m, n)
            elif name == "linalg.least_squares":
                args, kwargs = tracer._count_residuals(args, kwargs)
                if tracer._under(ANTICLIQUE):
                    tracer.extra["solves_in_anticlique"] += 1
            elif name == "systems.certify" and tracer._under(FIND):
                tracer.extra["certify_in_find"] += 1
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if name == "serialize.dumps":
                tracer.extra["dumps_bytes"] += len(result.encode("utf-8"))
            elif name == ANTICLIQUE:
                tracer.extra["anticlique_certs"] += 1
            return result

        return traced

    def _count_residuals(self, args, kwargs):
        if "fun" in kwargs:
            fun = kwargs.pop("fun")
        else:
            fun, args = args[0], args[1:]
        tracer = self

        def counted(*a, **k):
            tracer.extra["residual_evals"] += 1
            return fun(*a, **k)

        return (counted, *args), kwargs

    def install(self) -> None:
        """Patch every target into every namespace that binds it."""
        for name, module_name, attr in TARGETS:
            __import__(module_name)
            owner = sys.modules[module_name]
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            wrapper = self.wrap(name, original)
            setattr(owner, path[-1], wrapper)
            if len(path) > 1:
                continue  # a method: the class object is shared by every caller
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "opsys" or mod_name.startswith("opsys."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def per_op_metrics(self, ops: int) -> dict:
        """Per-layer metrics, each divided by the number of operations attempted."""
        out: dict[str, dict] = {}

        def put(key: str, value: float, unit: str) -> None:
            out[key] = {"value": value, "unit": unit}

        for name, _, _ in TARGETS:
            put(f"{name}.calls", self.calls[name] / ops, "calls/op")
            put(f"{name}.ms", 1e3 * self.self_s[name] / ops, "ms/op")
        put("linalg.svd.flops", self.extra["svd_flops"] / ops, "computed-flop/op")
        put("linalg.least_squares.residual_evals", self.extra["residual_evals"] / ops, "evals/op")
        put("serialize.dumps.bytes", self.extra["dumps_bytes"] / ops, "B/op")
        finds = self.calls[FIND]
        put("ramsey.certify_per_find", self.extra["certify_in_find"] / finds if finds else 0.0, "calls/find")
        certs = self.extra["anticlique_certs"]
        put(
            "constructions.anticlique_lowdim.solves_per_cert",
            self.extra["solves_in_anticlique"] / certs if certs else 0.0,
            "solves/cert",
        )
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name", "start_s", "end_s"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
