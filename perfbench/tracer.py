"""Span recorder for the traced benchmark run.

The library has no tracing of its own, so the benchmark wraps its public
functions at module-attribute level: ``setattr(module, name, wrapper)``.
A function reached through ``from .x import y`` is bound in two modules,
so both bindings are listed in ``TARGETS``; otherwise the calls made
through the second binding would be missed.

Each span records (name, start, end, parent span, operation id, attrs).
Spans stay in memory and are written out when the run ends.  A span's
self time is its duration minus the part covered by its direct children;
spans nest strictly because the benchmark is a single-threaded closed
loop, so the self times of one operation add up to its root span.
"""

from __future__ import annotations

import importlib
import time

NAME, T0, T1, PARENT, OP, ATTRS = range(6)


def _n_prime(args, kwargs, result):
    return {"n": result.n}


def _mask_on(args, kwargs, result):
    return {"on": int(result.sum())}


def _sector_dim(args, kwargs, result):
    net = args[0]
    return {"dim": net.edge_count + 4 - net.vertex_count}


def _lsq_dense_mb(args, kwargs, result):
    net, mask = args[0], args[1]
    return {"mb": net.vertex_count * int(mask.sum()) * 8 / 1e6}


def _reflection_dim(args, kwargs, result):
    return {"dim": 2 * args[0].edge_count + 4}


def _gates(args, kwargs, result):
    return {"gates": result[1].gate_count}


def _moves(args, kwargs, result):
    return {"moves": len(result)}


# (module, attribute, span name, attrs hook).  The span name is the module
# that defines the function, so a call through either binding lands on
# the same layer.
TARGETS = [
    ("graphs", "attach_source_path", "graphs.attach_source_path", None),
    ("spaneval", "attach_source_path", "graphs.attach_source_path", None),
    ("graphs", "pad_to_power_of_two", "graphs.pad_to_power_of_two", _n_prime),
    ("spaneval", "pad_to_power_of_two", "graphs.pad_to_power_of_two", _n_prime),
    ("network", "structure", "network.structure", None),  # see Tracer._structure
    ("network", "build", "network.build", None),
    ("spaneval", "build", "network.build", None),
    ("network", "on_edge_mask", "network.on_edge_mask", _mask_on),
    ("spaneval", "on_edge_mask", "network.on_edge_mask", _mask_on),
    ("network", "accepts", "network.accepts", None),
    ("spaneval", "accepts", "network.accepts", None),
    ("flows", "build_Bperp_basis", "flows.build_Bperp_basis", None),
    ("flows", "optimal_flow_lsq", "flows.optimal_flow_lsq", _lsq_dense_mb),
    ("flows", "build_B_spanning", "flows.build_B_spanning", None),
    ("flows", "star_state", "flows.star_state", None),
    ("flows", "orthonormalize", "flows.orthonormalize", None),
    ("flows", "projector", "flows.projector", None),
    ("spaneval", "phase_mass", "spaneval.phase_mass", _sector_dim),
    ("spaneval", "witness_energy", "spaneval.witness_energy", None),
    ("spaneval", "build_reflections", "spaneval.build_reflections", _reflection_dim),
    ("spaneval", "decide_phase_estimation", "spaneval.decide_phase_estimation", None),
    ("spaneval", "decide_length_bounded", "spaneval.decide_length_bounded", None),
    ("spaneval", "decide_distance", "spaneval.decide_distance", None),
    ("driver", "decide_distance", "spaneval.decide_distance", None),
    ("spaneval", "decide_distance_report", "spaneval.decide_distance_report", None),
    ("prep", "prepare_sum_of_flows", "prep.prepare_sum_of_flows", _gates),
    ("prep", "fourier_flows_C", "prep.fourier_flows_C", _gates),
    ("prep", "prepare_psi", "prep.prepare_psi", _gates),
    ("prep", "prepare_theta", "prep.prepare_theta", _gates),
    ("pebbling", "path_to_moves", "pebbling.path_to_moves", _moves),
    ("pebbling", "replay", "pebbling.replay", None),
    ("driver", "dstcon", "driver.dstcon", None),
]


class Tracer:
    """In-memory spans around the wrapped library functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.missing: set[str] = set()  # targets not found, as "module.attribute"

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        rec = [name, 0.0, 0.0, parent, self.op, None]
        self.spans.append(rec)
        rec[T0] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[T1] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of its own; the benchmark's root spans."""
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn, attrs):
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if attrs is not None:
                rec[ATTRS] = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _structure(self, fn):
        # network.structure is an lru_cache; a miss is a build
        tracer = self

        def traced(n, ell):
            misses = fn.cache_info().misses
            rec = tracer._open("network.structure")
            try:
                result = fn(n, ell)
            finally:
                tracer._close(rec)
            if fn.cache_info().misses > misses:
                rec[ATTRS] = {"miss": 1, "edges": result.edge_count}
            return result

        traced.cache_info = fn.cache_info
        traced.__wrapped__ = fn
        return traced

    # -- installing the wrappers ----------------------------------------------

    def install(self) -> None:
        """Wrap every target; one a refactor removed or renamed goes in ``missing``.

        A missing target would read as a layer that takes no time, so the
        run reports it and is not counted correct.
        """
        for mod_name, attr, name, attrs in TARGETS:
            module = importlib.import_module(f"swnet.{mod_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.add(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            wrapped = self._structure(fn) if attr == "structure" else self._wrap(name, fn, attrs)
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


# -- reduction ------------------------------------------------------------------

def self_times(spans: list) -> list[float]:
    """Duration minus the time covered by direct children, per span."""
    out = [s[T1] - s[T0] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[T1] - s[T0]
    return out


class LayerTotals:
    """Per-name aggregates of a list of spans."""

    def __init__(self, spans: list):
        self.spans = spans
        self.self_s = self_times(spans)
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}  # outermost calls only, so recursion counts once
        self.self_total: dict[str, float] = {}
        for i, s in enumerate(spans):
            name = s[NAME]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_total[name] = self.self_total.get(name, 0.0) + self.self_s[i]
            if not self._nested_in_same(i):
                self.total[name] = self.total.get(name, 0.0) + (s[T1] - s[T0])

    def _nested_in_same(self, i: int) -> bool:
        name, p = self.spans[i][NAME], self.spans[i][PARENT]
        while p >= 0:
            if self.spans[p][NAME] == name:
                return True
            p = self.spans[p][PARENT]
        return False

    def parent_name(self, i: int) -> str | None:
        p = self.spans[i][PARENT]
        return self.spans[p][NAME] if p >= 0 else None

    def attr_values(self, name: str, key: str, parent: str | None = None) -> list:
        """Values of one attribute over the spans of a name (and parent name)."""
        return [
            s[ATTRS][key]
            for i, s in enumerate(self.spans)
            if s[NAME] == name and s[ATTRS] and key in s[ATTRS]
            and (parent is None or self.parent_name(i) == parent)
        ]

    def child_time(self, name: str, parent: str) -> float:
        return sum(
            s[T1] - s[T0]
            for i, s in enumerate(self.spans)
            if s[NAME] == name and self.parent_name(i) == parent
        )
