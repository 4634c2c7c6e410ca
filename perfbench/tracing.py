"""Spans and counters recorded around calls into clutterkit's public functions.

A ``Tracer`` replaces each traced function with a wrapper everywhere a
clutterkit module holds it as a global (so calls made from inside
``clutterkit.suites`` are traced too), and each traced method on its class.
Every call becomes a span ``(name, start_ns, end_ns, parent, run_id)``;
``parent`` is the index of the enclosing span or -1.  Spans stay in memory
until ``write``.  ``aggregate`` turns them into per-name calls, busy time and
self time (busy time minus the time covered by direct child spans).
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _find_name(args, kwargs) -> str:
    greedy = kwargs.get("greedy_only", args[2] if len(args) > 2 else False)
    return "erasures.find_erasure_sequence.greedy" if greedy else "erasures.find_erasure_sequence"


def _hochster_name(args, kwargs) -> str:
    field = kwargs.get("field", args[1] if len(args) > 1 else "gf2")
    return f"homology.hochster_betti_table.{field}"


# Span name -> the outcome counted per call: "found" (result is not None),
# "states" (size of the returned set) or None.
LAYERS = {
    "erasures.find_erasure_sequence": "found",
    "erasures.find_erasure_sequence.greedy": "found",
    "erasures.erasure_reachable_set": "states",
    "erasures.h_vector_check": None,
    "erasures.betti_from_erasures": None,
    "ideals.find_quotient_order": "found",
    "ideals.quotient_reachable_set": "states",
    "homology.hochster_betti_table.gf2": None,
    "homology.hochster_betti_table.rational": None,
    "clutter.Clutter.max_cliques": None,
    "clutter.Clutter.exposed_status": None,
    "clutter.Clutter.complement": None,
    "shelling.erasures_to_shelling": None,
    "shelling.verify_shelling": None,
    "graphs.is_chordal_classic": None,
    "graphs.enumerate_chordal_graphs": "states",
    "graphs.chromatic_polynomial_product": None,
    "graphs.chromatic_polynomial_dc": None,
    "graphs.properly_exposed_subgraph": None,
    "graphs.mst_by_erasures": None,
    "graphs.kruskal_mst": None,
    "suites.froberg_suite": None,
    "suites.clutter_erasure_suite": None,
    "suites.free_face_suite": None,
    "suites.chromatic_suite": None,
    "suites.boundary_suite": None,
    "suites.mst_suite": None,
}

# Names whose span name depends on the arguments; every other traced name in
# LAYERS is ``<module>.<function>`` or ``<module>.<Class>.<method>``.
NAMING = {
    "erasures.find_erasure_sequence": _find_name,
    "homology.hochster_betti_table": _hochster_name,
}

# Counted, not spanned: ``_boundary_rank`` looks these up as module globals.
COUNTED = ("rank_gf2", "rank_exact")


def _traced_targets():
    """Yield (module, class or None, attribute, span name or naming function)."""
    seen = set()
    for name in LAYERS:
        for prefix, naming in NAMING.items():
            if name.startswith(prefix):
                name, label = prefix, naming
                break
        else:
            label = name
        if name in seen:
            continue
        seen.add(name)
        parts = name.split(".")
        yield parts[0], (parts[1] if len(parts) == 3 else None), parts[-1], label


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int, str]] = []
        self.outcomes = {name: 0 for name, outcome in LAYERS.items() if outcome}
        self.counters = {name: {"calls": 0, "busy_ns": 0, "rows": 0} for name in COUNTED}
        self.run_id = "setup"
        self._stack: list[int] = []

    def _spanned(self, original, label):
        spans, stack, outcomes = self.spans, self._stack, self.outcomes
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name = label if isinstance(label, str) else label(args, kwargs)
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1, self.run_id)
            outcome = LAYERS[name]
            if outcome == "found":
                outcomes[name] += result is not None
            elif outcome == "states":
                outcomes[name] += len(result)
            return result

        return wrapper

    def _counted(self, original, counter):
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def wrapper(rows):
            start = clock()
            result = original(rows)
            counter["busy_ns"] += clock() - start
            counter["calls"] += 1
            counter["rows"] += len(rows)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced name; clutterkit must already be imported."""
        modules = [m for key, m in sys.modules.items() if key == "clutterkit" or key.startswith("clutterkit.")]
        for module_name, class_name, attr, label in _traced_targets():
            home = sys.modules[f"clutterkit.{module_name}"]
            if class_name is not None:
                cls = getattr(home, class_name)
                setattr(cls, attr, self._spanned(getattr(cls, attr), label))
                continue
            original = getattr(home, attr)
            wrapper = self._spanned(original, label)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        homology = sys.modules["clutterkit.homology"]
        for attr in COUNTED:
            setattr(homology, attr, self._counted(getattr(homology, attr), self.counters[attr]))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "run_id"], "spans": self.spans}, fh)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers named ``<module>.<function>.<metric>``; absent layers read 0."""
        totals = aggregate(self.spans)
        out: dict[str, float] = {}
        for name, outcome in LAYERS.items():
            calls, busy_ns, self_ns = totals.get(name, (0, 0, 0))
            out[f"{name}.calls"] = calls
            out[f"{name}.busy_s"] = busy_ns / 1e9
            out[f"{name}.self_s"] = self_ns / 1e9
            if outcome == "found":
                out[f"{name}.found_ratio"] = self.outcomes[name] / calls if calls else 0.0
            elif outcome == "states":
                out[f"{name}.states"] = self.outcomes[name]
        for attr, counter in self.counters.items():
            out[f"homology.{attr}.calls"] = counter["calls"]
            out[f"homology.{attr}.busy_s"] = counter["busy_ns"] / 1e9
            out[f"homology.{attr}.rows"] = counter["rows"]
        return out


def aggregate(spans, run_id: str | None = None) -> dict[str, tuple[int, int, int]]:
    """Map span name to (calls, busy_ns, self_ns), optionally for one run id.

    Self time is a span's duration minus the durations of its direct
    children; spans are properly nested, so children never overlap.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: dict[str, list[int]] = {}
    for index, (name, start, end, parent, rid) in enumerate(spans):
        if run_id is not None and rid != run_id:
            continue
        entry = totals.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_ns[index]
    return {name: tuple(entry) for name, entry in totals.items()}
