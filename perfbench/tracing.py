"""Spans around the public functions of each layer, and the per-layer table.

The wrappers live here, not in the program: :func:`install` replaces each
function where its callers look it up (a module global for module-level
imports, the class attribute for methods), records one span per call in
memory, and :func:`uninstall` puts the originals back.  A span is
``(name, start, end, parent, value)``: ``parent`` is the index of the
enclosing span on the same thread (``-1`` for none), ``value`` an optional
count taken from the call's arguments.  The server launcher installs the
same wrappers in the server process and writes its spans to a file at exit.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time

#: (span name, module, class or None, attribute): every wrapped function.
TARGETS = (
    ("spec.build_dataset", "repro.api.spec", None, "build_dataset"),
    ("spec.compute_extents", "repro.api.spec", None, "compute_extents"),
    ("columnar.from_dataset", "repro.core.columnar", "ColumnarPdfStore", "from_dataset"),
    ("columnar.build_contexts", "repro.core.columnar", "ColumnarPdfStore", "build_contexts"),
    ("columnar.split_numerical", "repro.core.columnar", "ColumnarPdfStore", "split_numerical"),
    ("strategies.find_best_split", "repro.core.strategies", "UDTStrategy", "find_best_split"),
    ("strategies.find_best_split", "repro.core.strategies", "UDTESStrategy", "find_best_split"),
    ("strategies.build_interval_table", "repro.core.strategies", None, "build_interval_table"),
    ("strategies.prepare_sweep_group", "repro.core.strategies", None, "prepare_sweep_group"),
    ("postprune.pessimistic_prune", "repro.core.builder", None, "pessimistic_prune"),
    ("builder.build", "repro.core.builder", "TreeBuilder", "build"),
    ("builder.root_split_gain", "repro.core.builder", "TreeBuilder", "root_split_gain"),
    ("tree.classify_batch", "repro.core.tree", "DecisionTree", "classify_batch"),
    ("tree.partial_fit", "repro.core.tree", "DecisionTree", "partial_fit"),
    ("forest.predict_proba", "repro.ensemble.forest", "BaseForestClassifier", "predict_proba"),
    ("persistence.load_model", "repro.api.persistence", None, "load_model"),
    ("persistence.load_model", "repro.api", None, "load_model"),
    ("persistence.load_model", "repro.serve.registry", None, "load_model"),
)


def _cells(args, kwargs) -> int:
    """Cells a ``build_dataset(X, ...)`` call materialises."""
    shape = getattr(args[0], "shape", None)
    if shape is not None and len(shape) == 2:
        return int(shape[0]) * int(shape[1])
    rows = list(args[0])
    return len(rows) * (len(rows[0]) if rows else 0)


_VALUES = {"spec.build_dataset": _cells}


class Recorder:
    """In-memory span list shared by every wrapped function of one process."""

    def __init__(self) -> None:
        self.spans: list = []
        self._local = threading.local()
        self._saved: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        value_of = _VALUES.get(name)
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            index = len(spans)
            spans.append(None)  # reserve the slot so children index after it
            parent = stack[-1] if stack else -1
            value = value_of(args, kwargs) if value_of is not None else None
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, value)

        return traced

    def install(self) -> None:
        """Wrap every target; a target missing from the program is skipped.

        Every module is imported before anything is patched, so a module
        that imports a target by name binds the original, not a wrapper.
        """
        modules = {entry[1]: importlib.import_module(entry[1]) for entry in TARGETS}
        for name, module_name, class_name, attribute in TARGETS:
            module = modules[module_name]
            owner = module if class_name is None else getattr(module, class_name, None)
            if owner is None:
                continue
            raw = vars(owner).get(attribute)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                replacement = classmethod(self.wrap(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                replacement = staticmethod(self.wrap(name, raw.__func__))
            else:
                replacement = self.wrap(name, raw)
            self._saved.append((owner, attribute, raw))
            setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        for owner, attribute, raw in reversed(self._saved):
            setattr(owner, attribute, raw)
        self._saved.clear()

    def finished(self) -> list:
        """Spans whose call has returned."""
        return [span for span in self.spans if span is not None]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.finished(), handle)


def load_spans(path) -> list:
    with open(path, encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)]


def layer_times(spans: list, windows: list) -> dict:
    """Per-layer busy times and counts of one process's spans in ``windows``.

    A span counts when it starts inside one of the ``(start, end)`` windows,
    so each figure covers the same phases as the metric it explains.  Self
    time is a span's duration minus the time of its direct children.
    Partitioning under ``classify_batch`` is descent, not training, so it
    counts toward ``tree.descend_s`` and only partitioning under
    ``builder.build`` counts toward ``columnar.partition_s``.
    """
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            if spans[parent][0] == "tree.classify_batch" and name == "columnar.split_numerical":
                continue
            children[parent] += end - start

    def ancestors(index: int):
        parent = spans[index][3]
        while parent >= 0:
            yield spans[parent][0]
            parent = spans[parent][3]

    totals: dict = {}

    def add(key: str, amount: float) -> None:
        totals[key] = totals.get(key, 0.0) + amount

    for index, (name, start, end, parent, value) in enumerate(spans):
        if not any(begin <= start < stop for begin, stop in windows):
            continue
        duration = end - start
        add(f"{name}.total", duration)
        add(f"{name}.self", duration - children[index])
        add(f"{name}.calls", 1)
        if value is not None:
            add(f"{name}.value", value)
        if name == "columnar.split_numerical" and "builder.build" in ancestors(index):
            add("partition.fit", duration)
        if name == "tree.classify_batch" and "forest.predict_proba" in ancestors(index):
            add("forest.members", 1)
    return totals
