"""Timing wrappers installed as module attributes around the program's public functions.

The program's callers look these names up at call time (``run_benchmark``
calls ``bench.fit_cell``, ``run_filter`` calls ``filters.dkf_step``, the
fitted observation models call ``regression.gp_predict_mean`` and so on), so
replacing the module attribute routes every call through a wrapper without
touching the program.  ``kalman_step`` and ``ekf_step`` are dispatched
through ``filters._STEPS`` and cannot be reached this way; their cost shows
only inside the ``run_filter`` span of their filter.

A span is ``[name, start, end, parent_index, info]``.  Spans stay in memory
and are summarised or written out when the benchmark ends.
"""

from __future__ import annotations

import gzip
import time
from contextlib import contextmanager


def _filter_label(args, kwargs):
    kind = args[0]
    if kind == "dkf":
        return (args[3].meta or {}).get("kind", "dkf")
    return kind


def _rows(args, kwargs):
    batch = kwargs.get("batch", args[2] if len(args) > 2 else False)
    return len(args[1]) if batch else 1


def _targets(full: bool):
    """(module, attribute, span name, info function) for every wrapped call.

    The cell-level calls are wrapped in every run: they separate fit time
    from decode time and hand the fitted cells to the checks.  The full set
    is wrapped only in a traced run.
    """
    from dkf import bench, filters, regression

    cell = [
        (bench, "fit_cell", "bench.fit_cell", lambda a, k: a[0]),
        (bench, "fit_dynamics", "statespace.fit_dynamics", None),
        (bench, "run_filter", "filters.run_filter", _filter_label),
    ]
    if not full:
        return cell
    return cell + [
        (bench, "ingest_csv", "bench.ingest_csv", None),
        (bench, "emit_report", "bench.emit_report", None),
        (bench, "save_model_bundle", "bench.save_model_bundle", None),
        (bench, "load_model_bundle", "bench.load_model_bundle", None),
        (bench, "mlp_fit", "regression.mlp_fit", None),
        (bench, "mlp_predict", "regression.mlp_predict", _rows),
        (regression, "gp_fit", "regression.gp_fit", None),
        (regression, "mlp_fit", "regression.mlp_fit", None),
        (regression, "gp_predict_mean", "regression.gp_predict_mean", _rows),
        (regression, "gp_predict_q", "regression.gp_predict_q", _rows),
        (regression, "mlp_predict", "regression.mlp_predict", _rows),
        (filters, "dkf_step", "filters.dkf_step", None),
        (filters, "ukf_step", "filters.ukf_step", None),
        (filters, "regularize_Q", "filters.regularize_Q", None),
    ]


class Tracer:
    """Records spans for the wrapped calls while installed.

    ``runs`` collects ``(label, dataset, dyn, obs, beliefs)`` for every
    ``run_filter`` call, so the checks can recompute each cell.
    """

    def __init__(self, full: bool):
        self.full = full
        self.spans: list[list] = []
        self.runs: list[tuple] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, module, attr, name, info):
        orig = getattr(module, attr)
        spans, stack = self.spans, self._stack
        keep = self.runs if name == "filters.run_filter" else None

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    info(args, kwargs) if info is not None else None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if keep is not None:
                keep.append((span[4], args[1], args[2], args[3], out))
            return out

        setattr(module, attr, wrapper)
        self._saved.append((module, attr, orig))

    def __enter__(self):
        for module, attr, name, info in _targets(self.full):
            self._wrap(module, attr, name, info)
        return self

    def __exit__(self, *exc):
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()
        return False

    @contextmanager
    def phase(self, name: str):
        """A root span grouping the calls of one benchmark phase."""
        idx = len(self.spans)
        span = ["phase." + name, time.perf_counter(), 0.0, -1, None]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def under(self, phase: str) -> list[tuple[list, float]]:
        """Spans below the named phase root, each with its self time."""
        root_of = []
        for name, _, _, parent, _ in self.spans:
            root_of.append(root_of[parent] if parent >= 0 else name)
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        want = "phase." + phase
        return [
            (span, span[2] - span[1] - child[i])
            for i, span in enumerate(self.spans)
            if root_of[i] == want and span[0] != want
        ]

    def write(self, path) -> None:
        """Spans as gzipped CSV: name, start and end in seconds from the first
        span, parent index, and the call's filter or row count."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start_s,end_s,parent,info\n")
            for i, (name, start, end, parent, info) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},"
                         f"{'' if info is None else info}\n")
