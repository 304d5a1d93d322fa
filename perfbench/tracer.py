"""In-memory spans around the program's public functions, from outside it.

`Tracer.install` replaces each listed function in the module that calls it
(the name the caller looks up), so nothing under `src/` is edited and only
this process is affected; `restore` puts the originals back. Private helpers
are not wrapped: their time is self time of the enclosing public span.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass

# (calling module, attribute, span name); the span name is the defining
# module and function, so one function looked up from several callers shares
# one name
WRAPPED = (
    ("cli", "panel_from_csv", "panel.panel_from_csv"),
    ("cli", "demean_units", "panel.demean_units"),
    ("cli", "build_grid_application", "grid.build_grid_application"),
    ("cli", "gaussian_critical_value", "critvals.gaussian_critical_value"),
    ("cli", "run_test", "multiscale.run_test"),
    ("cli", "build_normalizers", "multiscale.build_normalizers"),
    ("cli", "compute_stat_table", "multiscale.compute_stat_table"),
    ("cli", "dissimilarity_matrix", "cluster.dissimilarity_matrix"),
    ("cli", "hac_cluster", "cluster.hac_cluster"),
    ("cli", "select_k", "cluster.select_k"),
    ("cli", "group_difference_intervals", "cluster.group_difference_intervals"),
    ("cli", "batched_designs", "estimate.batched_designs"),
    ("cli", "solve_mask", "estimate.solve_mask"),
    ("cli", "load_experiment_config", "simulate.load_experiment_config"),
    ("cli", "run_from_config", "simulate.run_from_config"),
    ("critvals", "draws_cache_key", "critvals.draws_cache_key"),
    ("critvals", "load_draws", "critvals.load_draws"),
    ("critvals", "simulate_phi", "critvals.simulate_phi"),
    ("critvals", "save_draws", "critvals.save_draws"),
    ("critvals", "critical_value", "critvals.critical_value"),
    ("multiscale", "build_normalizers", "multiscale.build_normalizers"),
    ("multiscale", "compute_stat_table", "multiscale.compute_stat_table"),
    ("multiscale", "aggregate", "multiscale.aggregate"),
    ("multiscale", "prune_minimal", "multiscale.prune_minimal"),
    ("multiscale", "long_run_covariances", "lrv.long_run_covariances"),
    ("multiscale", "pair_normalizer", "lrv.pair_normalizer"),
    ("multiscale", "batched_designs", "estimate.batched_designs"),
    ("multiscale", "solve_mask", "estimate.solve_mask"),
    ("lrv", "residual_series", "lrv.residual_series"),
    ("lrv", "hac_estimate", "lrv.hac_estimate"),
    ("lrv", "batched_designs", "estimate.batched_designs"),
    ("cluster", "partition_at", "cluster.partition_at"),
    ("simulate", "run_size_experiment", "simulate.run_size_experiment"),
    ("simulate", "build_grid_application", "grid.build_grid_application"),
    ("simulate", "gaussian_critical_value", "critvals.gaussian_critical_value"),
    ("simulate", "generate_panel", "simulate.generate_panel"),
    ("simulate", "run_test", "multiscale.run_test"),
)
# the replication fan-out: each item runs in a span parented by the fan-out
FAN_OUT = ("simulate", "ordered_map", "parallel.ordered_map", "simulate.replication")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counters.

    `hooks` maps a span name to a function of (args, kwargs, result) that
    returns counter increments; `keep` names the spans whose calls are kept
    whole (span, args, kwargs, result) for checks after the run.
    """

    def __init__(self, hooks=None, keep=()) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.kept: dict[str, list[tuple[Span, tuple, dict, object]]] = {}
        self.fan_out_workers: dict[int, int] = {}
        self._hooks = dict(hooks or {})
        self._keep = frozenset(keep)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, parent: int | None = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(next(self._ids), name, parent, threading.get_ident(),
                    time.perf_counter())
        stack.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def call(self, name: str, fn, args: tuple, kwargs: dict, parent: int | None = None):
        span = self.begin(name, parent)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end(span)
        hook = self._hooks.get(name)
        increments = hook(args, kwargs, result) if hook is not None else {}
        with self._lock:
            self.counters.update(increments)
            if name in self._keep:
                self.kept.setdefault(name, []).append((span, args, kwargs, result))
        return result

    def _wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def _fan_out_wrapper(self, name: str, item_name: str, fn):
        def traced(task, items, n_workers=1):
            span = self.begin(name)
            items = list(items)
            self.fan_out_workers[span.id] = max(1, min(n_workers, len(items)))

            def item(x):
                return self.call(item_name, task, (x,), {}, parent=span.id)

            try:
                return fn(item, items, n_workers)
            finally:
                self.end(span)

        return traced

    def install(self, package) -> None:
        for module_name, attr, name in WRAPPED:
            module = getattr(package, module_name)
            self._replace(module, attr, self._wrapper(name, getattr(module, attr)))
        module_name, attr, name, item_name = FAN_OUT
        module = getattr(package, module_name)
        self._replace(
            module, attr, self._fan_out_wrapper(name, item_name, getattr(module, attr))
        )

    def _replace(self, module, attr: str, new) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> Counter:
        """Summed self time per span name: duration minus the union of the
        intervals its children cover (children may overlap across threads)."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: Counter = Counter()
        for s in self.spans:
            covered = 0.0
            lo = hi = None
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                c_lo, c_hi = max(c.start, s.start), min(c.end, s.end)
                if c_hi <= c_lo:
                    continue
                if hi is None or c_lo > hi:
                    if hi is not None:
                        covered += hi - lo
                    lo, hi = c_lo, c_hi
                else:
                    hi = max(hi, c_hi)
            if hi is not None:
                covered += hi - lo
            out[s.name] += s.duration - covered
        return out

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def busy_fraction(self, fan_out: str, item: str) -> float:
        """Item span time over (workers x fan-out wall), over all fan-outs."""
        fans = {s.id: s for s in self.spans if s.name == fan_out}
        capacity = sum(self.fan_out_workers[i] * s.duration for i, s in fans.items())
        busy = sum(s.duration for s in self.spans if s.name == item and s.parent in fans)
        return busy / capacity if capacity > 0 else 0.0

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in sorted(self.spans, key=lambda s: s.start)]
