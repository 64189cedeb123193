"""A minimal metrics registry: counters, timers, and a timing decorator.

Zero hard dependencies — values accumulate in-process and are emitted, on
request, through the standard :mod:`logging` machinery (logger
``repro.obs.metrics``).  The hot paths of the reproduction are annotated
with :func:`timed`:

``view.build``
    :meth:`repro.core.builder.RelevUserViewBuilder.build` — the Fig. 5
    algorithm.
``composite.build``
    :class:`repro.core.composite.CompositeRun` construction — inducing a
    run under a view.
``reasoner.admin_deep``
    The warehouse's recursive UAdmin closure (the expensive first query).
``reasoner.view_switch``
    Re-answering a deep query under a different view on a warm reasoner
    (the paper's 13 ms interactivity claim).
``labels.build``
    Building a run's reachability labels
    (:meth:`~repro.warehouse.base.ProvenanceWarehouse.build_label_index`).
``labels.lookup``
    Serving one UAdmin closure from a run's resident labels (the
    ``labeled`` reasoner strategy).
``ingest.prepare`` / ``ingest.gate`` / ``ingest.write``
    The three stages of the batch-ingestion pipeline
    (:func:`repro.warehouse.pipeline.ingest_dataset`): waiting on a
    prepared run (row shaping + lint + labels, possibly in a worker),
    applying the lint gate to a batch, and the single-transaction bulk
    write.  The companion counters ``ingest.runs`` / ``ingest.batches`` /
    ``ingest.specs`` record throughput.

All timers live in a process-wide default registry (:func:`get_registry`);
tests swap it out with :func:`set_registry`.
"""

from __future__ import annotations

import functools
import logging
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Deque, Dict, Iterator, List, TypeVar

from ..sanitize import guard, make_lock

logger = logging.getLogger("repro.obs.metrics")

F = TypeVar("F", bound=Callable)


class Counter:
    """A monotonically increasing (resettable) integer metric."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = make_lock("metrics.counter.%s" % name)
        self._value = 0  # guarded-by: _lock

    @property
    def value(self) -> int:
        return self._value  # lock-free read: int load is atomic under GIL

    def increment(self, amount: int = 1) -> int:
        with self._lock:
            self._value += amount
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def as_dict(self) -> Dict[str, object]:
        return {"count": self._value}


#: Recent observations a :class:`Timer` retains for percentile estimates.
TIMER_SAMPLE_WINDOW = 2048


class Gauge:
    """A point-in-time numeric metric (e.g. sustained QPS, pool size)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = make_lock("metrics.gauge.%s" % name)
        self._value = 0.0  # guarded-by: _lock

    @property
    def value(self) -> float:
        return self._value  # lock-free read: float load is atomic under GIL

    def set(self, value: float) -> float:
        with self._lock:
            self._value = float(value)
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {"value": round(self._value, 3)}


class Timer:
    """Accumulated wall-clock observations of one code path.

    Beyond the running aggregates, the last :data:`TIMER_SAMPLE_WINDOW`
    observations are retained in a ring buffer so callers can ask for tail
    latency (:meth:`percentile`) — what the serving layer reports as
    p50/p95/p99.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = make_lock("metrics.timer.%s" % name)
        self.count = 0             # guarded-by: _lock
        self.total = 0.0           # guarded-by: _lock
        self.min = float("inf")    # guarded-by: _lock
        self.max = 0.0             # guarded-by: _lock
        self.last = 0.0            # guarded-by: _lock
        self._samples: Deque[float] = deque(maxlen=TIMER_SAMPLE_WINDOW)

    def observe(self, seconds: float) -> None:
        with self._lock:
            self.count += 1
            self.total += seconds
            self.min = min(self.min, seconds)
            self.max = max(self.max, seconds)
            self.last = seconds
            self._samples.append(seconds)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0–100) of the retained sample window.

        Nearest-rank over the (bounded) recent window; ``0.0`` before the
        first observation.
        """
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100], got %r" % q)
        with self._lock:
            if not self._samples:
                return 0.0
            ordered = sorted(self._samples)
        rank = max(0, min(len(ordered) - 1,
                          int(round(q / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        with self._lock:
            self.count = 0
            self.total = 0.0
            self.min = float("inf")
            self.max = 0.0
            self.last = 0.0
            self._samples.clear()

    def merge(self, other: "Timer") -> None:
        """Fold another timer's observations into this one.

        Aggregates (count/total/min/max) combine exactly; the sample
        window concatenates (bounded by its ring size) so percentiles
        over the merged timer reflect both sources' recent history.
        ``last`` takes the other timer's value when it has observations —
        merge order decides ties, which is fine for a display field.
        The other timer is snapshotted under its own lock first, then
        this one is mutated under ours: sequential acquisition, so two
        concurrent merges in opposite directions cannot deadlock.
        """
        with other._lock:
            other_count = other.count
            other_total = other.total
            other_min = other.min
            other_max = other.max
            other_last = other.last
            samples = list(other._samples)
        if not other_count:
            return
        with self._lock:
            self.count += other_count
            self.total += other_total
            self.min = min(self.min, other_min)
            self.max = max(self.max, other_max)
            self.last = other_last
            self._samples.extend(samples)

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "total_ms": round(self.total * 1000, 3),
            "mean_ms": round(self.mean * 1000, 3),
            "min_ms": round(self.min * 1000, 3) if self.count else 0.0,
            "max_ms": round(self.max * 1000, 3),
            "last_ms": round(self.last * 1000, 3),
        }


class MetricsRegistry:
    """Named counters and timers, created on first use.

    Lookups of *existing* metrics are lock-free: the metric maps follow a
    write-locked / read-free contract (mode ``"w"`` under the sanitizer) —
    every insertion happens under ``_lock`` with a double-checked re-read,
    while reads rely on CPython dict loads being atomic.  The serving hot
    path calls :meth:`counter`/:meth:`timer` per request, so taking the
    registry lock there would serialize unrelated worker threads on a
    metric lookup.
    """

    def __init__(self, namespace: str = "") -> None:
        self.namespace = namespace
        self._lock = make_lock("metrics.registry")
        # Mutations guarded; reads deliberately lock-free (see class doc).
        self._counters: Dict[str, Counter] = guard(
            {}, self._lock, "metrics.registry._counters", mode="w"
        )  # guarded-by: _lock
        self._timers: Dict[str, Timer] = guard(
            {}, self._lock, "metrics.registry._timers", mode="w"
        )  # guarded-by: _lock
        self._gauges: Dict[str, Gauge] = guard(
            {}, self._lock, "metrics.registry._gauges", mode="w"
        )  # guarded-by: _lock
        self._children: Dict[str, "MetricsRegistry"] = guard(
            {}, self._lock, "metrics.registry._children", mode="w"
        )  # guarded-by: _lock

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is not None:
            return counter
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(name)
            return counter

    def timer(self, name: str) -> Timer:
        timer = self._timers.get(name)
        if timer is not None:
            return timer
        with self._lock:
            timer = self._timers.get(name)
            if timer is None:
                timer = self._timers[name] = Timer(name)
            return timer

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is not None:
            return gauge
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                gauge = self._gauges[name] = Gauge(name)
            return gauge

    def child(self, namespace: str) -> "MetricsRegistry":
        """A namespaced sub-registry tracked by this one.

        Children hold their metrics under *bare* names (a shard records
        ``ingest.runs``, not ``shard3.ingest.runs``); the namespace is a
        label applied when the parent rolls children up —
        :meth:`snapshot` with ``children=True`` prefixes, :meth:`merged`
        aggregates same-named metrics across children.  Repeated calls
        with one namespace return the same child, so per-shard registries
        survive reopen cycles of the object that owns them.
        """
        kid = self._children.get(namespace)
        if kid is not None:
            return kid
        with self._lock:
            kid = self._children.get(namespace)
            if kid is None:
                kid = self._children[namespace] = MetricsRegistry(
                    namespace=namespace
                )
            return kid

    def children(self) -> Dict[str, "MetricsRegistry"]:
        """Namespace → child registry, in sorted namespace order."""
        with self._lock:
            return dict(sorted(self._children.items()))

    def merge(self, other: "MetricsRegistry", prefix: str = "") -> None:
        """Fold another registry's metrics into this one.

        Counters add, timers combine aggregates and sample windows
        (:meth:`Timer.merge`), gauges take the other registry's value
        (last merge wins — gauges are point-in-time, summing them would
        fabricate a reading).  ``prefix`` namespaces the incoming names
        (``prefix + "." + name``); the other registry's children are
        folded in recursively under their own namespaces.  Merging with
        no prefix is how per-shard metrics aggregate into one view.
        """
        for name, counter in sorted(other._counters.items()):
            value = counter.value
            if value:
                self.counter(self._qualify(prefix, name)).increment(value)
        for name, timer in sorted(other._timers.items()):
            self.timer(self._qualify(prefix, name)).merge(timer)
        for name, gauge in sorted(other._gauges.items()):
            self.gauge(self._qualify(prefix, name)).set(gauge.value)
        for namespace, kid in sorted(other.children().items()):
            self.merge(kid, prefix=self._qualify(prefix, namespace))

    def merged(self, namespaced: bool = False) -> "MetricsRegistry":
        """One flat registry aggregating this one and all its children.

        With ``namespaced=False`` (default) same-named metrics across
        children add up — the "whole federation" view; with
        ``namespaced=True`` each child's names keep their namespace
        prefix — the "per shard" view.
        """
        out = MetricsRegistry()
        if namespaced:
            out.merge(self)
            return out
        stack: List["MetricsRegistry"] = [self]
        while stack:
            registry = stack.pop()
            out.merge(registry._without_children())
            stack.extend(registry.children().values())
        return out

    def _without_children(self) -> "MetricsRegistry":
        """A shallow view of this registry's own metrics (no children)."""
        view = MetricsRegistry(namespace=self.namespace)
        for name, counter in self._counters.items():
            if counter.value:
                view.counter(name).increment(counter.value)
        for name, timer in self._timers.items():
            view.timer(name).merge(timer)
        for name, gauge in self._gauges.items():
            view.gauge(name).set(gauge.value)
        return view

    @staticmethod
    def _qualify(prefix: str, name: str) -> str:
        return "%s.%s" % (prefix, name) if prefix else name

    @contextmanager
    def time(self, name: str) -> Iterator[Timer]:
        """Context manager observing the elapsed wall-clock time."""
        timer = self.timer(name)
        started = time.perf_counter()
        try:
            yield timer
        finally:
            timer.observe(time.perf_counter() - started)

    def snapshot(
        self, children: bool = False
    ) -> Dict[str, Dict[str, object]]:
        """All metrics as plain dicts, counters and timers alike.

        ``children=True`` appends every child registry's metrics under
        namespace-qualified names (``shard0.ingest.runs``).
        """
        with self._lock:
            names = sorted(
                set(self._counters) | set(self._timers) | set(self._gauges)
            )
            out: Dict[str, Dict[str, object]] = {}
            for name in names:
                merged: Dict[str, object] = {}
                if name in self._counters:
                    merged.update(self._counters[name].as_dict())
                if name in self._timers:
                    merged.update(self._timers[name].as_dict())
                if name in self._gauges:
                    merged.update(self._gauges[name].as_dict())
                out[name] = merged
        if children:
            for namespace, kid in self.children().items():
                for name, values in kid.snapshot(children=True).items():
                    out[self._qualify(namespace, name)] = values
        return out

    def reset(self) -> None:
        """Zero every metric, children included (names survive)."""
        with self._lock:
            for counter in self._counters.values():
                counter.reset()
            for timer in self._timers.values():
                timer.reset()
            for gauge in self._gauges.values():
                gauge.reset()
        for kid in self.children().values():
            kid.reset()

    def log_snapshot(self, level: int = logging.DEBUG) -> None:
        """Emit the current snapshot through ``repro.obs.metrics``."""
        for name, values in self.snapshot().items():
            logger.log(level, "%s %s", name, values)


_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry (tests); returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


def timed(name: str) -> Callable[[F], F]:
    """Decorator recording the wrapped callable's wall time under ``name``.

    The registry is resolved at call time, so :func:`set_registry` affects
    already-decorated functions.
    """

    def decorate(func: F) -> F:
        @functools.wraps(func)
        def wrapper(*args: object, **kwargs: object):
            timer = get_registry().timer(name)
            started = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                timer.observe(time.perf_counter() - started)

        return wrapper  # type: ignore[return-value]

    return decorate
