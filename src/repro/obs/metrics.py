"""One labelled metrics namespace, and the stats schema that feeds it.

:class:`MetricsRegistry` gives every layer a shared vocabulary —
counters, gauges, and histograms keyed by dotted name plus sorted
key=value labels.  One ``registry.snapshot()`` answers "what happened
in this run" across every layer, and rides inside an exported trace's
``otherData.metrics``.

The per-layer stats dataclasses (``IOStats``, ``LatencyStats``,
``FaultStats``, ``ShardStats``, ``ExecutionStats``, ``UpdateStats``,
``ServiceStats``, ``SojournSummary``) derive from :class:`Counters`.
Their field declarations are the schema: ``publish``, ``snapshot``,
``copy``, ``delta_from`` and ``reset`` are all computed from
``dataclasses.fields`` plus the metadata :func:`stat` attaches (metric
kind, published-name override, per-entity label), and derived gauges
are properties marked :class:`derived` where they are defined.  Adding
a counter therefore takes one edit, the field declaration.
:class:`CountersView` is the live summing aggregate over several
bundles of one such class.

Metric names are documented in ``docs/OBSERVABILITY.md``; the
convention is ``<layer>.<field>`` with per-entity dimensions (shard
index, request class) expressed as labels rather than name suffixes.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, field, fields, replace
from functools import cache


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render(key: tuple) -> str:
    return ",".join(f"{k}={v}" for k, v in key)


def _nearest_rank(ordered: list[float], fraction: float) -> float:
    if not ordered:
        return 0.0
    rank = max(1, min(len(ordered), math.ceil(fraction * len(ordered))))
    return ordered[rank - 1]


class MetricsRegistry:
    """Labelled counters, gauges, and histograms.

    Counters are monotone (negative increments raise), gauges hold the
    last set value, histograms keep every observation and summarize on
    snapshot.  Labels are free-form keyword arguments; the same metric
    name may carry any number of label combinations.
    """

    def __init__(self) -> None:
        self._counters: dict[str, dict[tuple, float]] = {}
        self._gauges: dict[str, dict[tuple, float]] = {}
        self._histograms: dict[str, dict[tuple, list[float]]] = {}

    # -- writes --------------------------------------------------------

    def counter(self, name: str, amount: float = 1, **labels) -> None:
        """Add ``amount`` (>= 0) to the counter ``name`` at ``labels``."""
        if amount < 0:
            raise ValueError(f"counter {name} increment must be >= 0, got {amount}")
        series = self._counters.setdefault(name, {})
        key = _label_key(labels)
        series[key] = series.get(key, 0.0) + float(amount)

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set the gauge ``name`` at ``labels`` to ``value``."""
        self._gauges.setdefault(name, {})[_label_key(labels)] = float(value)

    def observe(self, name: str, value: float, **labels) -> None:
        """Record one observation into the histogram ``name``."""
        series = self._histograms.setdefault(name, {})
        series.setdefault(_label_key(labels), []).append(float(value))

    # -- reads ---------------------------------------------------------

    def counter_value(self, name: str, **labels) -> float:
        return self._counters.get(name, {}).get(_label_key(labels), 0.0)

    def gauge_value(self, name: str, **labels) -> float | None:
        return self._gauges.get(name, {}).get(_label_key(labels))

    def observations(self, name: str, **labels) -> list[float]:
        return list(self._histograms.get(name, {}).get(_label_key(labels), []))

    def names(self) -> list[str]:
        """Every registered metric name, sorted."""
        return sorted(
            set(self._counters) | set(self._gauges) | set(self._histograms)
        )

    def snapshot(self) -> dict:
        """One JSON-ready dict over every metric and label combination."""
        counters = {
            name: {_render(key): value for key, value in sorted(series.items())}
            for name, series in sorted(self._counters.items())
        }
        gauges = {
            name: {_render(key): value for key, value in sorted(series.items())}
            for name, series in sorted(self._gauges.items())
        }
        histograms = {}
        for name, series in sorted(self._histograms.items()):
            histograms[name] = {}
            for key, values in sorted(series.items()):
                ordered = sorted(values)
                histograms[name][_render(key)] = {
                    "count": len(ordered),
                    "sum": sum(ordered),
                    "min": ordered[0] if ordered else 0.0,
                    "max": ordered[-1] if ordered else 0.0,
                    "mean": sum(ordered) / len(ordered) if ordered else 0.0,
                    "p50": _nearest_rank(ordered, 0.5),
                    "p95": _nearest_rank(ordered, 0.95),
                    "p99": _nearest_rank(ordered, 0.99),
                }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


# ----------------------------------------------------------------------
# The stats schema
# ----------------------------------------------------------------------


def stat(
    default=MISSING,
    *,
    gauge: bool = False,
    name: str | None = None,
    label: str | None = None,
    labels: dict | None = None,
    point_in_time: bool = False,
    **kwargs,
):
    """A stats dataclass field carrying its publish metadata.

    Args:
        default: the field default (``default_factory`` passes through
            ``kwargs``); :meth:`Counters.reset` restores it.
        gauge: publish as a gauge instead of a counter.
        name: published name when it differs from the field name.
        label: for a tuple or dict field, the label each entry is
            published under (tuple index or dict key as its value).
        labels: constant labels added when publishing a nested stats
            field.
        point_in_time: :meth:`Counters.delta_from` keeps the current
            value instead of subtracting.
    """
    metadata = {
        "gauge": gauge,
        "name": name,
        "label": label,
        "labels": labels or {},
        "point_in_time": point_in_time,
    }
    return field(default=default, metadata=metadata, **kwargs)


def gauge(default=MISSING, **kwargs):
    """Shorthand for ``stat(default, gauge=True, ...)``."""
    return stat(default, gauge=True, **kwargs)


class derived(property):
    """A property published as a gauge and reported by ``snapshot()``."""

    published = True


class snapshot_only(derived):
    """A derived value reported by ``snapshot()`` but never published."""

    published = False


@cache
def _schema(cls) -> tuple[tuple, tuple]:
    """``(public dataclass fields, derived property names)`` of ``cls``."""
    public = tuple(f for f in fields(cls) if not f.name.startswith("_"))
    derived_names = []
    for klass in reversed(cls.__mro__):
        for attr, value in vars(klass).items():
            if isinstance(value, derived) and attr not in derived_names:
                derived_names.append(attr)
    return public, tuple(derived_names)


@cache
def _field_names(cls) -> frozenset:
    return frozenset(f.name for f in _schema(cls)[0])


def _emit(registry, meta: dict, name: str, value, labels: dict) -> None:
    if meta.get("gauge"):
        registry.gauge(name, value, **labels)
    else:
        registry.counter(name, value, **labels)


def _publish(cls, stats, registry, labels: dict) -> None:
    public, derived_names = _schema(cls)
    for f in public:
        value = getattr(stats, f.name)
        if value is None:
            continue
        meta = f.metadata
        name = cls._prefix + (meta.get("name") or f.name)
        if isinstance(value, (tuple, dict)):
            items = value.items() if isinstance(value, dict) else enumerate(value)
            for key, item in items:
                entity = {meta["label"]: key, **labels}
                if isinstance(item, Counters):
                    item.publish(registry, **entity)
                else:
                    _emit(registry, meta, name, item, entity)
        elif isinstance(value, Counters):
            value.publish(registry, **meta.get("labels", {}), **labels)
        else:
            _emit(registry, meta, name, value, labels)
    for attr in derived_names:
        if getattr(cls, attr).published:
            registry.gauge(cls._prefix + attr, getattr(stats, attr), **labels)


def _snap(value):
    if isinstance(value, Counters):
        return value.snapshot()
    if isinstance(value, dict):
        return {str(key): _snap(item) for key, item in sorted(value.items())}
    if isinstance(value, tuple):
        return [_snap(item) for item in value]
    return value


def snapshot_of(stats, cls=None) -> dict:
    """JSON-ready dict of a stats dataclass: its public fields, then its
    :class:`derived` properties.  ``cls`` supplies the schema when
    ``stats`` only mirrors it (a :class:`CountersView`)."""
    public, derived_names = _schema(cls or type(stats))
    snapshot = {f.name: _snap(getattr(stats, f.name)) for f in public}
    snapshot.update((attr, getattr(stats, attr)) for attr in derived_names)
    return snapshot


def _copy(value):
    if isinstance(value, Counters):
        return value.copy()
    if isinstance(value, dict):
        return {key: _copy(item) for key, item in value.items()}
    return value


def _minus(now, then, name: str):
    if then is None:
        return now
    if isinstance(now, Counters):
        return now.delta_from(then)
    if isinstance(now, tuple):
        if len(now) != len(then):
            raise ValueError(
                f"cannot delta {len(now)}-entry {name} from {len(then)}-entry {name}"
            )
        return tuple(a - b for a, b in zip(now, then))
    if isinstance(now, dict):
        return {key: _minus(item, then.get(key), name) for key, item in now.items()}
    return now - then


class Counters:
    """Base of the stats dataclasses: every method derives from the fields.

    Subclasses are dataclasses declaring ``prefix`` as a class keyword
    (``class IOStats(Counters, prefix="io.")``); each field publishes
    as ``<prefix><name>``.  Counters stay plain instance attributes — the
    base adds no descriptors and no ``__setattr__`` hook, so the storage
    layers' per-page increments cost what they always did.

    Field values are numbers (published by the field's kind), nested
    :class:`Counters` (published and snapshotted recursively), ``None``
    (an absent nested bundle, skipped), or tuples/dicts of either
    (published per entry under the field's ``label``).
    """

    _prefix = ""

    def __init_subclass__(cls, prefix: str | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        if prefix is not None:
            cls._prefix = prefix

    def publish(self, registry, **labels) -> None:
        """Publish every field and derived gauge into ``registry``."""
        _publish(type(self), self, registry, labels)

    def snapshot(self) -> dict:
        """JSON-ready form for benchmark reports."""
        return snapshot_of(self)

    def copy(self):
        """A point-in-time copy (the baseline for :meth:`delta_from`)."""
        public, _ = _schema(type(self))
        return replace(self, **{f.name: _copy(getattr(self, f.name)) for f in public})

    def delta_from(self, before):
        """What accrued since ``before`` (a :meth:`copy` taken earlier);
        ``point_in_time`` fields keep their current value."""
        public, _ = _schema(type(self))
        return replace(
            self,
            **{
                f.name: _minus(getattr(self, f.name), getattr(before, f.name), f.name)
                for f in public
                if not f.metadata.get("point_in_time")
            },
        )

    def reset(self) -> None:
        """Restore every field to its declared default (zero)."""
        for f in _schema(type(self))[0]:
            value = f.default_factory() if f.default_factory is not MISSING else f.default
            setattr(self, f.name, value)


class CountersView:
    """A live aggregate over several bundles of one :class:`Counters` class.

    Subclasses set ``member`` to that class.  Every field of the member
    reads as the sum over the bundles, recomputed on each access, so a
    view taken once stays current and before/after deltas work exactly
    as on one bundle.  The member's other properties (its derived
    gauges included) evaluate against those sums.
    """

    member: type = Counters

    def __init__(self, parts):
        self._parts = tuple(parts)
        if not self._parts:
            raise ValueError(
                f"{type(self).__name__} needs at least one "
                f"{self.member.__name__} bundle"
            )

    @property
    def parts(self) -> tuple:
        """The member bundles, in aggregation order."""
        return self._parts

    def __getattr__(self, name: str):
        if name in _field_names(self.member):
            return sum(getattr(part, name) for part in self._parts)
        attr = getattr(self.member, name, None)
        if isinstance(attr, property):
            return attr.fget(self)
        raise AttributeError(f"{type(self).__name__} has no attribute {name!r}")

    def reset(self) -> None:
        """Zero every member bundle."""
        for part in self._parts:
            part.reset()

    def snapshot(self) -> dict:
        """The member's snapshot shape, over the summed counters."""
        return snapshot_of(self, self.member)

    def publish(self, registry, **labels) -> None:
        """Publish the sums under the member's metric names."""
        _publish(self.member, self, registry, labels)


__all__ = [
    "Counters",
    "CountersView",
    "MetricsRegistry",
    "derived",
    "gauge",
    "snapshot_of",
    "snapshot_only",
    "stat",
]
