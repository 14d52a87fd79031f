"""repro.obs — unified telemetry for the filter/LSM stack.

The measurement layer the tutorial's methodology requires: a
dependency-free metrics registry (counters, gauges, log-bucketed
histograms), lightweight probe tracing with nesting and a ring-buffer
recorder, an :class:`InstrumentedFilter` proxy that observes any filter,
and Prometheus / JSON / table exporters.  See docs/observability.md.

Quickstart
----------
>>> from repro import obs
>>> with obs.use_registry() as reg:
...     reg.counter("repro_demo_total", "demo").inc()
...     print(obs.to_prometheus(reg))  # doctest: +SKIP

Library code declares each family once as a :class:`Family` constant and
emits into :func:`default_registry`; the CLI surface is
``python -m repro stats`` and ``python -m repro trace``.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Family,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    declared_families,
    default_registry,
    log_buckets,
    registry_from_snapshot,
    set_default_registry,
    timed,
    use_registry,
    validate_label_name,
    validate_metric_name,
)
from repro.obs.tracing import (
    Span,
    TraceRecorder,
    current_span,
    render_tree,
    set_default_recorder,
    trace,
    use_recorder,
)
from repro.obs.instrument import InstrumentedFilter, instrument
from repro.obs.export import (
    flat_samples,
    from_json,
    parse_prometheus,
    render_table,
    selftest,
    to_json,
    to_prometheus,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Family",
    "Gauge",
    "Histogram",
    "InstrumentedFilter",
    "MetricError",
    "MetricsRegistry",
    "Span",
    "TraceRecorder",
    "current_span",
    "declared_families",
    "default_registry",
    "flat_samples",
    "from_json",
    "instrument",
    "log_buckets",
    "parse_prometheus",
    "registry_from_snapshot",
    "render_table",
    "render_tree",
    "selftest",
    "set_default_recorder",
    "set_default_registry",
    "timed",
    "to_json",
    "to_prometheus",
    "trace",
    "use_recorder",
    "use_registry",
    "validate_label_name",
    "validate_metric_name",
]
