"""Unified observability for the Enoki reproduction.

Everything the paper's methodology needs to *see* a scheduler: the typed
event taxonomy captured by the kernel trace hook
(:mod:`repro.simkernel.tracing`), a metrics registry with counters,
gauges, and log-bucketed latency histograms (:mod:`~repro.obs.metrics`),
a per-callback profiler for Enoki message handlers
(:mod:`~repro.obs.profiler`), and exporters to Chrome trace-event JSON
(Perfetto-loadable) and ftrace-style text (:mod:`~repro.obs.export`).

:class:`~repro.obs.observer.Observer` ties them together::

    from repro.obs import Observer

    observer = Observer.attach(kernel)
    ... run workload ...
    print(observer.report())
    observer.export_chrome("trace.json")

With no observer attached every hook site is a single ``is None`` test —
the null-hook fast path keeps disabled-tracing overhead near zero.

Each name loads its submodule on first use (:func:`repro.lazy_exports`).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "accounting": "KernelAccounting merge_accounting_snapshots "
                  "task_delay_row",
    "export": "chrome_trace ftrace_lines write_chrome write_ftrace",
    "fleet": "fleet_snapshot machine_gauges merge_fleet_accounting "
             "merge_fleet_wakeup_latency",
    "metrics": "Counter Gauge Histogram MetricsRegistry "
               "merge_histogram_snapshots merge_registry_snapshots",
    "observer": "Observer",
    "profiler": "CallbackProfile CallbackProfiler",
    "telemetry": "SLOMonitor SLOTarget TelemetrySampler build_report "
                 "latency_heatmap render_report_markdown render_top_frame "
                 "timeseries_csv",
})
