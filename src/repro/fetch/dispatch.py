"""Engine labels for the fetch-timing dispatch accounting.

``engine="auto"`` silently picks between the vectorized kernels and the
reference engines per (mechanism, geometry, options) cell.  That silence
is exactly how coverage regressions hide: a kernel that stops matching a
sweep's shape quietly turns a numpy pass into a per-run Python loop and
the only symptom is wall-clock.  :func:`repro.core.study.fetch_result`
therefore emits every decision as a ``"dispatch"`` event keyed
``(mechanism, engine)`` on the one event stream
(:func:`repro.obs.tracing.emit`), which feeds the ``engine_dispatch``
sections of ``--timing-out`` reports and spans and the serving tier's
``repro_engine_dispatch_total{mechanism,engine}`` counters.
"""

#: Engine labels recorded at the dispatch point.
ENGINE_VECTORIZED = "vectorized"
ENGINE_REFERENCE = "reference"
