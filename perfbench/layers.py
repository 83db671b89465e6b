"""The layers the traced run times, and what each per-layer metric means.

Layers are named by their ``repro.*`` package.  ``WRAPS`` lists the
entry points the launcher wraps; ``PER_LAYER`` maps every per-layer
metric to the workload that exercises it and to the end-to-end metric
it should move there.  A traced run prints every metric on every
workload: a layer the workload never enters reads 0.

Units: ``_s`` metrics are seconds summed over the run (self time of the
layer's spans, across every process, unless noted), ``_ms`` metrics are
milliseconds per call or per request, and ratios are plain numbers.
"""

from __future__ import annotations

#: (span name, module, attribute, scope) -- see ``spans.install``.
WRAPS = (
    ("workloads.synthesize", "repro.workloads.generator", "synthesize_trace", "everywhere"),
    ("trace.line_runs", "repro.trace.rle", "to_line_runs", "everywhere"),
    ("caches.miss_masks", "repro.caches.vectorized", "LineOrderCache.miss_masks", None),
    ("caches.miss_masks", "repro.caches.vectorized", "LineOrderCache.miss_mask", None),
    ("fetch.kernel", "repro.fetch.vectorized", "run_vectorized", "everywhere"),
    # Only evaluate_trace's binding: there measure_mpi prices the L2.
    ("core.l2_mpi", "repro.core.study", "measure_mpi", "module"),
    ("monitor.measure", "repro.monitor.hwcounters", "HardwareMonitor.measure", None),
    ("tapeworm.grid", "repro.tapeworm.trapdriven", "TapewormSimulator.run_grid", None),
    ("plan.compile", "repro.plan.compile", "compile_report", "everywhere"),
    ("plan.compile", "repro.plan.compile", "compile_module", "everywhere"),
    ("plan.prime", "repro.plan.executor", "_prime_inputs", "module"),
    ("plan.execute", "repro.plan.executor", "execute_cells", "everywhere"),
    ("runner.pool", "repro.runner.pool", "run_cells", "everywhere"),
    ("runner.cell", "repro.runner.pool", "_execute_cell", "module"),
    ("runner.trace_load", "repro.runner.cache", "TraceDiskCache.load", None),
    ("service.dispatch", "repro.service.app", "ServiceApp.dispatch", None),
    ("service.parse", "repro.service.app", "read_request", "module"),
    ("service.parse", "repro.service.http", "Request.json", None),
    ("service.store_get", "repro.service.store", "ResultStore.get", None),
    ("service.store_put", "repro.service.store", "ResultStore.put", None),
    ("service.serialize", "repro.service.http", "Response.from_json", None),
    ("service.serialize", "repro.service.http", "Response.encode", None),
    ("service.job", "repro.service.scheduler", "JobScheduler._execute_eval_batch", None),
    # A request awaiting its job: waiting, covered here so that it is
    # not counted as unaccounted time of the request.
    ("service.job_wait", "repro.service.scheduler", "Job.wait", None),
)

#: Every experiment result's ``render`` method is wrapped as this span.
RENDER_SPAN = "experiments.render"

#: Spans that start a unit of program work.  Their self time -- time
#: inside them that no wrapped layer covers -- is ``unaccounted_s``.
ROOT_SPANS = ("run", "runner.cell", "service.dispatch", "service.job")

#: name -> (unit, better, workload, end-to-end metric it should move
#: there, meaning)
PER_LAYER = {
    # report: the serial prime moves wall_s one-for-one; work inside
    # pool cells moves it by about 1/jobs unless it sits in the
    # critical cell.
    "workloads.synthesize_s": ("s", "lower", "report", "wall_s, cpu_ms", "trace synthesis"),
    "trace.line_runs_s": ("s", "lower", "report", "wall_s, cpu_ms", "RLE line-run encoding"),
    "caches.miss_masks_s": ("s", "lower", "report, serve-mixed", "wall_s, cpu_ms; miss_p50_ms, miss_p95_ms, cpu_ms", "stack-distance and direct-mapped miss masks"),
    "fetch.kernel_s": ("s", "lower", "report, serve-mixed", "wall_s, cpu_ms; miss_p50_ms, miss_p95_ms, cpu_ms", "vectorized fetch-timing kernels"),
    "core.l2_mpi_s": ("s", "lower", "report", "wall_s, cpu_ms", "L2 MPI measurement in evaluate_trace"),
    "monitor.measure_s": ("s", "lower", "report", "wall_s, cpu_ms", "hwcounters machine model"),
    "tapeworm.grid_s": ("s", "lower", "report", "wall_s, cpu_ms", "Tapeworm trial translation grid"),
    "plan.compile_s": ("s", "lower", "report", "wall_s, cpu_ms", "plan compilation"),
    "plan.prime_s": ("s", "lower", "report", "wall_s, cpu_ms", "serial shared-input priming (inclusive)"),
    "experiments.render_s": ("s", "lower", "report", "wall_s, cpu_ms", "result rendering"),
    "plan.prime_share": ("ratio", "lower", "report", "wall_s, cpu_ms", "plan.prime_s / report wall"),
    "runner.busy_ratio": ("ratio", "higher", "report", "wall_s, cpu_ms", "sum of cell walls / (jobs x pool wall)"),
    "runner.critical_cell_s": ("s", "lower", "report", "wall_s, cpu_ms", "longest pool cell"),
    "caches.order_evictions": ("count", "lower", "report", "wall_s, cpu_ms", "line-order memo evictions"),
    "fetch.reference_share": ("ratio", "lower", "report", "wall_s, cpu_ms", "reference-engine share of fetch dispatches"),
    # serve-hit: rps and hit p50 move with the per-request server path.
    "service.handle_ms": ("ms", "lower", "serve-hit", "rps, hit_p50_ms, cpu_ms", "server request_seconds per request"),
    "service.parse_ms": ("ms", "lower", "serve-hit", "rps, hit_p50_ms, cpu_ms", "request parsing per request"),
    "service.store_get_ms": ("ms", "lower", "serve-hit", "rps, hit_p50_ms, cpu_ms", "result-store reads per request"),
    "service.serialize_ms": ("ms", "lower", "serve-hit", "rps, hit_p50_ms, cpu_ms", "response serialization per request"),
    "service.store_hit_ratio": ("ratio", "higher", "serve-hit", "rps, hit_p50_ms, cpu_ms", "store hits / lookups"),
    # serve-hit: the hit tail moves with the client side.
    "loadgen.client_ms": ("ms", "lower", "serve-hit", "hit_p99_ms", "client latency minus server time, per request"),
    "loadgen.cpu_util": ("ratio", "lower", "serve-hit", "hit_p99_ms", "load-generator CPU seconds / wall seconds"),
    # serve-mixed: miss latency moves with the compute path of a miss.
    "service.queue_wait_ms": ("ms", "lower", "serve-mixed", "miss_p50_ms, miss_p95_ms, cpu_ms", "job wait before an executor thread"),
    "service.job_ms": ("ms", "lower", "serve-mixed", "miss_p50_ms, miss_p95_ms, cpu_ms", "evaluate job execution"),
    "service.batch_size": ("count", "higher", "serve-mixed", "miss_p50_ms, miss_p95_ms, cpu_ms", "requests per evaluate batch"),
    "plan.execute_ms": ("ms", "lower", "serve-mixed", "miss_p50_ms, miss_p95_ms, cpu_ms", "execute_cells per call"),
    "runner.trace_load_ms": ("ms", "lower", "serve-mixed", "miss_p50_ms, miss_p95_ms, cpu_ms", "disk trace-cache load per call"),
    "service.store_put_ms": ("ms", "lower", "serve-mixed", "hit_p99_ms", "fsynced result-store write per call"),
    "service.shed": ("count", "lower", "serve-mixed", "error_rate (ok_rate)", "requests shed with 429"),
    "loadgen.late_p99_ms": ("ms", "lower", "serve-mixed", "validity", "p99 of how late the open loop emitted"),
    # every workload
    "unaccounted_s": ("s", "lower", "all", "-", "self time of root spans"),
    "trace_overhead": ("ratio", "lower", "all", "-", "traced / untraced wall (serve: mean latency)"),
}
