"""Serving throughput: micro-batching vs single-row requests.

The serving-side analogue of the paper's Figs. 6-7 efficiency story: just as
UDT amortises entropy work across a tuple's pdf samples, the serving
subsystem amortises the per-call costs (HTTP round trip, spec conversion
set-up, pdf store construction) across the rows of a coalesced batch.  This
driver measures, over a live :class:`~repro.serve.http.ServingHTTPServer`
on the loopback interface:

* **client-side batching** — rows/sec and per-request latency when the same
  row stream is posted in requests of 1, 8 and 64 rows;
* **server-side coalescing** — concurrent single-row clients whose requests
  the engine's coalescer regroups into larger model invocations (reported
  as the mean coalesced batch size from ``/metrics``).

Artifacts: ``serving_throughput.txt`` (human-readable table) and
``BENCH_serving_throughput.json`` with one record per measured
configuration.  The acceptance bar asserted here: micro-batched throughput
(64-row requests) is at least 5x the single-row-per-request throughput.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.api import UDTClassifier
from repro.api.spec import gaussian

from helpers import BENCH_SAMPLES, save_artifact, save_json_artifact

#: Client-side rows per request (the micro-batching sweep).
_BATCH_SIZES = (1, 8, 64)

#: Rows pushed through the server per measured configuration.
_TOTAL_ROWS = 256

#: Concurrent single-row clients in the coalescing measurement.
_CONCURRENCY = 16

_N_FEATURES = 4


def _build_model_dir(tmp_path):
    """Train one small model and save it as ``demo.zip`` under ``tmp_path``."""
    rng = np.random.default_rng(31)
    X = rng.normal(size=(150, _N_FEATURES))
    y = np.where(X[:, 0] + X[:, 2] > 0, "pos", "neg")
    model = UDTClassifier(
        spec=gaussian(w=0.1, s=max(BENCH_SAMPLES // 4, 6)), min_split_weight=4.0
    ).fit(X, y)
    model.save(tmp_path / "demo.zip")
    return rng.normal(size=(_TOTAL_ROWS, _N_FEATURES))


def _start_server(models_dir, **options):
    from repro.serve import ServingClient, create_server

    server = create_server(models_dir, port=0, cache_size=0, preload=True, **options)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread, ServingClient(server.url)


def _measure_batched(client, rows, batch_size: int) -> dict:
    """Push every row through the server in ``batch_size``-row requests."""
    latencies = []
    start = time.perf_counter()
    for begin in range(0, len(rows), batch_size):
        request_start = time.perf_counter()
        client.predict("demo", rows[begin:begin + batch_size], proba=True)
        latencies.append(time.perf_counter() - request_start)
    elapsed = time.perf_counter() - start
    stamps = np.asarray(latencies)
    return {
        "requests": len(latencies),
        "rows": len(rows),
        "wall_seconds": elapsed,
        "rows_per_second": len(rows) / elapsed,
        "latency_ms_mean": float(stamps.mean() * 1e3),
        "latency_ms_p50": float(np.percentile(stamps, 50) * 1e3),
        "latency_ms_p99": float(np.percentile(stamps, 99) * 1e3),
    }


def _measure_coalescing(models_dir, rows) -> dict:
    """Concurrent single-row clients; the server's coalescer does the batching."""
    from concurrent.futures import ThreadPoolExecutor

    server, thread, client = _start_server(
        models_dir, max_batch=64, max_wait_ms=2.0
    )
    try:
        client.predict("demo", rows[:1])  # warm-up: model load + first batch
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=_CONCURRENCY) as pool:
            list(pool.map(lambda i: client.predict("demo", rows[i]), range(len(rows))))
        elapsed = time.perf_counter() - start
        metrics = client.metrics()
    finally:
        server.close()
        thread.join(timeout=5.0)
    # Subtract the warm-up invocation from the histogram-derived counts.
    batches = metrics["batch_count"] - 1
    return {
        "mode": "coalesced-concurrent",
        "concurrency": _CONCURRENCY,
        "requests": len(rows),
        "rows": len(rows),
        "wall_seconds": elapsed,
        "rows_per_second": len(rows) / elapsed,
        "model_invocations": batches,
        "mean_coalesced_batch": (len(rows) / batches) if batches else float(len(rows)),
        "batch_size_histogram": metrics["batch_size_histogram"],
    }


def bench_serving_throughput(benchmark, tmp_path):
    """Measure the full sweep and write the serving-throughput artifacts."""
    rows = _build_model_dir(tmp_path)

    def sweep() -> list:
        records = []
        server, thread, client = _start_server(tmp_path, max_batch=64, max_wait_ms=0.5)
        try:
            client.predict("demo", rows[:1])  # warm-up
            for batch_size in _BATCH_SIZES:
                measured = _measure_batched(client, rows, batch_size)
                records.append(
                    {"mode": "client-batched", "batch_size": batch_size, **measured}
                )
        finally:
            server.close()
            thread.join(timeout=5.0)
        records.append(_measure_coalescing(tmp_path, rows))
        return records

    records = benchmark(sweep)

    throughput = {
        r["batch_size"]: r["rows_per_second"]
        for r in records
        if r["mode"] == "client-batched"
    }
    speedup = throughput[64] / throughput[1]
    coalesced = next(r for r in records if r["mode"] == "coalesced-concurrent")

    lines = [
        f"{'rows/req':>8}  {'rows/sec':>9}  {'p50 ms':>7}  {'p99 ms':>7}",
    ]
    for record in records:
        if record["mode"] != "client-batched":
            continue
        lines.append(
            f"{record['batch_size']:>8}  "
            f"{record['rows_per_second']:>9.0f}  "
            f"{record['latency_ms_p50']:>7.2f}  {record['latency_ms_p99']:>7.2f}"
        )
    lines.append("")
    lines.append(f"micro-batching speedup (64 rows/request vs 1): {speedup:.1f}x")
    lines.append(
        f"server-side coalescing ({_CONCURRENCY} concurrent single-row clients): "
        f"{coalesced['rows_per_second']:.0f} rows/sec, "
        f"mean coalesced batch {coalesced['mean_coalesced_batch']:.1f}"
    )
    save_artifact(
        "serving_throughput",
        "Serving throughput — micro-batching vs single-row requests",
        "\n".join(lines),
    )
    save_json_artifact(
        "serving_throughput",
        records,
        params={
            "total_rows": _TOTAL_ROWS,
            "batch_sizes": list(_BATCH_SIZES),
            "concurrency": _CONCURRENCY,
            "max_batch": 64,
        },
        extra={
            "speedup_batch64_vs_single": speedup,
            "coalesced_rows_per_second": coalesced["rows_per_second"],
        },
    )

    # Acceptance bar: amortising per-request costs over 64-row batches must
    # buy at least 5x throughput.
    assert speedup >= 5.0, throughput
    # And the coalescer did coalesce: concurrent single-row requests reached
    # the model in strictly fewer, larger invocations.
    assert coalesced["model_invocations"] < coalesced["requests"]
    assert coalesced["mean_coalesced_batch"] > 1.0
