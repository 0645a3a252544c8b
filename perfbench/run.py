"""The repository's benchmark: paper-scale fit, batch predict, serving, streaming.

Usage (from the repository root)::

    python3 perfbench/run.py --workload reuse --seed 1 --seconds 48 --trace 0

Every run sets up its fixtures, passes through all four phases (see
``lifecycle.py``) and prints the metrics, then one JSON line
``{"correct", "attempted", "failed", "metrics"}`` as the last line of
standard output.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports the per-layer metrics of a traced pass over half the
cycles, writes its spans to ``.bench_build/perfbench/`` and compares it with
an untraced pass over the other half to give the tracing overhead.  See
``README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".bench_build" / "perfbench"

#: name -> (unit, better): every end-to-end metric, as in BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "fit_glass_udt_s": ("s", "lower"),
    "fit_glass_es_s": ("s", "lower"),
    "fit_iono_udt_s": ("s", "lower"),
    "fit_iono_es_s": ("s", "lower"),
    "predict_tree_rows_s": ("rows/s", "higher"),
    "predict_forest_rows_s": ("rows/s", "higher"),
    "serve_p50_ms": ("ms", "lower"),
    "serve_tail_ms": ("ms", "lower"),
    "serve_capacity_rps": ("1/s", "higher"),
    "update_rows_s": ("rows/s", "higher"),
    "update_p50_ms": ("ms", "lower"),
}

#: name -> unit: every per-layer metric of the traced run.
PER_LAYER = {
    "spec.materialise_s": "s",
    "spec.cells": "count",
    "spec.us_per_cell": "us",
    "columnar.store_s": "s",
    "columnar.contexts_s": "s",
    "columnar.contexts_calls": "count",
    "columnar.partition_s": "s",
    "strategies.search_s": "s",
    "strategies.bounds_s": "s",
    "strategies.sweeps_s": "s",
    "strategies.entropy_calcs": "count",
    "strategies.lower_bounds": "count",
    "strategies.pruned_ratio": "ratio",
    "postprune.s": "s",
    "builder.self_s": "s",
    "tree.descend_s": "s",
    "forest.members_descended": "count",
    "http.transport_wait_ms": "ms",
    "engine.queue_wait_ms": "ms",
    "engine.batch_wait_ms": "ms",
    "engine.inference_ms": "ms",
    "engine.mean_batch_rows": "rows",
    "engine.cache_hit_ratio": "ratio",
    "engine.rejected": "count",
    "generator.late_ms": "ms",
    "stream.partial_fit_s": "s",
    "stream.resplits": "count",
    "stream.gain_checks": "count",
    "stream.gain_check_s": "s",
    "stream.resplit_accept_ratio": "ratio",
    "persistence.load_s": "s",
    "trace.overhead_pct": "%",
}


def _import_program() -> None:
    """Put the checkout's ``src`` and this directory on the import path."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: the program's source is missing: {source / 'repro'}")
    sys.path[:0] = [str(source), str(HERE)]


#: per-layer metric group -> the phases whose metrics it explains; its
#: spans are counted only in those phases' windows (see README.md).
PHASES = {
    "spec": ("fit", "predict", "stream"),
    "columnar": ("fit", "predict"),
    "fit": ("fit",),
    "builder": ("fit", "stream"),
    "predict": ("predict",),
    "stream": ("stream",),
    "setup": ("setup",),
}


def per_layer(lifecycle, spans: list, overhead_pct: float) -> tuple:
    """``(values, bases)``: the per-layer table of one traced pass."""
    from tracing import layer_times

    def phase_times(group: str):
        windows = [window for phase in PHASES[group] for window in lifecycle.windows[phase]]
        times: dict = {}
        for process_spans in spans:
            for key, value in layer_times(process_spans, windows).items():
                times[key] = times.get(key, 0.0) + value
        return lambda key: times.get(key, 0.0)

    spec, columnar, fit, builder, predict, stream, setup = map(phase_times, PHASES)
    materialise = spec("spec.build_dataset.total") + spec("spec.compute_extents.total")
    cells = spec("spec.build_dataset.value")
    es = [counts for (_, strategy), counts in lifecycle.fig7.items() if strategy == "UDT-ES"]
    bound_tests = sum(counts[1] for counts in es)
    passes = len(lifecycle.stream_digests)
    resplits = lifecycle.stream_digests[0][1]
    gain_checks = stream("builder.root_split_gain.calls") / passes
    values = {
        "spec.materialise_s": materialise,
        "spec.cells": cells,
        "spec.us_per_cell": materialise / cells * 1e6 if cells else 0.0,
        "columnar.store_s": columnar("columnar.from_dataset.total"),
        "columnar.contexts_s": columnar("columnar.build_contexts.total"),
        "columnar.contexts_calls": columnar("columnar.build_contexts.calls"),
        "columnar.partition_s": fit("partition.fit"),
        "strategies.search_s": fit("strategies.find_best_split.self"),
        "strategies.bounds_s": fit("strategies.build_interval_table.total"),
        "strategies.sweeps_s": fit("strategies.prepare_sweep_group.total"),
        "strategies.entropy_calcs": sum(counts[0] for counts in es),
        "strategies.lower_bounds": bound_tests,
        "strategies.pruned_ratio":
            sum(counts[2] for counts in es) / bound_tests if bound_tests else 0.0,
        "postprune.s": fit("postprune.pessimistic_prune.total"),
        "builder.self_s": builder("builder.build.self"),
        "tree.descend_s": predict("tree.classify_batch.self"),
        "forest.members_descended": predict("forest.members"),
        **lifecycle.layers,
        "stream.partial_fit_s": stream("tree.partial_fit.total"),
        "stream.resplits": resplits,
        "stream.gain_checks": gain_checks,
        "stream.gain_check_s": stream("builder.root_split_gain.total"),
        "stream.resplit_accept_ratio": resplits / gain_checks if gain_checks else 0.0,
        "persistence.load_s": setup("persistence.load_model.total"),
        "trace.overhead_pct": overhead_pct,
    }
    bases = dict(lifecycle.layer_bases)
    bases.update({
        "spec.us_per_cell": f"{materialise:.4f} s over {cells:.0f} cells",
        "strategies.entropy_calcs": "both UDT-ES fits of one fit round (Fig. 7 count)",
        "strategies.lower_bounds": "both UDT-ES fits of one fit round",
        "strategies.pruned_ratio": f"intervals pruned / {bound_tests} lower-bound tests",
        "stream.resplits": "one stream pass",
        "stream.gain_checks": "one stream pass",
        "stream.resplit_accept_ratio": f"{resplits} re-splits / {gain_checks:.0f} gain checks",
        "forest.members_descended": "classify_batch calls under forest predict_proba",
        "persistence.load_s": "the last deploy: both archives here, the preload in the server",
    })
    return values, bases


def overhead(traced: dict, plain: dict) -> tuple:
    """``(median %, per-metric %)``: how much worse each timing read when traced."""
    shares = {}
    for name, (_, better) in END_TO_END.items():
        if name == "peak_rss_mb":
            continue
        ratio = traced[name] / plain[name] if better == "lower" else plain[name] / traced[name]
        shares[name] = (ratio - 1.0) * 100.0
    return statistics.median(shares.values()), shares


def _check_counts(key: str, counts: dict, state: Path) -> bool:
    """Exact counters of one workload and seed must repeat from run to run."""
    path = state / f"counts-{key}.json"
    if path.exists():
        return json.loads(path.read_text()) == counts
    path.write_text(json.dumps(counts))
    return True


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None,
        state: Path = STATE) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    from lifecycle import Lifecycle, Sizes

    sizes = sizes or Sizes()
    state.mkdir(parents=True, exist_ok=True)
    workdir = state / f"work-{workload}-seed{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    runs = []
    try:
        if trace:
            from tracing import Recorder

            recorder = Recorder()
            recorder.install()
            try:
                traced = Lifecycle(workload, seed, sizes, workdir / "traced", state, recorder)
                traced.run(seconds / 2)
            finally:
                recorder.uninstall()
            plain = Lifecycle(workload, seed, sizes, workdir / "plain", state)
            plain.run(seconds / 2)
            runs = [traced, plain]
            spans = [recorder.finished(), traced.server_spans]
            spans_path = state / f"spans-{workload}-seed{seed}.json"
            spans_path.write_text(json.dumps({"benchmark": spans[0], "server": spans[1]}))
            median_pct, shares = overhead(traced.metrics, plain.metrics)
            values, bases = per_layer(traced, spans, median_pct)
            units = PER_LAYER
            print(f"spans: {spans_path}")
            print(f"per-layer seconds and calls are totals over the traced pass's "
                  f"{len(traced.stream_digests)} cycle(s)")
            print("tracing overhead per end-to-end metric (traced vs untraced pass):")
            for name, share in shares.items():
                print(f"  {name:24s} {share:+7.1f} %")
        else:
            lifecycle = Lifecycle(workload, seed, sizes, workdir, state)
            values = lifecycle.run(seconds)
            runs = [lifecycle]
            bases = {}
            units = {name: unit for name, (unit, _) in END_TO_END.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(item.attempted for item in runs) + 1
    failed = sum(item.failed for item in runs)
    failures = [text for item in runs for text in item.failures]
    if not _check_counts(f"{workload}-seed{seed}", runs[0].counts(), state):
        failed += 1
        failures.append("Fig. 7 counts or stream re-splits differ from an earlier run")
    print(f"workload {workload}, seed {seed}:")
    for note in runs[0].notes:
        print(f"  {note}")
    for name, unit in units.items():
        base = f"  ({bases[name]})" if name in bases else ""
        print(f"  {name:28s} {values[name]:14.4f} {unit}{base}")
    for text in failures[:20]:
        print(f"FAILED: {text}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("reuse", "fresh"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
