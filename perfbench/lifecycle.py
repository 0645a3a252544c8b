"""The program's lifecycle, measured: set-up, then cycles of fit, predict, serve, stream.

Every run gets its fixtures (fitted once per version of the program and
kept), deploys them three times (set-up), and then repeats one *cycle*:
four fits, each followed by one ``predict_proba`` call, a serving chunk and
a stream pass.  So every run reports every end-to-end metric, and each
metric comes from samples spread across the whole run rather than taken in
one stretch.  Host speed drifts over seconds to minutes; interleaving the
phases lets every metric see the same mix of slow and fast moments.  The
number of cycles follows from ``seconds`` alone (``CYCLE_SECONDS`` each), so
a run does the same work on every commit and every metric has the same
sample count.  The workload sets the two input properties the workloads
differ in (see ``WORKLOADS``).

Noise on a shared host only ever adds time, in stretches of one to a few
seconds, so a per-operation timing is the fastest of its samples in the
run: the median of a few samples still measures the neighbours.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import resource
import shutil
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from inputs import GLASS, IONOSPHERE, VEHICLE, Shape, make_table, poisson_offsets
from inputs import query_rows, serving_rows, stream_rows
from serving import KeepAliveClient, Server, closed_loop, open_loop, scrape, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Nominal seconds of one cycle; a run makes ``round(seconds / CYCLE_SECONDS)``.
CYCLE_SECONDS = 8.0

#: Model name of the served tree (its archive is ``<name>.zip``).
SERVED_MODEL = "glass"

#: (shape, strategy) of every fit of a cycle; UDT before UDT-ES on each shape.
FITS = ((GLASS, "UDT"), (GLASS, "UDT-ES"), (IONOSPHERE, "UDT"), (IONOSPHERE, "UDT-ES"))

#: Seed of the fixtures: the training tables, the forest's bootstraps and
#: the stream are fixed, as the paper's tables are; ``--seed`` draws the rest.
FIXTURE_SEED = 0


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the paper-scale benchmark."""

    samples: int = 100
    table_scale: float = 1.0
    predict_rows: int = 512
    reference_rows: int = 256
    forest_members: int = 11
    stream_rows: int = 384
    stream_batch: int = 64
    drift_quantile: float | None = 0.9
    serve_rate: float = 20.0
    serve_requests: int = 30
    closed_seconds: float = 0.3
    hot_share: float = 0.25
    hot_rows: int = 8
    deploys: int = 3


#: workload -> the input properties it sets.  ``reuse`` exercises the
#: response cache (a quarter of served rows repeat a hot set) and the
#: updater's re-splits (the stream drifts in one region); ``fresh`` bypasses
#: both (every served row distinct, a stationary stream).
WORKLOADS = {
    "reuse": {"hot_share": 0.25, "drift_quantile": 0.9},
    "fresh": {"hot_share": 0.0, "drift_quantile": None},
}


def _connections() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def _scaled(shape: Shape, scale: float) -> Shape:
    n_rows = max(shape.n_classes * 8, int(round(shape.n_rows * scale)))
    return Shape(shape.name, n_rows, shape.n_attributes, shape.n_classes,
                 shape.separation, shape.integer_domain)


def _fixture_key(sizes: Sizes) -> str:
    """Hash of the program's and the benchmark's source and the fixture sizes."""
    digest = hashlib.sha256(repr((sizes.samples, sizes.table_scale,
                                  sizes.forest_members)).encode())
    for path in sorted([*(ROOT / "src" / "repro").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _digest(tree) -> str:
    return hashlib.sha256(repr(tree.structure_signature()).encode()).hexdigest()[:16]


class Lifecycle:
    """Fixtures and measurements of one run; ``recorder`` traces it."""

    def __init__(self, workload: str, seed: int, sizes: Sizes, workdir: Path, cache: Path,
                 recorder=None):
        from repro.api.spec import gaussian

        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; expected one of {list(WORKLOADS)}")
        self.seed = seed
        self.sizes = sizes = replace(sizes, **WORKLOADS[workload])
        self.workdir = workdir
        self.cache = cache
        self.recorder = recorder
        self.spec = gaussian(w=0.1, s=sizes.samples)
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.fit_times: dict = defaultdict(list)
        self.fig7: dict = {}
        self.signatures: dict = {}
        self.predict_times: dict = defaultdict(list)
        self.predicted: list = []
        self.open_outcomes: list = []
        self.closed_outcomes: list = []
        self.closed_seconds = 0.0
        self.batch_times: list = []
        self.stream_digests: list = []
        self.metrics: dict = {}
        #: phase -> the (start, end) ``perf_counter`` windows it ran in; the
        #: clock is system-wide, so the server's spans fall in them too.
        self.windows: dict = defaultdict(list)
        self.setup_times: list = []
        self.notes: list = []
        self.layers: dict = {}
        self.layer_bases: dict = {}
        self.server: Server | None = None
        self.server_spans: list = []

    # -- bookkeeping -------------------------------------------------------

    def _check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    # -- set-up --------------------------------------------------------------

    def fit_fixtures(self) -> None:
        """The fixed tables, and the served tree, the forest and the stream's base tree.

        The models depend only on the program's source and the sizes, so they
        are fitted once per version of the program and kept under ``cache``.
        """
        from repro import UDTClassifier
        from repro.ensemble import UDTForestClassifier

        sizes = self.sizes
        self.tables = {
            shape.name: make_table(_scaled(shape, sizes.table_scale), seed=FIXTURE_SEED)
            for shape in (GLASS, IONOSPHERE, VEHICLE)
        }
        X, y = self.tables[GLASS.name]
        XV, yV = self.tables[VEHICLE.name]
        fixtures = self.cache / f"fixtures-{_fixture_key(sizes)}"
        if not fixtures.is_dir():
            partial = fixtures.with_name(fixtures.name + ".partial")
            shutil.rmtree(partial, ignore_errors=True)
            (partial / "models").mkdir(parents=True)
            UDTClassifier(strategy="UDT-ES", spec=self.spec).fit(X, y).save(
                partial / "models" / f"{SERVED_MODEL}.zip")
            UDTForestClassifier(
                strategy="UDT-ES", spec=self.spec, n_estimators=sizes.forest_members,
                random_state=FIXTURE_SEED, n_jobs=1,
            ).fit(X, y).save(partial / "forest.zip")
            (partial / "vehicle.pickle").write_bytes(pickle.dumps(
                UDTClassifier(strategy="UDT-ES", spec=self.spec).fit(XV, yV)))
            partial.rename(fixtures)
        self.models_dir = fixtures / "models"
        self.forest_path = fixtures / "forest.zip"
        self.stream_base = (fixtures / "vehicle.pickle").read_bytes()
        self.stream = stream_rows(XV, yV, sizes.stream_rows, FIXTURE_SEED,
                                  drift_quantile=sizes.drift_quantile)
        self.queries = query_rows(X, sizes.predict_rows, self.seed, "predict")

    def deploy(self, index: int) -> None:
        """Load both archives and start ``repro serve`` until ``/healthz`` answers.

        The server boots on the second core while this process loads the
        archives.  Only the last deploy's server stays up for the cycles.
        """
        from repro.api import persistence

        last = index == self.sizes.deploys - 1
        spans_path = self.workdir / f"server-spans-{index}.json" if self.recorder else None
        start = time.perf_counter()
        server = Server(self.models_dir, self.workdir / "server.log", spans_path)
        try:
            self.tree = persistence.load_model(self.models_dir / f"{SERVED_MODEL}.zip")
            self.forest = persistence.load_model(self.forest_path)
            server.wait_ready()
        except BaseException:
            server.stop()
            raise
        end = time.perf_counter()
        self.windows["setup"] = [(start, end)]
        if last:
            self.server = server
        else:
            server.stop()
        self.setup_times.append(end - start)

    # -- fit and predict -------------------------------------------------------

    def fit_one(self, shape: Shape, strategy: str) -> None:
        """One ``fit`` of ``strategy`` on ``shape``'s table, checked against UDT's tree."""
        from repro import UDTClassifier

        X, y = self.tables[shape.name]
        start = time.perf_counter()
        model = UDTClassifier(strategy=strategy, spec=self.spec).fit(X, y)
        self.fit_times[(shape.name, strategy)].append(time.perf_counter() - start)
        search = model.build_stats_.split_search
        counts = (model.build_stats_.total_entropy_like_calculations,
                  search.lower_bound_evaluations, search.intervals_pruned_by_bound)
        first = self.fig7.setdefault((shape.name, strategy), counts)
        signature = model.tree_.structure_signature()
        same_tree = self.signatures.setdefault(shape.name, signature) == signature
        self._check(first == counts and same_tree,
                    f"fit {shape.name} {strategy}: counts {counts} vs {first}, "
                    f"tree equal to UDT: {same_tree}")

    def predict_one(self, name: str) -> None:
        """``predict_proba`` on the batch, for the tree or for the forest."""
        model = self.tree if name == "tree" else self.forest
        start = time.perf_counter()
        probabilities = model.predict_proba(self.queries)
        self.predict_times[name].append(time.perf_counter() - start)
        self.predicted.append((name, probabilities))

    def check_predictions(self) -> None:
        """Array path against the object path on a seeded sample of rows."""
        from repro.api.spec import build_dataset

        rng = np.random.default_rng([self.seed, 7])
        sample = rng.choice(len(self.queries), size=min(self.sizes.reference_rows,
                                                        len(self.queries)), replace=False)
        references = {}
        for name, model in (("tree", self.tree), ("forest", self.forest)):
            dataset = build_dataset(self.queries[sample], None, spec=model.spec,
                                    extents=model.feature_extents_)
            if name == "tree":
                references[name] = model.tree_.classify_dataset(dataset)
            else:
                references[name] = model.predict_proba(dataset)
        for name, probabilities in self.predicted:
            self._check(np.array_equal(probabilities[sample], references[name]),
                        f"predict {name}: array path differs from the object path")

    # -- serve ---------------------------------------------------------------

    def serve_start(self, cycles: int) -> None:
        """Generate every cycle's request rows and warm both connections up."""
        sizes = self.sizes
        self.connections = _connections()
        n_open = sizes.serve_requests * cycles
        self.n_closed = int(sizes.closed_seconds * 400) + 100
        X = self.tables[GLASS.name][0]
        self.rows = np.vstack([
            serving_rows(X, n_open + self.n_closed * cycles, self.seed,
                         hot_share=sizes.hot_share, hot_rows=sizes.hot_rows),
            query_rows(X, 2 * self.connections, self.seed, "serve-warm"),
        ])
        self.offsets = poisson_offsets(n_open, sizes.serve_rate, self.seed)
        self.client = KeepAliveClient(self.server.host, self.server.port, SERVED_MODEL,
                                      self.rows)
        self.warm = open_loop(self.client, np.zeros(2 * self.connections),
                              len(self.rows) - 2 * self.connections, self.connections)

    def serve_chunk(self, cycle: int) -> None:
        """Open loop over this cycle's share of the schedule, then closed loop."""
        sizes = self.sizes
        first = cycle * sizes.serve_requests
        offsets = self.offsets[first:first + sizes.serve_requests]
        self.open_outcomes += open_loop(self.client, offsets - offsets[0], first,
                                        self.connections)
        first_closed = len(self.offsets) + cycle * self.n_closed
        outcomes, elapsed = closed_loop(self.client, first_closed, self.n_closed,
                                        sizes.closed_seconds, self.connections)
        self.closed_outcomes += outcomes
        self.closed_seconds += elapsed

    def serve_finish(self) -> None:
        """Scrape and stop the server, then check every served row offline."""
        from repro.api import persistence

        engine = scrape(self.server)
        self.metrics["peak_rss_mb"] = self.server.peak_rss_mb()
        self.server.stop()
        if self.recorder is not None:
            from tracing import load_spans

            self.server_spans = load_spans(
                self.workdir / f"server-spans-{self.sizes.deploys - 1}.json")

        offline = persistence.load_model(self.models_dir / f"{SERVED_MODEL}.zip")
        outcomes = self.warm + self.open_outcomes + self.closed_outcomes
        served = sorted({outcome.row for outcome in outcomes})
        expected = dict(zip(served, offline.predict_proba(self.rows[served])))
        for outcome in outcomes:
            ok = outcome.status == 200 and np.array_equal(
                np.asarray(outcome.probabilities), expected[outcome.row])
            self._check(ok, f"serve row {outcome.row}: status {outcome.status}")

        latencies = np.array([(o.done - o.due) * 1e3 for o in self.open_outcomes])
        tail = tail_percentile(len(latencies))
        completed = sum(1 for o in self.closed_outcomes if o.status == 200)
        self.metrics["serve_p50_ms"] = float(np.percentile(latencies, 50))
        self.metrics["serve_tail_ms"] = float(np.percentile(latencies, tail))
        self.metrics["serve_capacity_rps"] = completed / self.closed_seconds
        self.notes.append(
            f"serve_tail_ms is p{tail:g} of {len(latencies)} open-loop requests at "
            f"{self.sizes.serve_rate:g}/s on {self.connections} connection(s); capacity "
            f"from {len(self.closed_outcomes)} closed-loop requests")
        # Back to back on a kept-alive connection is where the transport
        # stalls; the open loop's gaps often let the connection idle past it.
        closed_p50_ms = float(np.median(
            [(o.done - o.sent) * 1e3 for o in self.closed_outcomes]))
        self.layers.update({
            "http.transport_wait_ms": closed_p50_ms - engine.server_p50_ms,
            "engine.queue_wait_ms": engine.stage_mean_ms.get("queue_wait", 0.0),
            "engine.batch_wait_ms": engine.stage_mean_ms.get("batch_wait", 0.0),
            "engine.inference_ms": engine.stage_mean_ms.get("inference", 0.0),
            "engine.mean_batch_rows": engine.mean_batch_rows,
            "engine.cache_hit_ratio": engine.cache_hit_ratio,
            "engine.rejected": float(engine.rejected),
            "generator.late_ms": float(np.median(
                [(o.sent - o.due) * 1e3 for o in self.open_outcomes])),
        })
        self.layer_bases.update({
            "http.transport_wait_ms": f"closed-loop client p50 {closed_p50_ms:.3f} ms - "
                                      f"server-recorded p50 {engine.server_p50_ms:.3f} ms",
            "engine.cache_hit_ratio": f"of {engine.cache_lookups} cache lookups",
        })

    # -- stream --------------------------------------------------------------

    def stream_pass(self) -> None:
        """The fixed stream, in batches, into a fresh copy of the Vehicle tree."""
        model = pickle.loads(self.stream_base)
        X, y = self.stream
        step = self.sizes.stream_batch
        resplits = 0
        for first in range(0, len(y), step):
            start = time.perf_counter()
            model.partial_fit(X[first:first + step], y[first:first + step])
            self.batch_times.append(time.perf_counter() - start)
            resplits += model.last_update_report_.n_resplits
            self.attempted += 1
        digest = (_digest(model.tree_), resplits)
        if self.stream_digests and digest != self.stream_digests[0]:
            self.failed += 1
            self.failures.append(f"stream pass: {digest} vs {self.stream_digests[0]}")
        self.stream_digests.append(digest)

    # -- the whole run ---------------------------------------------------------

    def _timed(self, phase: str, unit, *args) -> None:
        start = time.perf_counter()
        unit(*args)
        self.windows[phase].append((start, time.perf_counter()))

    def run(self, seconds: float) -> dict:
        """Set up, then ``round(seconds / CYCLE_SECONDS)`` cycles (at least one)."""
        cycles = max(1, round(seconds / CYCLE_SECONDS))
        try:
            start = time.perf_counter()
            self.fit_fixtures()
            fixtures_s = time.perf_counter() - start
            self.workdir.mkdir(parents=True, exist_ok=True)
            for index in range(self.sizes.deploys):
                self.deploy(index)
            self.serve_start(cycles)
            for cycle in range(cycles):
                # A predict call follows each fit, so both sample the whole cycle.
                for number, (shape, strategy) in enumerate(FITS):
                    self._timed("fit", self.fit_one, shape, strategy)
                    self._timed("predict", self.predict_one, ("tree", "forest")[number % 2])
                self._timed("serve", self.serve_chunk, cycle)
                self._timed("stream", self.stream_pass)
            self.serve_finish()
            self.check_predictions()
        finally:
            if self.server is not None:
                self.server.stop()
        self.metrics["setup_s"] = statistics.median(self.setup_times)
        for (shape, strategy), times in self.fit_times.items():
            key = {"Glass": "glass", "Ionosphere": "iono"}[shape]
            suffix = "udt" if strategy == "UDT" else "es"
            self.metrics[f"fit_{key}_{suffix}_s"] = min(times)
        for name, times in self.predict_times.items():
            self.metrics[f"predict_{name}_rows_s"] = len(self.queries) / min(times)
        # Batches differ in cost along the stream, so the fastest pass is
        # taken batch by batch.
        per_batch = np.min(np.reshape(self.batch_times, (len(self.stream_digests), -1)), axis=0)
        self.metrics["update_rows_s"] = len(self.stream[1]) / float(per_batch.sum())
        self.metrics["update_p50_ms"] = float(np.median(per_batch)) * 1e3
        phase_seconds = {phase: sum(end - begin for begin, end in spans)
                         for phase, spans in self.windows.items() if phase != "setup"}
        self.notes += [
            f"{cycles} cycle(s); phase seconds: fixtures {fixtures_s:.1f}, " + ", ".join(
                f"{phase} {elapsed:.1f}" for phase, elapsed in phase_seconds.items()),
            "setup_s is the median of deploys reading " + ", ".join(
                f"{elapsed:.3f}" for elapsed in self.setup_times) + " s",
            "peak RSS of the benchmark process "
            f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f} MiB",
        ]
        return self.metrics

    def counts(self) -> dict:
        """Exact counters that must repeat for one seed: Fig. 7 and the stream."""
        return {
            "fig7": {f"{shape} {strategy}": list(counts)
                     for (shape, strategy), counts in sorted(self.fig7.items())},
            "stream": list(self.stream_digests[0]),
        }
