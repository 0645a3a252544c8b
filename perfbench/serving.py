"""The ``repro serve`` subprocess and the benchmark's own keep-alive client.

The client speaks HTTP/1.1 through ``http.client`` with one persistent
connection per thread, so a request after the first on a connection pays
whatever the server's send pattern costs a kept-alive socket.  Phase 1 is an
open loop (requests due on a Poisson schedule, latency timed from when each
was due); phase 2 is a closed loop (each connection sends back to back).
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"


class Server:
    """``repro serve`` on loopback with default cache and linger, one worker.

    With ``spans_path`` the server starts through the benchmark's launcher,
    which wraps the same layer functions as the traced benchmark process and
    writes the server's spans to ``spans_path`` when it shuts down.
    """

    def __init__(self, models_dir: Path, log_path: Path, spans_path: Path | None = None):
        args = ["serve", "--models", str(models_dir), "--port", "0", "--workers", "1",
                "--preload"]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, str(LAUNCHER), str(spans_path), *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._log = open(log_path, "wb")
        self.process = subprocess.Popen(
            command, stdout=self._log, stderr=subprocess.STDOUT, env=env, cwd=str(ROOT)
        )
        self.log_path = log_path
        self.host, self.port = "", 0

    def wait_ready(self, timeout: float = 120.0) -> None:
        """Block until the server printed its address and answers ``/healthz``."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = re.search(rb"on http://([\d.]+):(\d+)", self.log_path.read_bytes())
            if match:
                self.host, self.port = match.group(1).decode(), int(match.group(2))
                self._wait_healthy()
                return
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(
            f"repro serve did not start: {self.log_path.read_text(errors='replace')}")

    def _wait_healthy(self) -> None:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            response.read()
            if response.status != 200:
                raise RuntimeError(f"/healthz answered {response.status}")
        finally:
            connection.close()

    def get(self, path: str, accept: str | None = None) -> bytes:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            connection.request("GET", path, headers={"Accept": accept} if accept else {})
            response = connection.getresponse()
            return response.read()
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        """The server process's peak resident set (``VmHWM``) in MiB."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM (the server's clean shutdown path), then wait for the exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self._log.close()


@dataclass
class Outcome:
    """One request: when it was due, sent and answered, and what came back."""

    row: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    probabilities: list | None = None


class KeepAliveClient:
    """One persistent ``http.client`` connection per calling thread."""

    def __init__(self, host: str, port: int, model: str, rows: np.ndarray):
        self.host, self.port = host, port
        self.path = f"/v1/models/{model}:predict"
        self.bodies = [json.dumps({"rows": [row.tolist()]}).encode() for row in rows]

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=30)

    def send(self, connection: http.client.HTTPConnection, outcome: Outcome) -> None:
        outcome.sent = time.perf_counter()
        try:
            connection.request(
                "POST", self.path, body=self.bodies[outcome.row],
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = response.read()
            outcome.status = response.status
            if response.status == 200:
                outcome.probabilities = json.loads(payload)["probabilities"][0]
            elif response.getheader("Connection", "").lower() == "close":
                connection.close()
        except (OSError, http.client.HTTPException):
            outcome.status = -1
            connection.close()
        outcome.done = time.perf_counter()


def _run_threads(target, n_threads: int) -> None:
    threads = [threading.Thread(target=target, daemon=True) for _ in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        if thread.is_alive():
            raise RuntimeError("client thread did not finish")


def open_loop(client: KeepAliveClient, offsets: np.ndarray, first_row: int,
              connections: int) -> list:
    """Send request ``i`` at ``offsets[i]`` on whichever connection is free."""
    start = time.perf_counter() + 0.05
    outcomes = [Outcome(first_row + i, start + float(due)) for i, due in enumerate(offsets)]
    cursor = iter(outcomes)
    lock = threading.Lock()

    def worker() -> None:
        connection = client.connect()
        try:
            while True:
                with lock:
                    outcome = next(cursor, None)
                if outcome is None:
                    return
                delay = outcome.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                client.send(connection, outcome)
        finally:
            connection.close()

    _run_threads(worker, connections)
    return outcomes


def closed_loop(client: KeepAliveClient, first_row: int, n_rows: int, seconds: float,
                connections: int) -> tuple:
    """``(outcomes, elapsed)``: back-to-back requests on every connection."""
    rows = iter(range(first_row, first_row + n_rows))
    lock = threading.Lock()
    outcomes: list = []
    start = time.perf_counter()
    stop = start + seconds

    def worker() -> None:
        connection = client.connect()
        try:
            while time.perf_counter() < stop:
                with lock:
                    row = next(rows, None)
                if row is None:
                    return
                outcome = Outcome(row, time.perf_counter())
                client.send(connection, outcome)
                with lock:
                    outcomes.append(outcome)
        finally:
            connection.close()

    _run_threads(worker, connections)
    return outcomes, time.perf_counter() - start


def tail_percentile(n_samples: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    best = 50.0
    for percentile in (75.0, 90.0, 95.0, 99.0, 99.9):
        if n_samples * (100.0 - percentile) / 100.0 >= 10:
            best = percentile
    return best


@dataclass
class EngineStats:
    """The server-side serving layers, scraped from ``/metrics``."""

    server_p50_ms: float = 0.0
    stage_mean_ms: dict = field(default_factory=dict)
    mean_batch_rows: float = 0.0
    cache_hit_ratio: float = 0.0
    cache_lookups: int = 0
    rejected: int = 0


_SAMPLE = re.compile(r'^(\w+)\{([^}]*)\} (\S+)$')


def scrape(server: Server) -> EngineStats:
    snapshot = json.loads(server.get("/metrics"))
    stats = EngineStats(
        server_p50_ms=float(snapshot["latency_ms"]["p50"]),
        cache_hit_ratio=float(snapshot["cache"]["hit_rate"]),
        cache_lookups=int(snapshot["cache"]["hits"] + snapshot["cache"]["misses"]),
        rejected=int(snapshot["requests_rejected"]),
    )
    sums: dict = {}
    counts: dict = {}
    text = server.get("/metrics", accept="text/plain").decode()
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if not match:
            continue
        family, labels, value = match.groups()
        base, _, suffix = family.rpartition("_")
        if base not in ("repro_stage_latency_seconds", "repro_batch_size_rows"):
            continue
        stage = re.search(r'stage="(\w+)"', labels)
        key = stage.group(1) if stage else "batch_rows"
        if suffix == "sum":
            sums[key] = sums.get(key, 0.0) + float(value)
        elif suffix == "count":
            counts[key] = counts.get(key, 0.0) + float(value)
    for stage in ("queue_wait", "batch_wait", "inference"):
        if counts.get(stage):
            stats.stage_mean_ms[stage] = sums[stage] / counts[stage] * 1e3
    if counts.get("batch_rows"):
        stats.mean_batch_rows = sums["batch_rows"] / counts["batch_rows"]
    return stats
