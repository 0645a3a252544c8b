"""Shared utilities for the benchmark drivers.

Every benchmark regenerates one of the paper's tables or figures.  Besides
the timing numbers collected by ``pytest-benchmark``, each driver writes the
regenerated artefact (the table rows / curve points the paper reports) in
two forms under ``benchmarks/results/``:

* ``<name>.txt`` — the human-readable table, echoed to stdout, for
  side-by-side comparison with the paper;
* ``BENCH_<name>.json`` — a machine-readable envelope (benchmark name,
  run parameters, structured records with wall times and entropy-calculation
  counts) that CI archives as a workflow artifact so the performance
  trajectory of the repository can be trended across commits.

The JSON files are deterministic apart from the measured wall times, so two
runs can be diffed record-by-record: compare ``entropy_calculations`` (an
implementation-independent count that must never change for a given
configuration) exactly, and wall-clock fields only against same-machine
baselines.

Scale note: the drivers run the UCI stand-ins at reduced tuple counts and
pdf sample counts so the whole suite finishes in minutes on a laptop.  The
``REPRO_BENCH_SCALE`` and ``REPRO_BENCH_SAMPLES`` environment variables
increase them towards the paper's full setting (scale 1.0, s = 100); CI's
benchmark smoke lane runs with ``REPRO_BENCH_SCALE=0.1``.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import numpy as np

#: Directory in which the regenerated tables/figures are stored.
RESULTS_DIR = Path(__file__).parent / "results"

#: Global scale factor applied to the stand-in dataset sizes.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))

#: Number of pdf sample points (the paper uses s = 100).
BENCH_SAMPLES = int(os.environ.get("REPRO_BENCH_SAMPLES", "40"))


def save_artifact(name: str, title: str, body: str) -> None:
    """Persist a regenerated table/figure and echo it to stdout."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    text = f"{title}\n{'=' * len(title)}\n\n{body}\n"
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    print(f"\n{text}")


def save_json_artifact(
    name: str,
    records: "list[dict]",
    *,
    params: "dict | None" = None,
    extra: "dict | None" = None,
) -> Path:
    """Write ``BENCH_<name>.json`` with the standard machine-readable envelope.

    ``records`` is a list of flat dicts (one per measured configuration —
    typically dataset x algorithm) whose keys should include the
    configuration, any wall-time measurements and the entropy-calculation
    counts.  ``params`` extends the run-parameter block; ``extra`` adds
    top-level keys (e.g. aggregate summaries).
    """
    import repro
    from repro.api import FORMAT_VERSION

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    payload = {
        "name": name,
        "params": {
            "scale": BENCH_SCALE,
            "samples": BENCH_SAMPLES,
            "python": platform.python_version(),
            "numpy": np.__version__,
            # API metadata: which library version produced the numbers, and
            # which persistence format the models of that build serialise
            # to — so archived BENCH_*.json files remain interpretable
            # across releases.
            "repro_version": repro.__version__,
            "model_format_version": FORMAT_VERSION,
            **(params or {}),
        },
        "records": records,
    }
    if extra:
        payload.update(extra)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
