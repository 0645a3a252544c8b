"""Start ``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python perfbench/launcher.py SPANS.json serve --models DIR ...``.
The spans recorded in the server process are written to ``SPANS.json`` when
the server shuts down (SIGTERM takes the server's clean shutdown path).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Recorder  # noqa: E402


def main(argv: list) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
