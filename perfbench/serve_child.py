"""``repro serve STORE --port 0`` with its default flags, as a child.

Usage::

    python3 -u perfbench/serve_child.py STORE [--record FILE]

Runs the CLI's ``serve`` command unchanged.  With ``--record`` the
per-layer wrappers of :mod:`layers` are installed first and, when the
server stops (SIGINT), their timings are written to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("store")
    parser.add_argument("--record", default=None)
    args = parser.parse_args()
    # SIGINT is the CLI's clean shutdown.  A child of a background job
    # inherits SIGINT as ignored, and Python then keeps ignoring it.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    from repro.cli import main as cli_main

    recorder = None
    if args.record:
        from layers import LayerRecorder

        recorder = LayerRecorder()
        recorder.install()
        recorder.install_server_ops()
    try:
        return cli_main(["serve", args.store, "--port", "0"])
    finally:
        if recorder is not None:
            Path(args.record).write_text(json.dumps(recorder.to_payload()))


if __name__ == "__main__":
    sys.exit(main())
