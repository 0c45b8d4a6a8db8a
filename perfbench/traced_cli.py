"""Run the hcbloch CLI with every span of ``layers.SPANS`` traced.

Usage (from the repository root, with ``PYTHONPATH=src``):

    python3 perfbench/traced_cli.py TRACE.json <hcbloch cli arguments>

The CLI's outputs and exit code are those of an untraced run; the span
totals are written to TRACE.json when the CLI returns.
"""

import json
import sys
import time
from pathlib import Path

from layers import Tracer


def main() -> int:
    trace_path, argv = Path(sys.argv[1]), sys.argv[2:]
    start = time.perf_counter()
    import hcbloch.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        code = hcbloch.cli.main(argv)
    finally:
        tracer.restore()
        trace_path.write_text(json.dumps(tracer.snapshot(import_s)))
    return code


if __name__ == "__main__":
    sys.exit(main())
