"""Run one graphspectra command in a fresh interpreter with tracing on.

Usage: PYTHONPATH=src python3 perfbench/launch.py SPANS_FILE ARG...

Times ``import graphspectra.cli`` as an ``import`` span, wraps the layer
functions, runs ``graphspectra.cli.main(ARG...)`` and writes the spans as
JSON to SPANS_FILE, then exits with main's status. The traced counterpart
of ``python -m graphspectra ARG...``.
"""

import json
import sys
import time

start = time.perf_counter()
import graphspectra.cli  # noqa: E402

end = time.perf_counter()

from tracing import Tracer, install  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.add("import", start, end)
    install(tracer)
    try:
        return graphspectra.cli.main(argv)
    finally:
        with open(spans_file, "w") as f:
            json.dump(tracer.spans, f)


if __name__ == "__main__":
    sys.exit(main())
