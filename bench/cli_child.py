"""A traced CLI call: ``python3 cli_child.py <trace-file> <jensengeo arguments>``.

Times ``import jensengeo`` in this fresh interpreter, wraps the package
(``tracing.py``) and runs ``jensengeo.cli:main`` on the arguments, as the
console script does. Whatever the call does, exits included, the import
time and the recorded spans are written to the trace file as JSON.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
import jensengeo  # noqa: E402
from jensengeo import cli  # noqa: E402

import_ms = (time.perf_counter() - t0) * 1e3

import tracing  # noqa: E402

if __name__ == "__main__":
    trace_file = Path(sys.argv[1])
    sys.argv = ["jensengeo", *sys.argv[2:]]
    tracer = tracing.Tracer()
    wrapped = tracing.install(tracer)
    try:
        cli.main()
    finally:
        trace_file.write_text(json.dumps(
            {"import_ms": import_ms, "wrapped": wrapped, "names": tracer.names, "spans": tracer.spans}
        ))
