"""Runs ``repro serve`` with the benchmark's span tracer installed.

The traced http-ingest run starts this instead of ``python -m repro
serve``; the server code path is the same CLI entry point.  A control
thread reads commands from standard input:

* ``reset`` -- forget the spans recorded so far (start of the measured
  phase) and note the time;
* ``dump <path>`` -- write the span aggregate, the raw spans and the wall
  time since ``reset`` to ``<path>`` as JSON, then print ``dumped``.

SIGTERM stops the server as it stops ``repro serve``.
"""

from __future__ import annotations

import json
import sys
import threading
import time

from common import import_program
from tracing import Tracer


def _control(tracer: Tracer) -> None:
    started = time.perf_counter()
    for line in sys.stdin:
        command, _, argument = line.strip().partition(" ")
        if command == "reset":
            tracer.reset()
            started = time.perf_counter()
        elif command == "dump":
            payload = {"aggregate": tracer.aggregate(),
                       "wall": time.perf_counter() - started,
                       "spans": list(tracer.spans)}
            with open(argument, "w") as handle:
                json.dump(payload, handle)
            print("dumped", flush=True)


def main() -> int:
    import_program()
    from repro import cli

    tracer = Tracer()
    tracer.install()
    threading.Thread(target=_control, args=(tracer,), daemon=True).start()
    return cli.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
