"""One traced `coordsem reproduce`, in a fresh interpreter so that the
relevance cache starts cold as it does for the command line.

Runs cli.main(["reproduce"]) under the tracer with stdout captured, then
prints one JSON object: the exit code, the captured stdout and the
tracer's per-name totals. run.py starts this script for each traced
reproduce op.
"""

import contextlib
import io
import json
import sys

import run  # sets up the import path; its main() does not run

tracer = run.spans.Tracer()
tracer.install()
captured = io.StringIO()
with tracer.op(), contextlib.redirect_stdout(captured):
    returncode = run.cs.cli.main(["reproduce"])
tracer.uninstall()
unit = tracer.take()
json.dump({"returncode": returncode, "stdout": captured.getvalue(),
           "self_ms": unit.self_ms, "calls": unit.calls, "counts": unit.counts,
           "op_wall_s": unit.op_wall_s, "op_self_s": unit.op_self_s}, sys.stdout)
