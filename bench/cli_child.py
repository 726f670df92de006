"""One traced ``braidsigma classify --witness --in PATH`` process.

Runs the CLI's own ``main`` with the benchmark's spans installed and
prints one JSON object: the CLI's exit code, what it printed, and the
spans (see tracing.py).  Used by ``run.py`` for the traced pass of the
``cli_oneshot`` workload.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402  (this directory is sys.path[0])

import braidsigma.cli  # noqa: E402

tracer = tracing.Tracer()
tracer.char_id = 0
printed = io.StringIO()
with tracing.installed(tracer), contextlib.redirect_stdout(printed):
    code = braidsigma.cli.main(["classify", "--witness", "--in", sys.argv[1]])
json.dump({"code": code, "stdout": printed.getvalue(), "spans": tracer.spans}, sys.stdout)
sys.exit(code)
