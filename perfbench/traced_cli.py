"""One traced CLI request, run in its own process like ``python3 -m ehrhart``.

    python3 perfbench/traced_cli.py SPANS_FILE COMMAND ARGS...

The ``cli.import`` span covers importing ehrhart and installing the trace;
``cli.main`` covers the command.  What the parent measures outside those two
spans is interpreter start-up and teardown.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402

sid = tracing.span_open("cli.import")
import ehrhart.cli  # noqa: E402

tracing.install()
tracing.span_close(sid)
try:
    code = ehrhart.cli.main(sys.argv[2:])
finally:
    tracing.dump(Path(sys.argv[1]))
sys.exit(code)
