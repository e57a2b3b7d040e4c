"""Run one qcm command as ``python -m qcm`` would, recording layer spans.

Usage: python bench/traced_cli.py SPANS_JSON ARGS...

The spans are written to SPANS_JSON when the command returns; the exit code
is the command's.
"""

import json
import sys

import qcm.cli
from tracer import Tracer, install

tracer = Tracer()
install(tracer, qcm.cli)
try:
    code = tracer.main(sys.argv[2:])
finally:
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        json.dump(tracer.spans, handle)
sys.exit(code)
