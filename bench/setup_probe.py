"""Do one in-process workload's set-up, print ``ready`` and exit.

Usage: python bench/setup_probe.py WORKLOAD SEED WORKDIR

The benchmark times this process from its start to the ``ready`` line:
importing qcm, writing the generated inputs and one warm-up op.
"""

import sys
from pathlib import Path

from workloads import WORKLOADS

workload = WORKLOADS[sys.argv[1]](Path.cwd(), int(sys.argv[2]), Path(sys.argv[3]))
workload.setup()
print("ready", flush=True)
