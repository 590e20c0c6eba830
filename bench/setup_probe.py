"""Time one fresh-process set-up of a workload and print it as JSON.

Import time covers ``import dilatlab`` plus its CLI; build time covers the
structures and frames the workload's jobs share. Run by run.py in a new
interpreter per sample: ``python3 bench/setup_probe.py <workload>`` with
``src`` on PYTHONPATH.
"""

import json
import sys
import time

t0 = time.perf_counter()
import dilatlab  # noqa: E402,F401
import dilatlab.cli  # noqa: E402,F401
t1 = time.perf_counter()

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].build()
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))
