"""Time one workload's set-up in a fresh interpreter; prints seconds.

Set-up is `import latred` plus building the contexts the workload uses
(`import latred.cli` for cli-requests).  Interpreter start-up is excluded.
Run from the checkout root with PYTHONPATH=src:

    python3 perfbench/setup_probe.py ff-orbit
"""

import os
import sys
import time

t0 = time.perf_counter()
if sys.argv[1] == "cli-requests":
    import latred.cli  # noqa: F401
else:
    import latred  # noqa: F401
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import contexts
    contexts(sys.argv[1])
print(f"{time.perf_counter() - t0:.9f}")
