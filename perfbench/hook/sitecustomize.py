"""Start-up hook of the benchmark's traced runs.

Python imports ``sitecustomize`` at start-up from the first ``sys.path``
entry that has one.  The traced run puts this directory on ``PYTHONPATH``
and names a trace directory in ``PERFBENCH_TRACE_DIR``; every Python process
of the workload then records layer spans (see ``perfbench_trace``).
"""

import perfbench_trace

perfbench_trace.install_from_env()
