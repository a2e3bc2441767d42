"""Child driver of the traced cli-mix run.

Runs ``triplemoduli.cli.main(argv)`` like ``python -m triplemoduli.cli``
does, and appends to stderr one line with the monotonic clock readings
(nanoseconds) taken before the import, after it and after ``main``:

    <RS>perfbench-cli <before> <imported> <done>
"""

import sys
import time

t0 = time.perf_counter_ns()
from triplemoduli.cli import main  # noqa: E402

t1 = time.perf_counter_ns()
rc = main(sys.argv[1:])
t2 = time.perf_counter_ns()
sys.stdout.flush()
sys.stderr.write("\x1eperfbench-cli %d %d %d" % (t0, t1, t2))
sys.exit(rc)
