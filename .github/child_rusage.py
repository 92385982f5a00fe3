"""Run a command and, once it exits, print to stderr its minor page faults
and peak RSS, read from getrusage(RUSAGE_CHILDREN): the faults of the
command and of every descendant it waited for, and the largest peak RSS
among them. Exits with the command's status; its stdout passes through.

    python3 .github/child_rusage.py python3 perfbench/run.py --workload recon_unroll --seed 0
"""

import resource
import subprocess
import sys

status = subprocess.run(sys.argv[1:]).returncode
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
# ru_maxrss is in KiB on Linux; MB as perfbench/run.py reports peak_rss_mb.
print(f"child minor faults: {usage.ru_minflt}, max RSS: {usage.ru_maxrss * 1024 / 1e6:.2f} MB",
      file=sys.stderr)
sys.exit(status)
