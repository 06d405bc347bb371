"""Peak resident memory of a fresh process that runs one pass of a workload.

Started by run.py, one probe at a time, from the root of the checkout:

    python3 perfbench/rss_probe.py --workload adic-search --seed 1

The last stdout line is {"peak_rss_kib": N}, read from ru_maxrss.
"""

import argparse
import json
import resource

import run
import workloads

parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
parser.add_argument("--seed", type=int, required=True)
args = parser.parse_args()

root = run.program_root()
run.load_program(root)
wl = workloads.build(args.workload, args.seed)
with run.workdir(root, wl) as work:
    run.Runner(wl, work).run_pass()
print(json.dumps({"peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
