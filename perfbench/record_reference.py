"""Record reference.json from the program as it stands: the default-seed
input digest of every workload and the stdout digest of every CLI op the
default seed runs, plus every op paper-cli can draw.

Run once, from the root of a checkout of the commit the benchmark was
defined on, so that later runs compare their stdout with that commit's:

    python3 perfbench/record_reference.py
"""

import json

import run
import workloads

root = run.program_root()
run.load_program(root)
digests, golden = {}, {}
for name in workloads.WORKLOADS:
    wl = workloads.build(name, run.DEFAULT_SEED)
    digests[name] = wl.digest()
    if name == "paper-cli":
        wl.ops = workloads.paper_cli_universe() + wl.ops
    with run.workdir(root, wl) as work:
        runner = run.Runner(wl, work)
        runner.run_pass()
    if runner.failures:
        raise SystemExit("refusing to record failing ops:\n" + "\n".join(runner.failures))
    for i, digest in runner.stdout_digest.items():
        golden[run.golden_key(wl, wl.ops[i])] = digest
with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
    json.dump({"default_seed": run.DEFAULT_SEED, "input_digests": digests,
               "golden_stdout": dict(sorted(golden.items()))}, fh, indent=0)
    fh.write("\n")
print(f"recorded {len(golden)} stdout digests")
