"""Benchmark of bratteli, driven from outside the package.

Run from the root of a bratteli checkout (the directory holding src/):

    python3 perfbench/run.py --workload paper-cli --seed 1 --seconds 10 --trace 0

One client runs one op at a time (closed loop, one process, no threads;
the only exception is the paper-cli op that asks ``eigenvalues --jobs 2``
for its process pool).  CLI ops call ``bratteli.cli.main(argv)`` with
stdio captured; library ops call public functions.  Every op's exit code
and output are checked, and a failed check, crash or an op over
OP_LIMIT_S counts as failed, never dropped.

--trace 0 prints the end-to-end metrics: setup_s and peak_rss_mib from
fresh processes, wall_s and op latencies from passes repeated for
--seconds, with times scaled to one reference host speed (speed.py).  --trace 1 alternates untraced and traced passes and prints the
per-layer metrics with the tracing overhead; spans are written to
.perfbench_out/.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import tracing
import workloads
from speed import REF_PROBE_S, probe

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
OP_LIMIT_S = 30         # an op running longer is stopped and counted as "timeout"
SETUP_PROBES = 9        # fresh interpreters timed for setup_s
WARMUP_S = 1.0          # untimed ops before the first timed pass
GC_AFTER_S = 0.01       # collect garbage (untimed) after ops slower than this
PROBE_EVERY_S = 0.25    # speed probes between ops at least this often
PROBE_WINDOW_S = 0.5    # an op is scaled by the probes within this of it
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms",
             "peak_rss_mib": "MiB"}


class OpTimeout(BaseException):
    """Raised by the interval timer inside an op that exceeds OP_LIMIT_S;
    a BaseException so that no handler inside the program swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout


def program_root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "bratteli" / "__init__.py").is_file():
        raise SystemExit("perfbench: no src/bratteli here; run from the root of a "
                         "bratteli checkout")
    return root


def load_program(root: Path):
    sys.path.insert(0, str(root / "src"))
    import bratteli.cli  # noqa: F401  (the import is the program's set-up)


@contextlib.contextmanager
def workdir(root: Path, wl):
    """The workload's documents, written to a directory inside the checkout."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as d:
        for name, text in wl.docs.items():
            Path(d, name).write_text(text, encoding="utf-8")
        yield Path(d)


class Runner:
    """Runs a workload's ops against the loaded program and checks each result."""

    def __init__(self, wl, work: Path):
        self.wl = wl
        self.paths = {name: str(work / name) for name in wl.docs}
        self.tracer = None          # a tracing.Tracer during traced passes
        self.outcomes = Counter()
        self.failures = []
        self.stdout_digest = {}     # op index -> sha256 of its first stdout
        self.verified = {}          # op index -> a result that passed its check
        self.probe_at = []          # clock reading of each speed probe
        self.probe_s = []           # its duration
        signal.signal(signal.SIGALRM, _on_alarm)

    def execute(self, op, ctx):
        """(seconds, result): result is (exit code, stdout, stderr) for a CLI
        op, the returned value for a library op."""
        if op.call is not None:
            t0 = time.perf_counter()
            result = op.call(ctx)
            return time.perf_counter() - t0, result
        argv = [self.paths[a[1:]] if a.startswith("@") else a for a in op.argv]
        main = sys.modules["bratteli.cli"].main
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            dt = time.perf_counter() - t0
        return dt, (code, out.getvalue(), err.getvalue())

    def run_op(self, i, op, ctx):
        """(seconds, outcome) with outcome ok, wrong, error or timeout."""
        if self.tracer is not None:
            self.tracer.op = i
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        try:
            dt, result = self.execute(op, ctx)
        except OpTimeout:
            return self._fail(op, "timeout", f"over {OP_LIMIT_S} s", time.perf_counter() - t0)
        except Exception as e:  # a crash in the program under test is a failed op
            return self._fail(op, "error", repr(e), time.perf_counter() - t0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if i in self.verified and self.verified[i] == result:
            return dt, "ok"
        try:
            if op.call is None:
                code, out, err = result
                self.stdout_digest.setdefault(i, hashlib.sha256(out.encode()).hexdigest()[:16])
                workloads.expect(code == op.code, f"exit {code}, expected {op.code}: "
                                                  f"{err.strip()[:200]}")
                if op.check is not None:
                    op.check(out, err)
            elif op.check is not None:
                op.check(result)
        except Exception as e:  # unparseable output is a wrong answer too
            return self._fail(op, "wrong", f"{type(e).__name__}: {e}", dt)
        self.verified[i] = result
        return dt, "ok"

    def _fail(self, op, outcome, message, dt):
        if len(self.failures) < 20:
            self.failures.append(f"{outcome}: {op.key}: {message}")
        return dt, outcome

    def _probe(self):
        self.probe_at.append(time.perf_counter())
        self.probe_s.append(probe())

    def run_pass(self, timed=True, until=None):
        """[(raw seconds, outcome, start, end)] for each op, in order; an
        untimed warm-up pass stops once the clock passes `until`."""
        ctx, samples = {}, []
        self._probe()
        for i, op in enumerate(self.wl.ops):
            if time.perf_counter() - self.probe_at[-1] > PROBE_EVERY_S:
                self._probe()
            start = time.perf_counter()
            dt, outcome = self.run_op(i, op, ctx)
            samples.append((dt, outcome, start, time.perf_counter()))
            if timed:
                self.outcomes[outcome] += 1
            if dt > GC_AFTER_S:
                gc.collect()
            if until is not None and time.perf_counter() > until:
                break
        self._probe()
        return samples

    def scaled(self, passes):
        """Passes as [(seconds at reference speed, outcome, raw seconds)].
        Each op is scaled by the median of the probes taken from
        PROBE_WINDOW_S before it starts to PROBE_WINDOW_S after it ends:
        one 20 ms probe is noisier than a long op it would scale."""
        out = []
        for p in passes:
            out.append([])
            for dt, outcome, t0, t1 in p:
                lo = bisect.bisect_left(self.probe_at, t0 - PROBE_WINDOW_S)
                hi = bisect.bisect_right(self.probe_at, t1 + PROBE_WINDOW_S)
                speed = REF_PROBE_S / statistics.median(self.probe_s[lo:hi])
                out[-1].append((dt * speed, outcome, dt))
        return out

    def warm_up(self):
        self.run_pass(timed=False, until=time.perf_counter() + WARMUP_S)

    def golden_counts(self):
        """(ops whose stdout differs from the seed commit, ops compared)."""
        golden = reference().get("golden_stdout", {})
        changed = checked = 0
        for i, digest in self.stdout_digest.items():
            key = golden_key(self.wl, self.wl.ops[i])
            if key in golden:
                checked += 1
                changed += golden[key] != digest
        return changed, checked


def golden_key(wl, op):
    """Op key plus a hash of the documents it reads, so that a recorded
    stdout only ever matches the same input bytes."""
    h = hashlib.sha256()
    for a in op.argv:
        if a.startswith("@"):
            h.update(wl.docs[a[1:]].encode())
    return f"{op.key} #{h.hexdigest()[:12]}"


def reference():
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


SETUP_CHILD = """import time
import bratteli.cli
t = time.perf_counter()
from speed import probe
print(probe(), time.perf_counter() - t)
"""


def setup_seconds(root: Path):
    """Median wall time of fresh interpreters that import bratteli.cli,
    scaled by a probe the child runs on its own CPU right after the
    import; the probe's share of the child's life is taken off first."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(HERE)]))
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD], cwd=root, env=env,
                              check=True, timeout=60, capture_output=True, text=True)
        child_probe, tail = map(float, proc.stdout.split())
        raw.append(time.perf_counter() - t0 - tail)
        scaled.append(raw[-1] * REF_PROBE_S / child_probe)
    return statistics.median(scaled), statistics.median(raw)


def peak_rss_mib(root: Path, workload: str, seed: int):
    """ru_maxrss of a fresh process that runs one pass of the workload."""
    proc = subprocess.run([sys.executable, str(HERE / "rss_probe.py"), "--workload", workload,
                           "--seed", str(seed)], cwd=root, capture_output=True, text=True,
                          check=True, timeout=150)
    return json.loads(proc.stdout.splitlines()[-1])["peak_rss_kib"] / 1024


def timed_run(runner, seconds):
    runner.warm_up()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(runner.run_pass())
    return runner.scaled(passes)


def traced_run(runner, seconds, spans_path):
    """Alternate untraced and traced passes; per-layer medians over the
    traced ones, overhead from the two wall_s figures."""
    runner.warm_up()
    tracer = tracing.Tracer()
    runner.tracer = tracer
    untraced, traced, bounds = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(runner.run_pass())
        lo = len(tracer.spans)
        tracer.install()
        try:
            traced.append(runner.run_pass())
        finally:
            tracer.uninstall()
        bounds.append((lo, len(tracer.spans)))
    untraced, traced = runner.scaled(untraced), runner.scaled(traced)
    n_ops = len(runner.wl.ops)
    per_pass = []
    for p, (lo, hi) in zip(traced, bounds):
        speed = sum(x[0] for x in p) / sum(x[2] for x in p)
        per_pass.append({k: v * speed if k.endswith("_ms") else v for k, v in
                         tracing.layer_metrics(tracer.spans, lo, hi, n_ops).items()})
    m = tracing.median_metrics(per_pass)
    untraced_s, traced_s = (sum(per_op_median(passes)) for passes in (untraced, traced))
    m["trace.untraced_wall_s"] = untraced_s
    m["trace.traced_wall_s"] = traced_s
    m["trace.overhead_share"] = traced_s / untraced_s - 1
    m["cli.stdout_changed"], m["cli.stdout_checked"] = runner.golden_counts()
    spans_path.parent.mkdir(exist_ok=True)
    tracer.dump(spans_path, [op.key for op in runner.wl.ops])
    return m, untraced + traced


def per_op_median(passes, k=0):
    """Each op's median latency over the passes (k=0 scaled, k=2 raw)."""
    return [statistics.median(p[i][k] for p in passes) for i in range(len(passes[0]))]


def end_to_end(passes):
    """wall_s sums the per-op medians; the percentiles pool every sample."""
    lat = [x[0] for p in passes for x in p]
    return {"wall_s": sum(per_op_median(passes)),
            "op_ms_p50": statistics.median(lat) * 1e3,
            "op_ms_p90": statistics.quantiles(lat, n=10)[8] * 1e3}, len(lat)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = program_root()
    setup_s = rss = None
    if not args.trace:
        setup_s, setup_raw = setup_seconds(root)
        rss = peak_rss_mib(root, args.workload, args.seed)
    load_program(root)
    wl = workloads.build(args.workload, args.seed)
    gc.freeze()
    digest = wl.digest()
    recorded = reference()["input_digests"].get(args.workload)
    print(f"workload: {args.workload}  seed: {args.seed}  ops per pass: {len(wl.ops)}")
    if args.seed == DEFAULT_SEED:
        print(f"input digest: {digest} "
              f"({'matches the recorded' if digest == recorded else 'DRIFTED from the recorded'}"
              f" default-seed digest)")
    else:
        print(f"input digest: {digest}")

    with workdir(root, wl) as work:
        runner = Runner(wl, work)
        if args.trace:
            spans_path = root / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            layer, passes = traced_run(runner, args.seconds, spans_path)
        else:
            passes = timed_run(runner, args.seconds)
    attempted = sum(runner.outcomes.values())
    failed = attempted - runner.outcomes["ok"]
    for line in runner.failures:
        print("FAILED " + line, file=sys.stderr)

    if args.trace:
        metrics = {k: (layer[k], unit) for k, unit in tracing.LAYER_METRICS.items()}
        print(f"traced passes: {len(passes) // 2} (plus as many untraced); spans: {spans_path}")
    else:
        e2e, samples = end_to_end(passes)
        e2e.update(setup_s=setup_s, peak_rss_mib=rss)
        metrics = {k: (e2e[k], unit) for k, unit in E2E_UNITS.items()}
        changed, checked = runner.golden_counts()
        print(f"passes: {len(passes)}  op samples: {samples}  raw (unscaled) "
              f"setup_s: {setup_raw:.4g} s  wall_s: {sum(per_op_median(passes, 2)):.4g} s")
        print(f"cli.stdout_changed: {changed} of {checked} ops with recorded seed-commit stdout")
    for k, (value, unit) in metrics.items():
        print(f"{k}: {value:.6g} {unit}" + (f" ({attempted} samples)" if k == "op_ms_p90" else ""))
    print(f"failed_share: {failed / attempted:.6g} ({failed} of {attempted} ops; "
          f"{runner.outcomes['wrong']} wrong, {runner.outcomes['error']} error, "
          f"{runner.outcomes['timeout']} timeout)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
