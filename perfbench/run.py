"""orthoview benchmark: drives `orthoview.cli.main(argv)` in process, one
request after another (closed loop, one client, no threads), on inputs it
generates from theory, and checks every outcome against its prediction.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

Run it from the repository root. The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`. A record of the
run (environment, per-request sizes, stream digest, every metric) goes to
perfbench/_out/. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("classify", "decompose", "system", "ingest")
DEFAULT_SEED = 603007
# Set-up is repeated at least this often and for at least this long.
SETUP_REPEATS = 5
SETUP_SECONDS = 0.5
# Share of a traced run spent on untraced passes, for trace.overhead_s.
UNTRACED_SHARE = 0.4

# The gated metrics. wall_ref is a pass's time in units of the reference
# computation timed in the same run (see reference_work). Request median
# and tail latencies are reported beside them but not gated: each is the
# latency of one or two requests, which varied by 20-40% between runs of
# different seeds even in reference units.
END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
}


def _arguments(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=28)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _setup(name, seed, workdir, build):
    """Generate the inputs into a fresh directory, SETUP_REPEATS times and
    for SETUP_SECONDS at least; the median is setup_s, the last copy is used."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        shutil.rmtree(workdir, ignore_errors=True)
        start = time.perf_counter()
        wl = build(name, seed, workdir)
        times.append(time.perf_counter() - start)
    return wl, statistics.median(times), len(times)


def reference_work():
    """A fixed pure-Python computation, dict and tuple work like the
    program's own inner loops, timed before every request. The machine's
    speed drifts by up to 1.8x over minutes on shared hosts; dividing a
    run's request times by this run's reference time cancels that drift,
    while a change to orthoview leaves the reference untouched."""
    table = {}
    for i in range(4000):
        table[i % 97, i % 89] = i
    return len(table)


def lower_quartile(values):
    values = sorted(values)
    return values[(len(values) - 1) // 4]


class Runner:
    """Sends one pass of requests after another and checks each outcome."""

    def __init__(self, workload, cli):
        self.workload = workload
        self.cli = cli
        self.latencies = []
        self.reference = []
        self.pass_times = []
        self.pass_cpu = []
        self.digests = []
        self.attempted = 0
        self.failures = []
        self.tracer = None

    def one_pass(self):
        digest = hashlib.sha256()
        total = cpu = 0.0
        for k, req in enumerate(self.workload.requests):
            out, err = io.StringIO(), io.StringIO()
            escaped = None
            if self.tracer is not None:
                self.tracer.begin_request(len(self.pass_times) * len(self.workload.requests) + k)
            start = time.perf_counter()
            reference_work()
            self.reference.append(time.perf_counter() - start)
            cpu_start = time.process_time()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.cli.main(list(req.argv))
                except Exception as e:  # an escaping exception is a failed request
                    code, escaped = None, e
            elapsed = time.perf_counter() - start
            cpu += time.process_time() - cpu_start
            total += elapsed
            self.latencies.append(elapsed)
            self.attempted += 1
            stdout = out.getvalue()
            digest.update(stdout.encode())
            if escaped is not None:
                reason = f"exception escaped main: {escaped!r}"
            else:
                reason = req.check(code, stdout, err.getvalue())
            if reason is not None:
                self.failures.append(f"{req.label}: {reason}")
        self.pass_times.append(total)
        self.pass_cpu.append(cpu)
        self.digests.append(digest.hexdigest())

    def run_for(self, seconds):
        """Whole passes until the next one would end after `seconds`."""
        start = time.perf_counter()
        first = len(self.pass_times)
        while True:
            self.one_pass()
            elapsed = time.perf_counter() - start
            if elapsed + self.pass_times[-1] > seconds:
                return self.pass_times[first:]


def request_latencies(latencies, per_pass):
    """Each request's latency: the lower quartile of its latencies over the
    run's passes. Requests are deterministic, so repeats differ only by
    interference from the rest of the machine, which can only slow a
    request; the lower quartile keeps the request's own cost and drops most
    of that interference."""
    return [lower_quartile(latencies[k::per_pass]) for k in range(per_pass)]


def tail_latency(per_request, samples, level):
    """The workload's fixed percentile over the requests (each counted once
    per pass), lowered only while fewer than 10 of the run's samples would
    lie beyond it. Returns (value, level)."""
    while level > 50 and samples * (100 - level) / 100 < 10:
        level -= 5
    if len(per_request) < 2:
        return per_request[0], level
    return statistics.quantiles(per_request, n=100, method="inclusive")[level - 1], level


def src_loc():
    return {p.stem: sum(1 for _ in p.open()) for p in sorted((SRC / "orthoview").glob("*.py"))}


def environment(seed):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "src_loc": src_loc(),
        "loop": "closed, 1 client, in-process orthoview.cli.main",
    }


def run_workload(args):
    sys.path.insert(0, str(ROOT))
    sys.path.insert(0, str(SRC))
    from perfbench.workloads import build
    import orthoview.cli as cli

    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    outdir = HERE / "_out"
    outdir.mkdir(exist_ok=True)
    try:
        wl, setup_s, setup_repeats = _setup(args.workload, args.seed, workdir, build)
        runner = Runner(wl, cli)
        if args.trace:
            from perfbench.tracing import PER_LAYER, Tracer

            untraced = runner.run_for(args.seconds * UNTRACED_SHARE)
            runner.tracer = Tracer()
            runner.tracer.install()
            try:
                traced = runner.run_for(args.seconds * (1 - UNTRACED_SHARE))
            finally:
                runner.tracer.uninstall()
            values, bases = runner.tracer.metrics(len(traced))
            values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
            # CPU time of a pass's requests, from the untraced passes.
            values["cli.cpu_s"] = statistics.median(runner.pass_cpu[: len(untraced)])
            metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
            spans = outdir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            runner.tracer.write_spans(spans)
            extra = {"ratio_bases": bases, "spans": str(spans.relative_to(ROOT)), "span_count": len(runner.tracer.spans),
                     "untraced_passes": untraced, "traced_passes": traced}
            untraced_latencies = runner.latencies[: len(untraced) * len(wl.requests)]
        else:
            runner.run_for(args.seconds)
            per_request = request_latencies(runner.latencies, len(wl.requests))
            tail, level = tail_latency(per_request, len(runner.latencies), wl.tail_percentile)
            ref = lower_quartile(runner.reference)
            values = {
                "setup_s": setup_s,
                "wall_ref": sum(per_request) / ref,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_ratio": (runner.attempted - len(runner.failures)) / runner.attempted,
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
            p50 = statistics.median(per_request)
            reported = {
                "wall_s": (sum(per_request), "s"),
                "request_p50_s": (p50, "s"),
                "request_tail_s": (tail, "s"),
                "request_p50_ref": (p50 / ref, "ref"),
                "request_tail_ref": (tail / ref, "ref"),
                "reference_s": (ref, "s"),
            }
            untraced_latencies = runner.latencies
            extra = {"reported": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
                     "tail_percentile": level, "samples": len(runner.latencies),
                     "passes": runner.pass_times, "latencies": runner.latencies}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stable = len(set(runner.digests)) == 1
    failed = len(runner.failures)
    record = {
        "workload": args.workload,
        "why": wl.why,
        "trace": args.trace,
        "environment": environment(args.seed),
        "requests": [
            {"label": r.label, "sizes": r.sizes, "median_s": statistics.median(untraced_latencies[k::len(wl.requests)])}
            for k, r in enumerate(wl.requests)
        ],
        "setup_repeats": setup_repeats,
        "stdout_sha256": runner.digests[0],
        "digest_stable": stable,
        "attempted": runner.attempted,
        "failed": failed,
        "failed_ratio": failed / runner.attempted,
        "failures": runner.failures[:20],
        "metrics": metrics,
        **extra,
    }
    (outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    _print_report(record)
    result = {"correct": stable and failed == 0, "attempted": runner.attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def _print_report(rec):
    env = rec["environment"]
    print(f"workload {rec['workload']}: {rec['why']}")
    print(f"  python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, seed {env['seed']}, {env['loop']}")
    n = len(rec["requests"])
    passes = len(rec.get("passes") or rec.get("traced_passes"))
    print(f"  {n} requests per pass, {passes} {'traced ' if rec['trace'] else ''}passes")
    for name, m in list(rec["metrics"].items()) + list(rec.get("reported", {}).items()):
        note = ""
        if name.startswith("request_tail"):
            note = f"  (p{rec['tail_percentile']} of {rec['samples']} samples)"
        elif name in rec.get("ratio_bases", {}):
            note = "  (" + ", ".join(f"{k} {v}" for k, v in rec["ratio_bases"][name].items()) + ")"
        gated = "" if name in rec["metrics"] else "  [reported, not gated]"
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}{note}{gated}")
    print(f"  {'failed_ratio':<48} {rec['failed_ratio']:>14.6g} ratio  ({rec['failed']} of {rec['attempted']} attempted)")
    print(f"  stdout sha256 {rec['stdout_sha256'][:16]}... {'identical' if rec['digest_stable'] else 'DIFFERS'} across passes")
    for f in rec["failures"]:
        print(f"  FAILED {f}")


def run_all(args):
    """Each workload in a fresh process, so setup_s and peak_rss_mb are its own."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None):
    args = _arguments(argv)
    if not (SRC / "orthoview" / "cli.py").is_file():
        print(f"error: no orthoview sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
