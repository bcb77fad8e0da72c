"""bflab benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's (group, prime) pipelines one after another through
the CLI entry point `bflab.cli.main`, in this process, with one client
and no threads; the run seed is passed to every pipeline as `--seed`.
Every report is checked (exit code, findings, the invariants and
oracles of `invariants.py`, byte-identity across repetitions).

`--trace 0` repeats whole passes while the next one still fits in
`--seconds` (at least one) and reports the end-to-end metrics as medians
over the passes; a repeated pass must give the first pass's reports.
When a pass takes more than half of `--seconds`, a run makes one pass,
and only `--trace 1` runs check that reports repeat.  `--trace 1` runs
one untraced pass, then one pass with the outside-in tracer of
`tracer.py` (its reports must be byte-identical to the untraced ones),
writes the spans to `.perfbench/trace-<workload>-<seed>.jsonl`, then
runs the kernel microbenchmarks, and reports the per-layer metrics.
`--workload all` runs every workload in turn.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0
when every output check passed, 1 when one failed, and 2 when the
benchmark could not be set up (no result is printed then).

`setup_s` is the time from the top of this file until the first pipeline
is called: the imports, the expected invariants and the workload's group
files.  Imports are cached in a process, so a run sets up again in
fresh interpreters (`--setup-only`) and reports the median of
`SETUP_SAMPLES` set-ups, its own first among them.
"""

import time

START = time.perf_counter()

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback

import workloads

OUT_DIR = os.path.join(workloads.ROOT, ".perfbench")
FINDINGS_DIR = os.path.join(OUT_DIR, "findings")
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 60


class Pass:
    """One pass over a workload's pipelines."""

    def __init__(self):
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.outputs = {}          # pipeline id -> (exit code, report text)


def run_pass(pipelines, seed, tracer=None):
    from bflab.cli import main as cli_main

    result = Pass()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    for p in pipelines:
        out = io.StringIO()
        span = tracer.pipeline(p.id) if tracer else contextlib.nullcontext()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()), span:
                code = cli_main(p.argv(seed, FINDINGS_DIR))
        except Exception:          # a failed pipeline is counted, not fatal
            traceback.print_exc()
            code = None
        result.outputs[p.id] = (code, out.getvalue())
    result.wall_s = time.perf_counter() - wall0
    result.cpu_s = time.process_time() - cpu0
    return result


def check_pass(pipelines, current, reference, expected):
    """Number of failed pipelines in `current`; problems go to stderr."""
    import invariants

    failed = 0
    for p in pipelines:
        code, text = current.outputs[p.id]
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        else:
            try:
                report = json.loads(text)
                if report["findings"] or not report["ok"]:
                    problems.append("findings")
                problems += invariants.check(report, expected, p.order)
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"malformed report: {exc!r}")
        if reference is not None and text != reference.outputs[p.id][1]:
            problems.append("report differs from the first repetition")
        if problems:
            failed += 1
            print(f"FAILED {p.id}: {'; '.join(problems)}", file=sys.stderr)
    return failed


def prepare(name):
    """The set-up `setup_s` times: the workload's pipelines and the
    expected invariants."""
    import invariants

    return workloads.setup(name), invariants.load_expected()


def setup_seconds(name, own):
    """Median of `own` (None if this process did not time its set-up)
    and of set-ups in fresh interpreters, `SETUP_SAMPLES` in all."""
    samples = [] if own is None else [own]
    while len(samples) < SETUP_SAMPLES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", name, "--seed", "0", "--seconds", "0"],
            check=True, capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def context(seed):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def end_to_end(passes, setup_s, rss_mb):
    med = statistics.median
    return {"wall_s": (med(p.wall_s for p in passes), "s"),
            "cpu_s": (med(p.cpu_s for p in passes), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_mb, "MB")}


def run_workload(name, seed, seconds, trace, first):
    """Returns (attempted, failed, metrics printed in the JSON line).
    `first` is true for the process's first workload, whose set-up
    counts as one `setup_s` sample."""
    pipelines, expected = prepare(name)
    setup_s = setup_seconds(name, time.perf_counter() - START if first
                            else None)
    os.makedirs(OUT_DIR, exist_ok=True)

    passes = []
    failed = 0
    start = time.perf_counter()
    while True:
        passes.append(run_pass(pipelines, seed))
        if len(passes) == 1:
            # bflab's caches grow with repeated passes, and the number
            # of passes depends on the host's speed.
            rss_mb = peak_rss_mb()
        failed += check_pass(pipelines, passes[-1],
                             passes[0] if len(passes) > 1 else None, expected)
        if trace or time.perf_counter() - start + \
                statistics.median(p.wall_s for p in passes) > seconds:
            break
    e2e = end_to_end(passes, setup_s, rss_mb)
    e2e["fail_rate"] = (failed / (len(passes) * len(pipelines)), "ratio")
    attempted = len(passes) * len(pipelines)
    print(f"# {name}: {len(passes)} untraced pass(es), "
          f"{len(pipelines)} pipelines each, {SETUP_SAMPLES} set-ups")
    print_metrics(e2e)
    if not trace:
        return attempted, failed, {k: v for k, v in e2e.items()
                                   if k != "fail_rate"}

    import kernels
    import tracer as tracer_mod

    with tracer_mod.Tracer() as tracer:
        traced = run_pass(pipelines, seed, tracer)
    attempted += len(pipelines)
    failed += check_pass(pipelines, traced, passes[0], expected)
    sidecar = os.path.join(OUT_DIR, f"trace-{name}-{seed}.jsonl")
    tracer.write_jsonl(sidecar, {"workload": name,
                                 "context": context(seed)})
    layers = tracer_mod.layer_metrics(tracer.records(), tracer.counts)
    layers.update({k: (v, "ms") for k, v in kernels.run(seed).items()})
    layers["trace.overhead_ratio"] = (traced.wall_s / passes[0].wall_s,
                                      "ratio")
    print(f"# {name}: traced pass {traced.wall_s:.3f} s, spans in {sidecar}")
    for group in tracer_mod.LAYERS:
        print(f"# layer {group['layer']}: should move {group['moves']}")
    print_metrics(layers)
    return attempted, failed, layers


def print_metrics(metrics):
    for key, (value, unit) in metrics.items():
        print(f"{key:<48} {value!r:>24} {unit}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up one workload, print the seconds it took "
                         "and exit (one `setup_s` sample)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.setup_only:
        if args.workload == "all":
            ap.error("--setup-only sets up one workload")
        prepare(args.workload)
        print(repr(time.perf_counter() - START))
        return 0

    names = sorted(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    try:
        workloads.bootstrap()
        print("# context " + json.dumps(context(args.seed), sort_keys=True))
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace),
                                i == 0) for i, n in enumerate(names)]
    except (workloads.SetupError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    attempted = sum(r[0] for r in results)
    failed = sum(r[1] for r in results)
    metrics = {}
    for n, (_, _, m) in zip(names, results):
        prefix = f"{n}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": u}
                        for k, (v, u) in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
