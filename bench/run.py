"""Benchmark of gwolab's three routes: exact DP, limit laws and Monte Carlo.

    python3 bench/run.py --workload exact-survival --seed 1 --seconds 9 --trace 0
    python3 bench/run.py --workload all

Run from the repository root.  One run measures one workload in its own
process as a closed loop: a single caller makes one call at a time.  The
end-to-end times are scaled to a fixed host speed by a reference
computation timed around each call (see hostspeed.py).  A run prints
every metric by name with its unit and sample count, writes the full
record to bench/out/, and prints as its last line a JSON object with
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones.  bench/README.md describes every metric.
"""

from __future__ import annotations

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
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
SRC = ROOT / "src"
WORKLOAD_NAMES = ("exact-survival", "conditioned-pmf", "monte-carlo")
SETUP_RUNS = 3  # fresh interpreters per run
MIN_PASSES = 3  # per-call medians need three samples
CLI_ROUNDS = 3  # per-command medians need three samples
CHILD_TIMEOUT_S = 150
# A run and its children stay on one CPU, the one its host-speed marks
# read; only calls marked all_cores (simulate with threads=2) use every CPU.
ALL_CPUS = sorted(os.sched_getaffinity(0))
BENCH_CPUS = ALL_CPUS[-1:]

SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
import gwolab
t1 = time.perf_counter()
models = [gwolab.load_model(p) for p in sys.argv[1:]]
t2 = time.perf_counter()
for m in models:
    gwolab.summarize(m)
t3 = time.perf_counter()
print(json.dumps({"setup.import": [t0, t1], "modelio.load_model": [t1, t2],
                  "lifelaw.summarize": [t2, t3]}))
"""
CLI_CHILD = "import sys; from gwolab.cli import main; sys.exit(main(sys.argv[1:]))"


class Run:
    """Operation counts and failures of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, problem) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(f"{name}: {problem}")


class Timing(NamedTuple):
    name: str  # span name
    dt: float  # wall seconds
    counters: dict
    scale: float = 1.0  # host-speed scale from the marks around the call

    @property
    def scaled(self) -> float:
        return self.dt * self.scale


def child(args: list) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )


def setup_times(models, runs: int, run: Run, tracer, speed=None) -> tuple[list, dict]:
    """Wall time of fresh interpreters that import gwolab, load the
    workload's models and summarize them, plus each step's share.

    Each wall time is a Timing, with the scale of the host-speed marks
    around it when `speed` is given.
    """
    walls, parts = [], {}
    paths = [os.path.join("docs", "models", f"{m}.json") for m in models]
    if speed:
        speed.mark()
    for _ in range(runs):
        span = tracer.open("setup.process") if tracer else None
        start = time.perf_counter()
        proc = child(["-c", SETUP_CHILD, *paths])
        dt = time.perf_counter() - start
        walls.append(Timing("setup", dt, {}, speed.mark() if speed else 1.0))
        if tracer:
            tracer.close(span)
        problem = proc.returncode and f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        run.record("setup", problem)
        if problem:
            continue
        for name, (t0, t1) in json.loads(proc.stdout.splitlines()[-1]).items():
            parts.setdefault(name, []).append(t1 - t0)
            if tracer:
                tracer.add(name, t0, t1, span)
    return walls, parts


def run_pass(ops, run: Run, tracer=None, speed=None) -> list:
    """One pass over a workload's operations, a Timing per call.

    Only the call itself is timed.  Its host-speed marks, when `speed` is
    given, and its output check run between calls.
    """
    timings = []
    if speed:
        speed.mark()
    for op in ops:
        if op.all_cores:
            os.sched_setaffinity(0, ALL_CPUS)
        span = tracer.open(op.name) if tracer else None
        start = time.perf_counter()
        try:
            out, problem = op.call(), None
        except Exception as exc:  # an operation that raises counts as failed
            problem = f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - start
        if tracer:
            tracer.close(span)
        if op.all_cores:
            os.sched_setaffinity(0, BENCH_CPUS)
        scale = speed.mark() if speed else 1.0
        counters = {}
        if problem is None:
            try:
                problem, counters = op.check(out), op.counters(out)
            except Exception as exc:  # a check that cannot read the output fails it
                problem = f"check raised {type(exc).__name__}: {exc}"
        run.record(op.name, problem)
        timings.append(Timing(op.name, dt, counters, scale))
    return timings


def pass_seconds(timings) -> float:
    return sum(t.dt for t in timings)


def median_pass_seconds(passes, scaled: bool) -> float:
    """Each call's median over the passes, summed over the list: a pass
    with the slow moments of a shared host filtered out call by call."""
    calls = zip(*([t.scaled if scaled else t.dt for t in p] for p in passes))
    return sum(statistics.median(dts) for dts in calls)


def rates(timings) -> dict:
    """Unconditioned replicates per second over the simulate calls and
    survivors per second of conditional_sample, when the pass has them."""
    out = {}
    reps = [(t.counters["simulator.replicates"], t.dt) for t in timings
            if "simulator.replicates" in t.counters]
    if reps:
        out["replicates_per_s"] = sum(n for n, _ in reps) / sum(dt for _, dt in reps)
    surv = [(t.counters["simulator.survivors"], t.dt) for t in timings
            if "simulator.survivors" in t.counters]
    if surv:
        out["survivors_per_s"] = sum(n for n, _ in surv) / sum(dt for _, dt in surv)
    return out


def cli_subprocess(calls, run: Run, speed) -> list:
    """The workload's CLI commands, each a fresh interpreter: a Timing each."""
    timings = []
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        speed.mark()
        for call in calls:
            start = time.perf_counter()
            proc = child(["-c", CLI_CHILD, *call.argv(tmp)])
            timings.append(Timing(call.name, time.perf_counter() - start, {}, speed.mark()))
            if proc.returncode:
                run.record(call.name, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            else:
                run.record(call.name, call.check(tmp))
    return timings


def cli_in_process(calls, run: Run, tracer) -> None:
    from gwolab.cli import main

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        for call in calls:
            with tracer.span(call.name), contextlib.redirect_stdout(io.StringIO()):
                code = main(call.argv(tmp))
            run.record(call.name, f"exit {code}" if code else call.check(tmp))


def summary(values) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values)}


def environment(args) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            caches[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit or "unknown (not a git checkout)",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_at_start": os.getloadavg(),
    }


def measure(workload, seconds: float, run: Run) -> tuple[dict, dict]:
    """Untraced run: set-up, one warm-up pass, then timed passes, the
    first three followed by one round of the workload's CLI commands.

    Host-speed marks run right before and after every timed call and
    command, and each time is scaled by the marks around it; the raw wall
    times are kept as the `*_wall_s` samples.
    """
    from hostspeed import HostSpeed

    speed = HostSpeed()
    setups, _ = setup_times(workload.models, SETUP_RUNS, run, None, speed)
    run_pass(workload.ops, run, speed=speed)  # warm-up, not counted
    # CLI rounds follow the first timed passes, so that both kinds of
    # sample spread over the run and average over more of a shared host's
    # slow and fast spells, which last from under a second to minutes.
    passes, clis = [], []
    while len(passes) < MIN_PASSES or sum(map(pass_seconds, passes)) < seconds:
        passes.append(run_pass(workload.ops, run, speed=speed))
        if len(clis) < CLI_ROUNDS:
            clis.append(cli_subprocess(workload.cli, run, speed))
    samples = {
        "setup_s": [t.scaled for t in setups],
        "setup_wall_s": [t.dt for t in setups],
        "run_s": [median_pass_seconds(passes, scaled=True)],  # one value from all passes
        "run_wall_s": [median_pass_seconds(passes, scaled=False)],
        "pass_s": [pass_seconds(p) for p in passes],
        "cli_s": [median_pass_seconds(clis, scaled=True)],  # one value from all rounds
        "cli_wall_s": [median_pass_seconds(clis, scaled=False)],
        "cli_round_s": [pass_seconds(c) for c in clis],
        "host_reference_s": speed.samples,
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
    }
    for p in passes:
        for key, value in rates(p).items():
            samples.setdefault(key, []).append(value)
    return samples, {"timings": {"setup": setups, "passes": passes, "cli": clis}}


def measure_traced(workload, workloads, ctx, run: Run) -> tuple[dict, dict]:
    """Traced run: spans around every call of all three workloads' lists,
    the single-layer probes and the in-process CLI, one pass each.

    Every traced run covers every layer, whatever --workload says, so
    that each per-layer metric exists on each workload; the named
    workload gives trace_overhead, its traced pass over an untraced one.
    """
    from spans import Tracer
    from workloads import DENSE_MUL_CALLS, MC_HORIZON, layer_probes

    tracer = Tracer()
    tracer.pass_id = "setup"
    _, parts = setup_times(workload.models, SETUP_RUNS, run, tracer)
    run_pass(workload.ops, run)  # warm-up, not traced
    untraced = pass_seconds(run_pass(workload.ops, run))
    traced = {}
    for w in workloads:
        tracer.pass_id = f"trace:{w.name}"
        with tracer.span(f"pass.{w.name}"):
            traced[w.name] = run_pass(w.ops, run, tracer)
    tracer.pass_id = "probes"
    probes = run_pass(layer_probes(ctx), run, tracer)
    tracer.pass_id = "cli"
    cli_in_process([c for w in workloads for c in w.cli], run, tracer)

    self_s = tracer.self_time_by_name()
    counters: dict = {}
    for timings in [*traced.values(), probes]:
        for t in timings:
            for key, value in t.counters.items():
                counters[key] = counters.get(key, 0) + value
    mc = traced["monte-carlo"]
    by_name = {t.name: t.dt for t in mc}
    h = f"h{MC_HORIZON}"
    values = {
        "setup.import_s": statistics.median(parts.get("setup.import", [0.0])),
        "modelio.load_model_s": statistics.median(parts.get("modelio.load_model", [0.0])),
        "lifelaw.summarize_s": statistics.median(parts.get("lifelaw.summarize", [0.0])),
        **{f"{name}_us": self_s[name] / calls * 1e6 for name, calls in DENSE_MUL_CALLS.items()},
        "lifelaw.sample_from_uniform_per_s":
            counters["lifelaw.draws"] / self_s["lifelaw.sample_from_uniform"],
        "limitlaw.clamped": counters.get("limitlaw.clamped", 0),
        "simulator.attempts_per_survivor":
            counters["simulator.attempts"] / counters["simulator.survivors"],
        "simulator.overflowed": counters.get("simulator.overflowed", 0),
        "simulator.thread_speedup":
            by_name[f"simulator.simulate.delayed_{h}"]
            / by_name[f"simulator.simulate.delayed_{h}_threads2"],
        "verify.checks_failed": counters.get("verify.checks_failed", 0),
        "trace_overhead": pass_seconds(traced[workload.name]) / untraced,
    }
    values.update({f"simulator.{k}": v for k, v in rates(mc).items()})
    for name, seconds in self_s.items():
        values.setdefault(f"{name}_s", seconds)
    return {k: [v] for k, v in values.items()}, {"spans": tracer.export()}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def report(workload, why: str, samples: dict, wanted: list, run: Run, env: dict,
           extra: dict) -> dict:
    print(f"# gwolab bench: workload={workload.name} seed={env['seed']} trace={env['trace']}")
    print(f"# why: {why}")
    print(f"# nproc={env['nproc']} cpu={env['cpu_model']} caches={env['caches']}")
    print(f"# python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"commit={env['git_commit']} loadavg={env['loadavg_at_start']}")
    units = {m["name"]: m["unit"] for m in wanted}
    for name in sorted(samples):
        s = summary(samples[name])
        unit = units.get(name) or ("1/s" if name.endswith("per_s") else "s" if name.endswith("_s") else "")
        n = {"run_s": f"{len(samples.get('pass_s', ()))} passes",
             "cli_s": f"{len(samples.get('cli_round_s', ()))} rounds"}.get(name, s["n"])
        print(f"{name:44s} {s['median']:14.6g} {unit:6s} n={n} "
              f"min={s['min']:.6g} max={s['max']:.6g}")
    error_rate = len(run.failures) / run.attempted
    print(f"{'error_rate':44s} {error_rate:14.6g} {'ratio':6s} n={run.attempted}")
    for failure in run.failures:
        print(f"FAILED {failure}")
    metrics = {m["name"]: {"value": summary(samples[m["name"]])["median"], "unit": m["unit"]}
               for m in wanted}
    record = {"environment": env, "samples": samples, "metrics": metrics,
              "attempted": run.attempted, "failures": run.failures, **extra}
    path = OUT_DIR / f"{workload.name}-seed{env['seed']}-trace{env['trace']}.json"
    path.write_text(json.dumps(record, indent=1, default=float) + "\n", encoding="utf-8")
    print(f"# full record: {path.relative_to(ROOT)}")
    return {"correct": not run.failures, "attempted": run.attempted,
            "failed": len(run.failures), "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60,
        )
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        if proc.returncode:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the timed passes run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    missing = [p for p in (SRC / "gwolab" / "__init__.py", ROOT / "docs" / "models",
                           ROOT / "BENCHMARK.json") if not p.exists()]
    if missing:
        print(f"bench: run from a gwolab checkout; missing {[str(p) for p in missing]}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    # Only threads=2 inside the monte-carlo workload may use a second core;
    # set before numpy is first imported, here and in every child.
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    OUT_DIR.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    os.sched_setaffinity(0, BENCH_CPUS)
    from workloads import WORKLOADS, Context

    env = environment(args)
    ctx = Context(args.seed)
    run = Run()
    try:
        if args.trace:
            workloads = [build(ctx) for build in WORKLOADS.values()]
            workload = next(w for w in workloads if w.name == args.workload)
            samples, extra = measure_traced(workload, workloads, ctx, run)
            wanted = spec["per_layer"]
        else:
            workload = WORKLOADS[args.workload](ctx)
            samples, extra = measure(workload, args.seconds, run)
            wanted = spec["end_to_end"]
    except Exception:  # a metric that cannot be formed: show why, print no result
        print("\n".join(f"FAILED {f}" for f in run.failures), file=sys.stderr)
        raise
    env["passes"] = len(samples.get("pass_s", [None]))
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    result = report(workload, why, samples, wanted, run, env, extra)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
