"""Benchmark of superlie: four workloads, end-to-end and per-layer metrics.

Run from the root of the repository:

    python3 bench/run.py --workload modules --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload cli --seed 1 --seconds 25 --trace 1
    python3 bench/run.py --smoke

A run sets its workload up nine times (a fresh interpreter importing
superlie, then the workload's inputs built from the seed) and reports the
median as setup_s.  It then repeats whole rounds of the workload's
operations: at least three, and more while the next round is expected to
end within --seconds.  Only the operations' calls into the library are
timed; the output checks run between them.

Other tenants of the host slow this process down by up to half, in
stretches from milliseconds to minutes.  So a fixed piece of pure-Python
work, the probe, is timed right before and after each timed call and each
set-up, and the time is scaled by PROBE_REFERENCE_S over the probe time.
setup_s and run_s are medians of the scaled times: seconds at the speed at
which the probe takes PROBE_REFERENCE_S, its fastest time on the machine of
the reference figures in README.md.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one plain and one
traced round (spans, and cProfile in this process or in each CLI child),
writes the spans and the per-layer metrics to bench/out/, and prints the
per-layer metrics.  --smoke runs every workload once on tiny inputs, plain
and traced, with every output check, in well under a minute.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "superlie")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("modules", "loop", "twisted", "cli")
SETUP_REPEATS = 9
MIN_ROUNDS = 3
PROBE_STEPS = 600
# The probe's fastest times on the machine of the reference figures, pinned
# to one CPU, were 1.20-1.23 ms; its median there, under other tenants'
# load, 1.5-2.4 ms.
PROBE_REFERENCE_S = 1.2e-3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import superlie.cli; "
                "print(time.perf_counter() - t)")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """Import superlie from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        fail(f"no superlie package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import superlie
    if os.path.realpath(os.path.dirname(superlie.__file__)) != os.path.realpath(PACKAGE_DIR):
        fail(f"imported superlie from {superlie.__file__}, not from {PACKAGE_DIR}")
    return superlie


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def environment() -> dict:
    from superlie.scalars import Rat
    return {"python": platform.python_version(),
            "rational_backend": f"{Rat.__module__}.{Rat.__name__}",
            "cpus": os.cpu_count()}


PROBES: list[float] = []  # every probe time of this run, for the log


def probe() -> float:
    """Seconds for a fixed piece of pure-Python work: the machine's speed now.

    It uses only the standard library, so no change to superlie moves it.
    """
    started = time.perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, PROBE_STEPS):
        total += Fraction(1, i % 97 + 1)
        seen[i % 13] = total
    PROBES.append(time.perf_counter() - started)
    return PROBES[-1]


def at_full_speed(seconds: float, probe_s: float) -> float:
    """A time scaled from the probe time around it to the reference speed."""
    return seconds * PROBE_REFERENCE_S / probe_s


@dataclass
class Round:
    timed: float = 0.0     # seconds inside the operations' library calls
    units: int = 0
    attempted: int = 0
    failed: int = 0
    raised: int = 0        # failed operations whose library call raised
    correct: bool = True
    op_times: list = field(default_factory=list)    # (op name, subcommand, s)
    op_probes: list = field(default_factory=list)   # mean probe s around each


def run_round(workload, tracer) -> Round:
    out = Round()
    for op in workload.round():
        out.attempted += 1
        gc.collect()
        before = probe()
        started = time.perf_counter()
        try:
            with tracer.op(op.name):
                result = op.call(tracer)
        except Exception:  # the library raised: the operation failed
            out.failed += 1
            out.raised += 1
            print(f"bench: {op.name} raised", file=sys.stderr)
            traceback.print_exc()
            continue
        finally:
            elapsed = time.perf_counter() - started
            out.timed += elapsed
            out.op_times.append((op.name, op.subcommand, elapsed))
            out.op_probes.append((before + probe()) / 2)
        try:
            if op.check(result):
                out.units += op.units
            else:
                out.failed += 1
        except Exception:  # CheckError, or outputs too malformed to check
            out.correct = False
            print(f"bench: wrong output from {op.name}", file=sys.stderr)
            traceback.print_exc()
    return out


def make_workload(name: str, seed: int, smoke: bool, workdir: str):
    import workloads
    cls = workloads.WORKLOADS[name]
    if cls is workloads.Cli:
        return cls(seed, smoke, child_env(), workdir)
    return cls(seed, smoke)


def set_up(name: str, seed: int, smoke: bool, workdir: str, repeats: int):
    """Set the workload up ``repeats`` times; the last one is kept."""
    env = child_env()
    import_times, setup_times = [], []
    for _ in range(repeats):
        before = probe()
        child = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                               capture_output=True, text=True, timeout=120, check=True)
        started = time.perf_counter()
        workload = make_workload(name, seed, smoke, workdir)
        workload.setup()
        built = time.perf_counter() - started
        import_times.append(float(child.stdout))
        setup_times.append((float(child.stdout) + built, (before + probe()) / 2))
    return workload, import_times, setup_times


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def full_speed_round(rounds) -> float:
    """One round's time in the calls: each operation's median scaled time."""
    return sum(statistics.median(at_full_speed(r.op_times[i][2], r.op_probes[i])
                                 for r in rounds)
               for i in range(len(rounds[0].op_times)))


def plain_metrics(name, rounds, setup_times) -> dict:
    run_s = full_speed_round(rounds)
    values = {
        "setup_s": (statistics.median(at_full_speed(*s) for s in setup_times), "s"),
        "run_s": (run_s, "s"),
        "work_per_s": (rounds[0].units / run_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(name), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def traced_metrics(workload, plain: Round, tracer, import_times) -> dict:
    from tracing import layer_metrics
    stats = pstats.Stats(tracer.profile)
    for path in getattr(workload, "profiles", []):
        stats.add(path)
    cli_times: dict = {}
    for _, sub, t in plain.op_times:
        if sub:
            cli_times.setdefault(sub, []).append(t)
    return layer_metrics(stats, PACKAGE_DIR, import_times, cli_times)


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    from tracing import PER_LAYER_UNITS, NullTracer, Tracer
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    try:
        workload, import_times, setup_times = set_up(
            name, seed, smoke, workdir, 1 if smoke else SETUP_REPEATS)
        rounds = []
        started = time.perf_counter()
        while True:
            round_started = time.perf_counter()
            rounds.append(run_round(workload, NullTracer()))
            last = time.perf_counter() - round_started
            if trace:
                break
            if len(rounds) >= MIN_ROUNDS and time.perf_counter() - started + last > seconds:
                break
        if trace:
            tracer = Tracer()
            rounds.append(run_round(workload, tracer))
            values = traced_metrics(workload, rounds[0], tracer, import_times)
            metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}
            unresolved = sorted(k for k, v in values.items() if v is None)
            if unresolved:
                print(f"not measured, their functions or modules are gone: {', '.join(unresolved)}")
            overhead = rounds[1].timed - rounds[0].timed
            print(f"tracing overhead: {overhead:.3f} s ({rounds[0].timed:.3f} s plain, "
                  f"{rounds[1].timed:.3f} s traced)")
            path = os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"workload": name, "seed": seed, "environment": environment(),
                           "plain_run_s": rounds[0].timed, "traced_run_s": rounds[1].timed,
                           "tracing_overhead_s": overhead,
                           "span_self_s": tracer.self_seconds_by_layer(),
                           "per_layer": values, "spans": tracer.spans}, fh, indent=1)
            print(f"trace written to {os.path.relpath(path, ROOT)}")
        else:
            metrics = plain_metrics(name, rounds, setup_times)
            throughput = metrics["work_per_s"]["value"]
            print(f"{workload.unit_label}: {throughput:.6g} 1/s")
            print(f"unscaled: mean round {statistics.mean(r.timed for r in rounds):.3f} s "
                  f"in calls, median set-up {statistics.median(s for s, _ in setup_times):.3f} s;"
                  f" probe fastest {min(PROBES) * 1e3:.3f} ms, median "
                  f"{statistics.median(PROBES) * 1e3:.3f} ms")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for i, r in enumerate(rounds):
        print(f"round {i + 1}: {r.timed:.3f} s in calls, {r.attempted} operations, "
              f"{r.failed} failed")
        for op_name, _, t in r.op_times:
            print(f"  {t:8.3f} s  {op_name}")
    for key, m in metrics.items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{key} = {value} {m['unit']}")
    return {"correct": all(r.correct for r in rounds),
            "raised": sum(r.raised for r in rounds),
            "attempted": sum(r.attempted for r in rounds),
            "failed": sum(r.failed for r in rounds),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="length of the measured phase; BENCHMARK.json gives the benchmark's")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload once on tiny inputs, plain and traced")
    args = parser.parse_args(argv)
    if not args.smoke and (args.workload is None or args.seconds is None):
        parser.error("--workload and --seconds are required unless --smoke is given")
    load_library()
    if hasattr(os, "sched_setaffinity"):
        # one CPU for this process and its children, so that the probes
        # time the CPU that the timed work runs on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = environment()
    print(f"environment: python {env['python']}, rational backend "
          f"{env['rational_backend']}, {env['cpus']} CPUs")
    if args.smoke:
        ok = True
        for name in WORKLOADS:
            started = time.perf_counter()
            result = measure(name, args.seed, 0, trace=True, smoke=True)
            ok = ok and result["correct"] and not result["raised"]
            print(f"smoke {name}: correct={result['correct']} attempted="
                  f"{result['attempted']} failed={result['failed']} raised="
                  f"{result['raised']} ({time.perf_counter() - started:.1f} s)")
        return 0 if ok else 1
    print(f"workload {args.workload}, seed {args.seed}")
    result = measure(args.workload, args.seed, args.seconds, trace=bool(args.trace),
                     smoke=False)
    print(f"operations: {result.pop('raised')} raised, {result['attempted']} attempted, "
          f"{result['failed']} failed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
