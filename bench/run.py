"""Benchmark of trilam's user-facing jobs, end to end and layer by layer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                         [--size full|small]

Run from anywhere inside a checkout that has `src/trilam`; the package
is imported from that `src/`, never from an installed copy.  Workloads
are defined in `workloads.py` (leaves, pullbacks).

The load is closed-loop: one client, jobs back to back, one child
process at a time.  Each run starts fresh child processes of this
script, one after the other:

* `--trace 0`: CHILDREN children each import trilam and numpy, build
  the seeded inputs, run one checked warm-up pass, and then run timed
  passes for their share of `--seconds`.  `setup_s` is the median of
  their set-up times, from child start until the child reports ready,
  at reference speed (see below).
  `wall_s` and `items_per_s` are the median pass time and per-pass
  throughput over the passes of all children, at reference speed (see
  below), and `peak_rss_mb` the median of their `ru_maxrss`.  Pooling
  the passes of fresh processes also averages effects that last a
  process's lifetime, such as its memory layout.
* `--trace 1`: one child runs untraced passes for half of `--seconds`,
  then traced passes (see `spans.py`) for the other half, and reports
  each per-layer metric as its median over the traced passes, with the
  tracing overhead: traced minus untraced median pass time.

On a shared host the speed of a core drifts by tens of percent, for
seconds to a minute at a time, and CPU time drifts with wall time.  So
between passes each child times a fixed reference task that uses no
trilam code (`reference_s`), and scales each pass to the speed at which
that task takes REF_NOMINAL_S: a pass's time is multiplied, and its
throughput divided, by REF_NOMINAL_S over the mean of the reference
times just before and just after it.  A set-up time is scaled the same
way, by the reference time just after it.  The scaling is the same for
every commit, so a change to trilam moves the scaled figures as much as
the raw ones; the raw medians and the median reference time are printed
too.  The traced run is not scaled.

Every job's output is checked outside the timed region; a job that
raises or fails its check counts in `failed`, and the run goes on.
The last line of standard output is one JSON object
`{"correct", "attempted", "failed", "metrics"}`; the lines before it
print each metric with its unit, and the run's metadata.  The exit code
is 0 when every job passed, 1 when some failed, 2 when the run itself
could not be made (no sources, a child crashed or ran out of time).
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 1
CHILDREN = 2
REF_NOMINAL_S = 0.1  # about the reference task's time on a 2.1-GHz Xeon vCPU
REF_LOOP = 700_000
REF_FRACTIONS = 25_000
RUN_LIMIT_S = 170.0  # a run must end within 180 s
WORKLOAD_NAMES = ("leaves", "pullbacks")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="chooses the comajors that pullbacks prunes and emits")
    ap.add_argument("--seconds", type=float, default=48.0, help="measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small: the smallest inputs, for the benchmark's self-test")
    ap.add_argument("--child", choices=("measure", "trace"), help=argparse.SUPPRESS)
    return ap


# -- parent ------------------------------------------------------------------


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without leaving it (None outside a git checkout)."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, packed_name = line.partition(" ")
            if packed_name == name:
                return sha
    except OSError:
        pass
    return None


def _metadata(args) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload, "seed": args.seed, "default_seed": DEFAULT_SEED,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "git_sha": _git_sha(), "python": platform.python_version(), "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)), "loadavg_start": list(os.getloadavg()),
    }


def _spawn(role: str, args, seconds: float, deadline: float) -> dict:
    """Run one child to completion; its result plus `setup_s` as seen from here."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--size", args.size]
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    setup_s = None
    result = None
    try:
        for line in proc.stdout:
            if line == "READY\n" and setup_s is None:
                setup_s = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stderr.write(line)
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or result is None or setup_s is None:
        raise RuntimeError(f"{role} child exited with code {code} "
                           f"{'before reporting a result' if result is None else ''}")
    result["setup_s"] = setup_s
    return result


def at_reference_speed(walls, rates, refs) -> tuple[float, float]:
    """Median pass time and throughput, each pass scaled to the speed at
    which the reference task takes REF_NOMINAL_S."""
    slowdowns = [f / REF_NOMINAL_S for f in refs]
    return (statistics.median(w / k for w, k in zip(walls, slowdowns)),
            statistics.median(r * k for r, k in zip(rates, slowdowns)))


def _print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<46} {value:>16.6g} {unit:<6} {note}".rstrip())


def parent_main(args) -> int:
    if not (ROOT / "src" / "trilam" / "__init__.py").is_file():
        print(f"bench: no trilam sources at {ROOT / 'src' / 'trilam'}", file=sys.stderr)
        return 2
    print("meta " + json.dumps(_metadata(args)), flush=True)
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            children = [_spawn("trace", args, args.seconds, deadline)]
        else:
            children = [_spawn("measure", args, args.seconds / CHILDREN, deadline)
                        for _ in range(CHILDREN)]
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    walls = [w for c in children for w in c["walls"]]

    print(f"{args.workload} ({children[0]['items_are']}; {children[0]['jobs']} jobs per pass, "
          f"{len(walls)} {'traced' if args.trace else 'timed'} passes)")
    if args.trace:
        metrics = dict(children[0]["layers"])
        print(f"  untraced pass {children[0]['untraced_wall_s']:.4f} s")
    else:
        rates = [r for c in children for r in c["rates"]]
        refs = [f for c in children for f in c["refs"]]
        print(f"  unscaled: pass {statistics.median(walls):.4f} s, "
              f"{statistics.median(rates):.1f} items/s; reference task "
              f"{statistics.median(refs):.4f} s (nominal {REF_NOMINAL_S} s)")
        wall_s, items_per_s = at_reference_speed(walls, rates, refs)
        setups = [c["setup_s"] * REF_NOMINAL_S / c["ref_at_ready"] for c in children]
        print(f"  unscaled: setup {statistics.median(c['setup_s'] for c in children):.4f} s")
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall_s, "s"),
            "items_per_s": (items_per_s, "1/s"),
            "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in children), "MB"),
        }
    for name, (value, unit) in metrics.items():
        _print_metric(name, value, unit)
    _print_metric("failed_frac", failed / attempted, "ratio", f"({failed} of {attempted} jobs)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


# -- child -------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0


def run_pass(wl, tally: Tally) -> tuple[float, int]:
    """One pass over the workload's jobs; (wall seconds, items completed)."""
    outputs = []
    start = time.perf_counter()
    for job in wl.jobs:
        try:
            outputs.append((wl.run(job), None))
        except Exception as exc:  # a failing job is counted, not fatal
            outputs.append((None, exc))
    wall = time.perf_counter() - start
    items = 0
    for job, (out, err) in zip(wl.jobs, outputs):
        tally.attempted += 1
        if err is None:
            try:
                items += wl.check(job, out)
                continue
            except Exception as exc:  # CheckFailed, or a check that could not run
                err = exc
        tally.failed += 1
        if tally.failed <= 3:
            part, args = job
            print(f"bench: {type(part).__name__} job {args} failed:", file=sys.stderr)
            traceback.print_exception(err, file=sys.stderr)
    return wall, items


def reference_s() -> float:
    """Wall time of a fixed task that uses no trilam code but does the
    kind of work trilam's layers do in pure Python: integer arithmetic in
    a loop, and Fractions built, hashed into a dict and sorted.  The
    cyclic garbage collector is off meanwhile, so that its time does not
    grow with the objects the workload keeps alive."""
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for i in range(REF_LOOP):
            acc += i * i % 7
        table = {}
        for i in range(REF_FRACTIONS):
            f = Fraction(i, 3 ** (i % 9 + 1))
            table[f.numerator % 97, i] = (f, i)
        sorted(table)
        return time.perf_counter() - start
    finally:
        gc.enable()


def timed_passes(wl, tally: Tally, seconds: float):
    """At least two passes, back to back until about `seconds` have gone,
    with the reference task timed before the first and after each;
    (walls, items per second, mean reference time around each pass)."""
    walls, rates, refs = [], [], []
    start = time.perf_counter()
    before = reference_s()
    while True:
        wall, items = run_pass(wl, tally)
        after = reference_s()
        walls.append(wall)
        rates.append(items / wall)
        refs.append((before + after) / 2)
        before = after
        if len(walls) >= 2 and time.perf_counter() - start + wall / 2 >= seconds:
            return walls, rates, refs


def _traced(wl, tally: Tally, seconds: float) -> tuple[list[float], dict]:
    from spans import LAYER_METRICS, Tracer

    tracer = Tracer()
    restore, missing = tracer.install()
    if missing:
        print("bench: not traced, no such binding: " + ", ".join(missing), file=sys.stderr)
    per_pass = []
    walls = []
    try:
        start = time.perf_counter()
        while True:
            wall, _ = run_pass(wl, tally)
            walls.append(wall)
            agg, counters = tracer.drain()
            per_pass.append({name: fn(agg, counters) for name, _, fn in LAYER_METRICS})
            if time.perf_counter() - start + wall / 2 >= seconds:
                break
    finally:
        restore()
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    layers = {name: (statistics.median(p[name] for p in per_pass), units[name]) for name in units}
    return walls, layers


def child_main(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  (part of set-up)
    import trilam

    if Path(trilam.__file__).resolve().parent != ROOT / "src" / "trilam":
        print(f"bench: imported trilam from {trilam.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Workload

    expected = json.loads((BENCH_DIR / "expected.json").read_text())[args.size]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = Workload(WORKLOADS[args.workload], args.seed, args.size, expected, workdir)
        tally = Tally()
        run_pass(wl, tally)  # warm-up
        print("READY", flush=True)
        result = {"items_are": wl.items_are, "jobs": len(wl.jobs)}
        if args.child == "measure":
            result["ref_at_ready"] = reference_s()
            result["walls"], result["rates"], result["refs"] = timed_passes(
                wl, tally, args.seconds)
        elif args.child == "trace":
            untraced, _, _ = timed_passes(wl, tally, args.seconds / 2)
            result["walls"], layers = _traced(wl, tally, args.seconds / 2)
            result["untraced_wall_s"] = statistics.median(untraced)
            traced = statistics.median(result["walls"])
            layers["trace.wall_s"] = (traced, "s")
            layers["trace.overhead_s"] = (traced - result["untraced_wall_s"], "s")
            result["layers"] = layers
        result["attempted"] = tally.attempted
        result["failed"] = tally.failed
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print("RESULT " + json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another child's directory is still there
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    return child_main(args) if args.child else parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
