"""Benchmark for groupquant: one seeded workload, end to end or per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare BASE NEW

Workloads (see BENCHMARK.json for why each is there): local-moyal,
global-su2, sw-orbit, heat-table. Each runs in its own worker process
(worker.py) that calls groupquant's public functions on inputs drawn from
the seed, and ends every pass with correctness checks at the library's own
tolerances.

``--trace 0`` reports the end-to-end metrics, untraced:

* ``solve_s``: median wall time of one full pass after set-up;
* ``setup_s``: median, over several fresh processes, of the time from
  process start to ready-to-solve (interpreter, imports, quadratures,
  Peter-Weyl spaces, orbit grids);
* ``peak_rss_mb``: peak resident memory of the solving process;
* ``fail_frac``: (failed checks + 1) / (checks + 2) per pass, median;
  a check that raises has failed.

``--trace 1`` reports the per-layer metrics from a run under the span
recorder of tracing.py (one layer per groupquant module), with its overhead
against untraced passes of the same process.

The last line of standard output is the result as JSON: ``correct``,
``attempted`` and ``failed`` (operations, and those that raised) and
``metrics``. A run is correct when every check passed except those named
in workloads.KNOWN_MISSES (baseline misses, counted in fail_frac) and
workloads.SEED_DEPENDENT (listed when they miss, not counted). The full
record, with the check residuals and the environment, is written to
``.perfbench/<workload>-trace<t>-seed<n>.json``. ``--compare`` prints each
metric of two such records (or of two directories of them) as a ratio to
its base.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("local-moyal", "global-su2", "sw-orbit", "heat-table")
SETUP_SAMPLES = 5       # processes timed for setup_s, the solving one included
DEADLINE_S = 170.0      # a run must end within 180 s


class WorkerError(RuntimeError):
    pass


def child_env():
    """This environment with the BLAS thread count pinned to at most nproc."""
    env = dict(os.environ)
    nproc = os.cpu_count() or 1
    threads = min(nproc, int(env.get("OPENBLAS_NUM_THREADS") or nproc))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def start_worker(args, mode, env, deadline):
    """Run worker.py; return (seconds until READY, its last output line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--mode", mode, "--size", args.size]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0),
                               proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise WorkerError("%s worker exited with %s" % (mode, code))
    lines = rest.strip().splitlines()
    return ready, lines[-1] if lines else ""


def measure(args):
    env = child_env()
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        _, line = start_worker(args, "trace", env, deadline)
        return json.loads(line)
    setup = [start_worker(args, "setup", env, deadline)[0]
             for _ in range(SETUP_SAMPLES - 1)]
    ready, line = start_worker(args, "solve", env, deadline)
    rec = json.loads(line)
    setup.append(ready)
    rec["setup_s"] = {"n": len(setup), "median": statistics.median(setup),
                      "samples": setup}
    rec["metrics"]["setup_s"] = {"value": statistics.median(setup),
                                 "unit": "s"}
    return rec


def report(rec):
    """Human-readable lines before the result line."""
    print("workload %s  seed %s  size %s  mode %s" % (
        rec["workload"], rec["env"]["seed"], rec["size"], rec["mode"]))
    print("environment " + json.dumps(rec["env"], sort_keys=True))
    for key in ("solve_s", "trace_solve_s", "setup_s"):
        if key in rec:
            print("%s over %d samples: %s" % (key, rec[key]["n"], json.dumps(
                {k: v for k, v in rec[key].items() if k != "n"})))
    for name, m in rec["metrics"].items():
        print("  %-28s %16.6g %s" % (name, m["value"], m["unit"]))
    for key, label in (("known_misses", "known baseline misses"),
                       ("seed_dependent", "seed-dependent, not in fail_frac"),
                       ("unexpected", "UNEXPECTED")):
        print("checks failed, %s: %s" % (label, ", ".join(rec[key]) or "none"))
    for op, err in rec["op_errors"].items():
        print("operation %s raised %s" % (op, err))


def _records(path):
    path = Path(path)
    if path.is_dir():
        return {p.name: json.loads(p.read_text())
                for p in sorted(path.glob("*-trace*-seed*.json"))}
    return {path.name: json.loads(path.read_text())}


def compare(base_path, new_path):
    """Print every metric of two records as new / base, with the base."""
    base, new = _records(base_path), _records(new_path)
    if len(base) == 1 and len(new) == 1:
        pairs = [(next(iter(base)), next(iter(base.values())),
                  next(iter(new.values())))]
    else:
        pairs = [(k, base[k], new[k]) for k in sorted(base) if k in new]
    if not pairs:
        raise SystemExit("no records to compare")
    for name, b, n in pairs:
        print("%s: %s -> %s" % (name, b["env"]["git_sha"][:12],
                                n["env"]["git_sha"][:12]))
        print("  %-28s %14s %14s %8s" % ("metric", "base", "new", "ratio"))
        for metric, m in b["metrics"].items():
            if metric not in n["metrics"]:
                continue
            v0, v1 = m["value"], n["metrics"][metric]["value"]
            ratio = "%.3f" % (v1 / v0) if v0 else "n/a"
            print("  %-28s %14.6g %14.6g %8s %s" % (metric, v0, v1, ratio,
                                                     m["unit"]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the smoke test's sizes")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = ap.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "groupquant" / "__init__.py").is_file():
        print("perfbench: no groupquant sources in %s" % ROOT, file=sys.stderr)
        return 2
    try:
        rec = measure(args)
    except (WorkerError, ValueError, KeyError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / ("%s-trace%d-seed%d.json" % (
        args.workload, args.trace, args.seed))).write_text(json.dumps(rec))
    report(rec)
    print(json.dumps({"correct": rec["correct"],
                      "attempted": rec["attempted"],
                      "failed": rec["failed"],
                      "metrics": rec["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
