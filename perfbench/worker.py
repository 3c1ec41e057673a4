"""One workload in one process: set-up, timed passes and an optional trace.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \\
        --mode setup|solve|trace [--size full|tiny]

run.py starts this process. It prints READY as soon as set-up is done, so
that the parent can time set-up from the moment it started the process. In
``setup`` mode it exits there. Otherwise it runs passes for about
``--seconds`` and prints one JSON record as its last line:

* ``solve``: untraced passes; ``solve_s``, ``peak_rss_mb`` and ``fail_frac``.
* ``trace``: set-up and passes run under the span recorder of tracing.py,
  after untraced passes that give the tracing overhead; the per-layer
  metrics, and the spans written to ``.perfbench/spans-*.csv``.

Every pass draws its inputs from ``numpy.random.default_rng(seed)``, so all
passes of a run, and all runs with one seed, compute the same numbers.
"""

import argparse
import gc
import importlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench"


def import_library():
    """Import every groupquant module from this checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "groupquant" / "__init__.py").is_file():
        raise SystemExit("perfbench: no groupquant sources under %s" % src)
    sys.path.insert(0, str(src))
    import groupquant
    import tracing
    if Path(groupquant.__file__).resolve().parent != (src / "groupquant"):
        raise SystemExit("perfbench: groupquant imported from %s, not %s"
                         % (groupquant.__file__, src))
    for layer in tracing.LAYERS:
        importlib.import_module("groupquant." + layer)


def _library_objects(obj, found, seen):
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, dict):
        for v in obj.values():
            _library_objects(v, found, seen)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _library_objects(v, found, seen)
    elif type(obj).__module__.startswith("groupquant.") and hasattr(
            obj, "__dict__"):
        found.append(obj)
        for v in vars(obj).values():
            _library_objects(v, found, seen)


class Snapshot:
    """The fixture's library objects as set-up left them.

    ``restore()`` before each pass drops what the previous pass cached on
    them (``Quadrature.rep_grid``, ``OrbitSpec.delta_field``, harmonics),
    so that every pass starts from set-up, as a fresh CLI run does. Arrays
    are shared, not copied: a pass does not write into them.
    """

    def __init__(self, fixture):
        objs = []
        _library_objects(fixture, objs, set())
        self.state = [(o, dict(vars(o))) for o in objs]

    def restore(self):
        for obj, attrs in self.state:
            d = vars(obj)
            d.clear()
            d.update({k: dict(v) if isinstance(v, dict) else v
                      for k, v in attrs.items()})


def timed_passes(run, fx, seed, budget, min_passes, snap, tracer=None):
    """Run passes until the next one would end past ``budget`` seconds."""
    from workloads import Checks
    import numpy as np

    passes = []
    start = time.perf_counter()
    while True:
        snap.restore()
        gc.collect()
        chk = Checks()
        if tracer is not None:
            tracer.phase("pass%d" % len(passes))
            tracer.reset_totals()
        t0 = time.perf_counter()
        run(fx, np.random.default_rng(seed), chk)
        dt = time.perf_counter() - t0
        rec = {"solve_s": dt, "ops": chk.ops, "op_errors": chk.op_errors,
               "fail_frac": chk.fail_frac(), "failed": chk.failed(),
               "unexpected": chk.unexpected(), "checks": chk.results}
        if tracer is not None:
            rec["layers"] = tracer.totals()
        passes.append(rec)
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + dt > budget:
            return passes


def spread(samples):
    """Median, count, and the highest percentile with ten samples above it."""
    n = len(samples)
    out = {"n": n, "median": statistics.median(samples),
           "min": min(samples), "max": max(samples)}
    if n >= 11:
        q = math.floor(100 * (1 - 10 / n))
        out["p%d" % q] = statistics.quantiles(samples, n=100)[q - 1]
    return out


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_loc = sum(len(p.read_text().splitlines())
                  for p in (ROOT / "src").rglob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": os.cpu_count(),
        "numba": importlib.util.find_spec("numba") is not None,
        "git_sha": _git_sha(),
        "seed": seed,
        "src_loc": src_loc,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _summary(passes):
    """Run-level fields: operations, failures, fail_frac, correctness."""
    from workloads import KNOWN_MISSES, SEED_DEPENDENT
    failing = sorted({c for p in passes for c in p["failed"]})
    return {
        "attempted": sum(p["ops"] for p in passes),
        "failed": sum(len(p["op_errors"]) for p in passes),
        "correct": not any(p["unexpected"] for p in passes),
        "fail_frac": statistics.median(p["fail_frac"] for p in passes),
        "known_misses": [c for c in failing if c in KNOWN_MISSES],
        "seed_dependent": [c for c in failing if c in SEED_DEPENDENT],
        "unexpected": sorted({c for p in passes for c in p["unexpected"]}),
        "op_errors": passes[0]["op_errors"],
        "checks": passes[0]["checks"],
    }


def solve_record(run, fx, args, snap):
    passes = timed_passes(run, fx, args.seed, args.seconds, 2, snap)
    times = [p["solve_s"] for p in passes]
    rec = _summary(passes)
    rec["solve_s"] = spread(times)
    rec["metrics"] = {
        "solve_s": _metric(statistics.median(times), "s"),
        "peak_rss_mb": _metric(resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        "fail_frac": _metric(rec["fail_frac"], "fraction"),
    }
    return rec


def layer_units():
    """Per-layer metric names with their units, in report order."""
    import tracing
    units = {}
    for layer in tracing.LAYERS:
        units[tracing.metric_layer(layer) + ".calls"] = "count"
        units[tracing.metric_layer(layer) + ".self_s"] = "s"
    units.update({"wigner.d_entries": "count", "wigner.max_2j": "2j",
                  "groups.quad_nodes": "count", "peterweyl.basis_mb": "MB",
                  "peterweyl.op_matrices": "count",
                  "kernels.series_points": "count",
                  "orbits.delta_builds": "count",
                  "bench.self_s": "s", "trace.solve_s": "s",
                  "trace.overhead_frac": "fraction"})
    for layer in tracing.LAYERS:
        units["setup.%s.self_s" % tracing.metric_layer(layer)] = "s"
    units.update({"setup.groups.quad_nodes": "count",
                  "setup.peterweyl.basis_mb": "MB",
                  "setup.wigner.d_entries": "count"})
    return units


def trace_record(run, fx, args, snap, tracer):
    setup_totals = tracer.totals()
    plain = timed_passes(run, fx, args.seed, args.seconds / 2, 1, snap)
    tracer.install()
    try:
        traced = timed_passes(run, fx, args.seed, args.seconds / 2, 1, snap,
                              tracer)
    finally:
        tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / ("spans-%s-seed%d.csv" % (args.workload, args.seed))
    tracer.write(spans)

    t_plain = statistics.median(p["solve_s"] for p in plain)
    t_traced = statistics.median(p["solve_s"] for p in traced)
    values = {name: statistics.median(p["layers"][name] for p in traced)
              for name in traced[0]["layers"]}
    # time in the pass outside every span: the benchmark's own code
    values["bench.self_s"] = statistics.median(
        p["solve_s"] - sum(v for k, v in p["layers"].items()
                           if k.endswith(".self_s")) for p in traced)
    values["trace.solve_s"] = t_traced
    values["trace.overhead_frac"] = (t_traced - t_plain) / t_plain
    for name, v in setup_totals.items():
        if name.endswith(".self_s") or name in (
                "groups.quad_nodes", "peterweyl.basis_mb", "wigner.d_entries"):
            values["setup." + name] = v
    rec = _summary(plain + traced)
    rec["metrics"] = {name: _metric(values[name], unit)
                      for name, unit in layer_units().items()}
    rec["spans_file"] = str(spans.relative_to(ROOT))
    rec["n_spans"] = len(tracer.span_start)
    rec["solve_s"] = spread([p["solve_s"] for p in plain])
    rec["trace_solve_s"] = spread([p["solve_s"] for p in traced])
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "solve", "trace"),
                    required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    import_library()
    import tracing
    import workloads
    setup, run = workloads.WORKLOADS[args.workload]
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracer.install()
        tracer.phase("setup")
        try:
            fx = setup(args.size)
        finally:
            tracer.uninstall()
    else:
        fx = setup(args.size)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    snap = Snapshot(fx)
    if args.mode == "solve":
        rec = solve_record(run, fx, args, snap)
    else:
        rec = trace_record(run, fx, args, snap, tracer)
    rec.update(workload=args.workload, size=args.size, mode=args.mode,
               env=environment(args.seed))
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
