"""polycond's benchmark: one seeded workload per run.

Run from the root of a checkout:

    python3 bench/run.py --workload portrait --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes the separate traced run that yields the per-layer metrics.  The last
line of stdout is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the run's full record (provenance, op counts and latencies by
kind, failure messages), which is also written to .bench_out/.  ``--smoke``
shrinks every workload for bench/selftest.py.

Each workload is a closed loop with one client.  A run executes
round(seconds / nominal batch time) repetitions of the workload's fixed
batch, at least the workload's minimum and at least enough for 20
operations, so the amount of work, and with it the tail percentile, is the
same on every commit.
"""

import os

# Set before NumPy loads; every process the benchmark starts inherits it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
OUT = Path(".bench_out")
SETUP_PROBES = 5
IMPORT_PROBES = 5
TAIL_BEYOND = 10                # ops that must lie beyond the tail percentile
MIN_OPS = 2 * TAIL_BEYOND       # enough for p50, the lowest tail reported

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mib", "MiB"),
)

# per-layer metrics read straight off the tracer: self time of a span, or
# the number of calls of a function
SELF_TIME = (
    "io.parse_problem", "io.serialize_problem",
    "core.MatrixPolynomial_init",
    "linearization.companion", "linearization.linearization_residual",
    "spectra.eigenvalues", "spectra.spectrum", "spectra.cluster", "spectra.eig_vectors",
    "condition.cond_simple", "condition.cond_via_companion",
    "condition.cond_eigvector_free", "condition.min_gap_bound",
    "bounds.elsner_bound", "bounds.bauer_fike_bound",
    "bounds.dist_mult_bound", "bounds.dist_mult_bound_adj",
    "perturb.random_perturbation", "perturb.eigenvalue_shift_samples",
    "perturb.is_admissible", "perturb.defect_perturbation",
    "pseudospectra.grid_eval", "pseudospectra.contours",
    "pseudospectra.sublevel_component_count", "pseudospectra.fitted_radius",
)
CALLS = (
    "io.parse_problem", "core.MatrixPolynomial_init", "linearization.companion",
    "spectra.eigenvalues", "spectra.eig_vectors", "condition.adjugate_norm",
    "bounds.elsner_bound", "perturb.random_perturbation",
)
COUNTS = (      # metric, tracer counts summed, unit
    ("core.eval_calls", ("core.MatrixPolynomial.eval", "core.MatrixPolynomial.eval_derivative"), "count"),
    ("core.WeightSet_eval_calls", ("core.WeightSet.eval",), "count"),
    ("linalg.svd_calls", ("linalg.svd",), "count"),
    ("linalg.svd_matrices", ("linalg.svd_matrices",), "count"),
    ("linalg.eigvals_calls", ("linalg.eigvals",), "count"),
    ("pseudospectra.grid_nodes", ("pseudospectra.grid_nodes",), "count"),
    ("pseudospectra.contour_segments", ("pseudospectra.contour_segments",), "count"),
    ("pseudospectra.saddle_evals", ("pseudospectra.gfun",), "count"),
)
PER_LAYER = (
    [("import.interpreter_s", "s"), ("import.polycond_s", "s"),
     ("cli.main_s", "s"), ("cli.output_bytes", "B")]
    + [(f"{name}_s", "s") for name in SELF_TIME]
    + [(f"{name}_calls", "count") for name in CALLS]
    + [(name, unit) for name, _, unit in COUNTS]
    + [("perturb.draws_per_perturbation", "1"),
       ("pseudospectra.grid_nodes_per_s", "1/s"),
       ("pseudospectra.grid_eval_1t_s", "s"),
       ("pseudospectra.thread_speedup", "1"),
       ("pseudospectra.component_count_mismatch", "count"),
       ("trace.overhead_s", "s"),
       ("fail_ratio", "1")]
)


def check_checkout():
    """The benchmark builds nothing: it needs the sources and fixtures of
    the checkout it runs in."""
    missing = [p for p in ("src/polycond/__init__.py", "tests/fixtures/p3.json")
               if not Path(p).is_file()]
    if missing:
        sys.exit(f"bench: run from the root of a polycond checkout; missing {', '.join(missing)}")


def ratio(a, b):
    return a / b if b else 0.0


def tail(latencies):
    """The highest whole percentile q from 50 to 99 with at least
    TAIL_BEYOND operations beyond it, and the latency there by nearest rank
    (the ceil(q N / 100)-th smallest, an observed latency)."""
    n = len(latencies)
    q = max((q for q in range(50, 100) if n - math.ceil(q * n / 100) >= TAIL_BEYOND), default=None)
    if q is None:
        raise RuntimeError(f"{n} operations are too few for a tail percentile")
    return q, sorted(latencies)[math.ceil(q * n / 100) - 1]


def wall(rec, start=0):
    """Time the program spent on operations start.. of a recorder; the
    benchmark's own checks between operations are left out."""
    return sum(s for _, s in rec.latencies[start:])


def timed_process(argv, env=None):
    start = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - start


def setup_probe(args):
    """Seconds a fresh interpreter takes to import polycond and build the
    workload's inputs."""
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), args.workload, str(args.seed)]
    if args.smoke:
        argv.append("--smoke")
    out = subprocess.run(argv, check=True, capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def import_seconds():
    """Bare interpreter start, and what ``import polycond`` adds to it."""
    env = dict(os.environ, PYTHONPATH="src")
    bare = statistics.median(timed_process([sys.executable, "-c", "pass"], env)
                             for _ in range(IMPORT_PROBES))
    full = statistics.median(timed_process([sys.executable, "-c", "import polycond"], env)
                             for _ in range(IMPORT_PROBES))
    return bare, full - bare


def git_commit():
    # the ceiling keeps git from reporting an enclosing repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path.cwd().parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], env=env, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def provenance(seed):
    import numpy as np
    import workloads
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for f in sorted(Path("src/polycond").glob("*.py")):
        src.update(f.name.encode() + f.read_bytes())
    return {
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "grid_threads": workloads.GRID_THREADS,
    }


def by_kind(rec):
    kinds = {}
    for kind, s in rec.latencies:
        kinds.setdefault(kind, []).append(s)
    return {k: {"ops": len(v), "p50_s": statistics.median(v)} for k, v in kinds.items()}


def upper(values):
    """The 90th percentile, interpolated between the observed values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def run_end_to_end(w, args):
    import workloads
    w.warm_up(workloads.Recorder())
    rec = workloads.Recorder()
    target = max(w.min_batches, round(args.seconds / w.nominal_batch_s))
    walls, p50s, setup_times = [], [], []
    while len(walls) < target or len(rec.latencies) < MIN_OPS:
        first = len(rec.latencies)
        w.batch(rec)
        walls.append(wall(rec, first))
        p50s.append(statistics.median(s for _, s in rec.latencies[first:]))
        # set-up probes between batches, spread over the run
        while len(setup_times) < min(SETUP_PROBES, round(len(walls) * SETUP_PROBES / target)):
            setup_times.append(setup_probe(args))
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(setup_probe(args))
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if w.name == "cli"
                               else resource.RUSAGE_SELF)
    latencies = [s for _, s in rec.latencies]
    q, tail_s = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup_times),
        # per batch, then the upper decile over the run's batches: the figure
        # of a loaded host, which repeats; see "Steadiness" in bench/README.md
        "wall_s": upper(walls),
        "op_p50_s": upper(p50s),
        "op_tail_s": tail_s,
        "peak_rss_mib": usage.ru_maxrss / 1024.0,      # ru_maxrss is in KiB
    }
    detail = {"batches": len(walls), "batch_wall_s": walls, "batch_p50_s": p50s,
              "op_tail_percentile": q,
              "fail_ratio": ratio(rec.failed, rec.attempted),
              "setup_probe_s": setup_times, "kinds": by_kind(rec)}
    return [rec], metrics, END_TO_END, detail


def run_traced(w, args):
    import workloads
    from tracing import Tracer
    if w.name == "cli":
        # main(argv) in this process, so the layers below it can be traced
        w.in_process = True
    w.warm_up(workloads.Recorder())
    untraced = workloads.Recorder()
    w.batch(untraced)
    tracer = Tracer()
    tracer.install()
    try:
        traced = workloads.Recorder(tracer)
        w.batch(traced)
    finally:
        tracer.uninstall()
    det = workloads.Recorder()
    w.determinism(det, traced)
    interpreter_s, import_s = import_seconds()
    tracer.dump(OUT / f"spans-{w.name}.json")

    st, counts = tracer.self_time, tracer.counts
    grid_s = st["pseudospectra.grid_eval"]
    recs = [untraced, traced, det]
    metrics = {
        "import.interpreter_s": interpreter_s,
        "import.polycond_s": import_s,
        # the cli layer's own code: argument parsing, dispatch, JSON and CSV output
        "cli.main_s": sum(t for name, t in st.items() if name.startswith("cli.")),
        "cli.output_bytes": traced.stats["output_bytes"],
        **{f"{name}_s": st[name] for name in SELF_TIME},
        **{f"{name}_calls": counts[name] for name in CALLS},
        **{metric: sum(counts[n] for n in names) for metric, names, _ in COUNTS},
        "perturb.draws_per_perturbation": ratio(counts["perturb.perturbation_rng"],
                                                counts["perturb.random_perturbation"]),
        "pseudospectra.grid_nodes_per_s": ratio(counts["pseudospectra.grid_nodes"], grid_s),
        "pseudospectra.grid_eval_1t_s": det.stats["grid_eval_1t_s"],
        "pseudospectra.thread_speedup": ratio(det.stats["grid_eval_1t_s"],
                                              untraced.stats["grid_eval_s"]),
        "pseudospectra.component_count_mismatch": traced.stats["component_count_mismatch"],
        "trace.overhead_s": wall(traced) - wall(untraced),
        "fail_ratio": ratio(sum(r.failed for r in recs), sum(r.attempted for r in recs)),
    }
    detail = {"untraced_wall_s": wall(untraced), "traced_wall_s": wall(traced),
              "spans": len(tracer.spans), "kinds": by_kind(traced)}
    return recs, metrics, PER_LAYER, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced sizes, for bench/selftest.py")
    args = ap.parse_args(argv)
    check_checkout()

    src = Path("src").resolve()
    sys.path.insert(0, str(src))
    import polycond
    if Path(polycond.__file__).resolve().parent != src / "polycond":
        sys.exit(f"bench: imported polycond from {polycond.__file__}, not from {src}")
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    w = workloads.make(args.workload, args.seed, args.smoke)
    w.prepare()
    try:
        runner = run_traced if args.trace else run_end_to_end
        recs, values, names, detail = runner(w, args)
    finally:
        w.close()
    metrics = {n: {"value": float(values[n]), "unit": unit} for n, unit in names}
    result = {
        "correct": all(r.wrong == 0 for r in recs),
        "attempted": sum(r.attempted for r in recs),
        "failed": sum(r.failed for r in recs),
        "metrics": metrics,
    }
    messages = sum((r.messages for r in recs), Counter())
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "provenance": provenance(args.seed),
              **detail, "failures": messages, "result": result}
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
