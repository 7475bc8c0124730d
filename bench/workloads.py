"""The benchmark's four workloads.

Constructing a workload builds its inputs from the seed; that is the set-up
``setup_s`` times.  ``batch`` then runs the workload's fixed batch of
operations through a Recorder, which times each operation and checks its
output.  Tolerances are those of tests/test_acceptance.py.  Inputs are
generated here and handed to polycond's public functions; the fixtures in
tests/fixtures are only read.

All library calls go through module attributes (``pc.spectrum``, never a
name imported once), so that the traced run sees the benchmark's own calls.
"""

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

import polycond as pc

FIXTURES = Path("tests") / "fixtures"
CLI_FIXTURES = ("p3", "p4", "p5", "p6", "p6_perturbed", "pz_zero_eig")
GRID_THREADS = 2

ROUTE_RTOL = 1e-4               # criterion 5, and cli cond against cond_simple
RADIUS_RTOL = 0.05              # criterion 2
BOUND_SLACK = 1.0 + 1e-9        # criterion 6
SHIFT_RATIO = (0.5, 1.05)       # criterion 7, in units of the condition number

P3_BOX = (0.85, 1.15, -0.15, 0.15)
P3_LEVELS = ((1e-4, 0.0206), (2e-4, 0.0291), (4e-4, 0.0412), (8e-4, 0.0583))

# perturbation_rng streams for the generated inputs, one per use
STREAM_PORTRAIT = 300
STREAM_SPECTRAL = 400           # + index of the problem size
STREAM_PICK = 500               # + index of the problem size


def load_fixture(name):
    return pc.load_problem(str(FIXTURES / f"{name}.json"))


def synthetic_problem(seed, stream, n, m):
    """Complex Gaussian coefficients of norm about 1; the leading one is
    shifted by 3I, which keeps its smallest singular value near 1."""
    rng = pc.perturbation_rng(seed, stream)
    coeffs = [(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2 * n)
              for _ in range(m + 1)]
    coeffs[-1] = coeffs[-1] + 3.0 * np.eye(n)
    poly = pc.MatrixPolynomial(coeffs)
    return poly, pc.WeightSet.from_coefficient_norms(poly)


def values_hash(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def rel_err(a, b):
    return abs(a - b) / abs(b)


class OpError(Exception):
    """An operation that returned no result (for the CLI: a non-zero exit)."""


class Recorder:
    """Times, checks and counts the operations of one phase of a run.

    An operation fails when it raises or when its check returns a message;
    ``wrong`` counts only the second kind, an output that was produced but
    is not correct.  Checks run after the operation's clock has stopped.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies = []         # (kind, seconds), one per operation
        self.checks = 0             # checks over several operations
        self.errors = 0
        self.wrong = 0
        self.messages = Counter()
        self.stats = Counter()
        self.hashes = {}

    @property
    def attempted(self):
        return len(self.latencies) + self.checks

    @property
    def failed(self):
        return self.errors + self.wrong

    def _fail(self, kind, message, wrong):
        if wrong:
            self.wrong += 1
        else:
            self.errors += 1
        self.messages[f"{kind}: {message}"[:300]] += 1

    def op(self, kind, fn, check=None):
        """Run fn() as one timed operation, then check(result).
        Returns the result, or None when the operation raised."""
        scope = self.tracer.op(kind) if self.tracer else contextlib.nullcontext()
        with scope:
            start = time.perf_counter()
            try:
                out = fn()
            except Exception as exc:    # counted and reported; the run goes on
                out, err = None, f"{type(exc).__name__}: {exc}"
            else:
                err = None
            self.latencies.append((kind, time.perf_counter() - start))
        if err is not None:
            self._fail(kind, err, wrong=False)
            return None
        if check is not None:
            try:
                problem = check(out)
            except Exception as exc:    # a malformed output fails its check
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                self._fail(kind, problem, wrong=True)
        return out

    def extra_check(self, kind, problem):
        """A check over several operations (determinism, a sample maximum);
        it counts as one more operation."""
        self.checks += 1
        if problem:
            self._fail(kind, problem, wrong=True)


class Workload:
    """Inputs built from the seed by the constructor, and one fixed batch."""

    name = ""
    nominal_batch_s = 1.0       # seconds per batch on a 2-core box; sizes a run
    min_batches = 1

    def prepare(self):
        """Untimed work before the first batch: check references, scratch space."""

    def warm_up(self, rec):
        raise NotImplementedError

    def batch(self, rec):
        raise NotImplementedError

    def determinism(self, rec, traced):
        """Checks for the traced run that compare repeated work with the
        traced batch; none by default."""

    def close(self):
        pass


# ---------------------------------------------------------------------------
# cli


class CliWorkload(Workload):
    """One op is one CLI invocation; see bench/README.md for the mix.

    With ``in_process`` set (the traced run), each invocation calls
    ``polycond.cli.main(argv)`` in this process instead of starting one.
    """

    name = "cli"
    nominal_batch_s = 20.0
    # one batch spans ~20 s; a second one gives each run more time over
    # which to average the host's drifting CPU speed
    min_batches = 2

    def __init__(self, seed, smoke=False):
        self.seed = seed
        self.smoke = smoke
        self.fixtures = {f: load_fixture(f) for f in CLI_FIXTURES}
        self.in_process = False
        self.tmp = None
        self._refs = {}

    def prepare(self):
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=".bench_out"))

    def close(self):
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)

    def _invoke(self, argv):
        if self.in_process:
            return self._invoke_in_process(argv)
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.run([sys.executable, "-m", "polycond.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            raise OpError(f"exit {proc.returncode}: {last[0]}")
        return proc.stdout

    def _invoke_in_process(self, argv):
        cli = importlib.import_module("polycond.cli")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:   # argparse usage errors
                rc = exc.code
        if rc != 0:
            last = err.getvalue().strip().splitlines()[-1:] or [""]
            raise OpError(f"exit {rc}: {last[0]}")
        return out.getvalue()

    def _call(self, rec, kind, argv, check=None, files=()):
        """One CLI op; returns its parsed ``result``, or None if it failed
        before its output parsed."""
        parsed = {}

        def full_check(text):
            parsed["result"] = json.loads(text)["result"]
            rec.stats["output_bytes"] += len(text.encode())
            for f in files:
                size = os.path.getsize(f)
                if size == 0:
                    return f"{f} is empty"
                rec.stats["output_bytes"] += size
            return check(parsed["result"]) if check else None
        rec.op(kind, lambda: self._invoke([str(a) for a in argv]), full_check)
        return parsed.get("result")

    def _cond_check(self, fixture, re_, im):
        def check(result):
            key = (fixture, re_, im)
            if key not in self._refs:
                pf = self.fixtures[fixture]
                sp = pc.spectrum(pf.poly)
                lam = complex(sp.eigenvalues[pc.nearest_eigenvalue(sp.eigenvalues, complex(re_, im))])
                x, y = pc.eig_vectors(pf.poly, lam, values=sp.eigenvalues)
                self._refs[key] = pc.cond_simple(pf.poly, pf.weights, lam, x, y)
            want = self._refs[key]
            if not rel_err(result["value"], want) <= ROUTE_RTOL:
                return f"cond {result['value']!r} vs in-process cond_simple {want!r}"
            return None
        return check

    def _eig_check(self, fixture):
        pf = self.fixtures[fixture]
        return lambda r: (None if len(r["eigenvalues"]) == pf.poly.n * pf.poly.m
                          else f"{len(r['eigenvalues'])} eigenvalues")

    def warm_up(self, rec):
        self._call(rec, "eig", ["eig", FIXTURES / "p5.json"])

    def batch(self, rec):
        tmp = self.tmp
        for fixture in (("p4",) if self.smoke else CLI_FIXTURES):
            path = FIXTURES / f"{fixture}.json"
            eig = self._call(rec, "eig", ["eig", path], self._eig_check(fixture))
            if eig is None:
                continue
            for c in eig["clusters"]:
                if c["size"] != 1:
                    continue
                # RE and IM exactly as the eig document printed them
                re_, im = eig["eigenvalues"][c["indices"][0]]
                self._call(rec, "cond", ["cond", path, "--eig", repr(re_), repr(im)],
                           self._cond_check(fixture, re_, im))
        p3, p4, p6 = (FIXTURES / f"{f}.json" for f in ("p3", "p4", "p6"))
        self._call(rec, "dist", ["dist", p4, "--eig", "-1", "0"],
                   lambda r: None if r["value"] > 0 else "non-positive bound")
        self._call(rec, "multi-cond", ["multi-cond", p3],
                   lambda r: None if r["value"] > 0 else "non-positive condition number")
        for bound in ("elsner", "bauer-fike", "compare"):
            self._call(rec, "bounds", ["bounds", bound, p6, "--eps", "0.3",
                                       "--mu", "0.5691", "0.0043"])
        grid_csv, contour_csv = tmp / "grid.csv", tmp / "contour.csv"
        self._call(rec, "pseudo",
                   ["pseudo", p3, "--eps", "1e-4", "--box", *map(str, P3_BOX),
                    "--resolution", "41" if self.smoke else "201",
                    "--threads", str(GRID_THREADS),
                    "--grid-out", grid_csv, "--contour-out", contour_csv],
                   lambda r: None if r["components"] >= 1 else "no contour component",
                   files=(grid_csv, contour_csv))
        random_out, defect_out = tmp / "random.json", tmp / "defect.json"
        self._call(rec, "perturb", ["perturb", "random", p6, "--eps", "0.01",
                                    "--seed", self.seed, "--out", random_out],
                   lambda r: None if r["admissible"] and all(r["tight"]) else "not admissible and tight",
                   files=(random_out,))
        self._call(rec, "perturb", ["perturb", "defect", p4, "--eig", "-1", "0",
                                    "--out", defect_out],
                   lambda r: (None if r["certificates"] and r["eps_used"] <= r["bound"]
                              else "uncertified or above the bound"),
                   files=(defect_out,))
        for check in ("linearization", "triple"):
            self._call(rec, "verify", ["verify", check, p3],
                       lambda r: None if r["pass"] else "verification failed")


# ---------------------------------------------------------------------------
# portrait


@dataclasses.dataclass(frozen=True)
class Portrait:
    label: str
    poly: object
    weights: object
    box: tuple
    resolution: int
    radii: tuple = ()               # (eps, expected fitted radius) around 1.0


class PortraitWorkload(Workload):
    """One op is one grid_eval at 2 threads plus all of its levels."""

    name = "portrait"
    nominal_batch_s = 1.1

    def __init__(self, seed, smoke=False):
        p3 = load_fixture("p3")
        poly, weights = synthetic_problem(seed, STREAM_PORTRAIT, 6, 3)
        h = 1.2 * float(np.max(np.abs(pc.eigenvalues(poly))))
        self.portraits = (
            Portrait("p3", p3.poly, p3.weights, P3_BOX, 401, P3_LEVELS),
            Portrait("synthetic", poly, weights, (-h, h, -h, h), 101 if smoke else 301),
        )

    def warm_up(self, rec):
        small = dataclasses.replace(self.portraits[1], resolution=41)
        rec.op("warm-up", lambda: self._portrait(small, rec))

    def _portrait(self, p, rec):
        start = time.perf_counter()
        grid = pc.grid_eval(p.poly, p.weights, p.box, p.resolution, threads=GRID_THREADS)
        rec.stats["grid_eval_s"] += time.perf_counter() - start
        if rec.tracer:
            grid = dataclasses.replace(
                grid, gfun=rec.tracer.counted(grid.gfun, "pseudospectra.gfun"))
        if p.radii:
            levels = [eps for eps, _ in p.radii]
        else:
            v = grid.values
            levels = np.logspace(math.log10(3 * float(v.min())),
                                 math.log10(float(np.median(v))), 16).tolist()
        out = []
        for eps in levels:
            cs = pc.contours(grid, eps)
            count = pc.sublevel_component_count(grid, eps)
            radius = pc.fitted_radius(cs, 1.0) if p.radii else None
            out.append((eps, cs.n_components, count, len(cs.segments), radius))
        return grid, out

    def _check(self, p, rec):
        def check(result):
            grid, levels = result
            rec.stats["component_count_mismatch"] += sum(lv[1] != lv[2] for lv in levels)
            rec.hashes[p.label] = values_hash(grid.values)
            if not np.all(np.isfinite(grid.values)):
                return "non-finite grid values"
            for (eps, want), (_, ncomp, _, _, radius) in zip(p.radii, levels):
                if ncomp != 1:
                    return f"{ncomp} components at eps={eps:g}"
                if not rel_err(radius, want) <= RADIUS_RTOL:
                    return f"fitted radius {radius:.5f} at eps={eps:g}, want {want}"
            for eps, ncomp, count, nseg, _ in levels:
                if nseg == 0 or count < 1:
                    return f"empty level set at eps={eps:g}"
            return None
        return check

    def batch(self, rec):
        for p in self.portraits:
            rec.op(p.label, lambda p=p: self._portrait(p, rec), self._check(p, rec))

    def determinism(self, rec, traced):
        """Each grid at threads=1 must hash like the traced 2-thread grid."""
        for p in self.portraits:
            start = time.perf_counter()
            grid = pc.grid_eval(p.poly, p.weights, p.box, p.resolution, threads=1)
            rec.stats["grid_eval_1t_s"] += time.perf_counter() - start
            same = values_hash(grid.values) == traced.hashes.get(p.label)
            rec.extra_check(f"determinism.{p.label}",
                            None if same else "grid differs between threads=1 and threads=2")


# ---------------------------------------------------------------------------
# spectral


class SpectralWorkload(Workload):
    """One op is one problem: spectrum with vectors, the cond + dist call
    sequence for 8 seed-chosen eigenvalues, and one defect perturbation."""

    name = "spectral"
    nominal_batch_s = 3.6
    # 7 batches give 28 ops, whose tail rank (the 18th) is the middle (100,2)
    # problem rather than the edge between two problem sizes
    min_batches = 7
    SIZES = ((20, 3), (50, 4), (100, 2), (100, 4))
    SMOKE_SIZES = ((4, 2), (6, 3), (8, 2), (10, 2))
    PICKS = 8

    def __init__(self, seed, smoke=False):
        self.problems = []
        for k, (n, m) in enumerate(self.SMOKE_SIZES if smoke else self.SIZES):
            poly, weights = synthetic_problem(seed, STREAM_SPECTRAL + k, n, m)
            picks = pc.perturbation_rng(seed, STREAM_PICK + k).choice(n * m, self.PICKS, replace=False)
            self.problems.append((f"n{n}m{m}", poly, weights, [int(i) for i in picks]))

    def warm_up(self, rec):
        label, poly, weights, picks = self.problems[0]
        rec.op("warm-up", lambda: self._problem(poly, weights, picks[:1]))

    @staticmethod
    def _problem(poly, weights, picks):
        sp = pc.spectrum(poly)
        rows = []
        for i in picks:
            lam = complex(sp.eigenvalues[i])
            x, y = pc.eig_vectors(poly, lam, values=sp.eigenvalues)
            rows.append({
                "lam": lam, "x": x, "y": y,
                "cond": pc.cond_simple(poly, weights, lam, x, y),
                "companion": pc.cond_via_companion(poly, weights, lam, x, y),
                "free": pc.cond_eigvector_free(poly, weights, i, sp),
                "gap": pc.min_gap_bound(poly, weights, i, sp),
                "dist": pc.dist_mult_bound(poly, weights, lam, x, y).value,
                "dist_adj": pc.dist_mult_bound_adj(poly, weights, i, sp, x, y).value,
            })
        first = rows[0]
        defect = pc.defect_perturbation(poly, weights, first["lam"], first["x"], first["y"])
        return rows, defect

    @staticmethod
    def _check(result):
        rows, defect = result
        for r in rows:
            for route in ("companion", "free"):
                if not rel_err(r[route], r["cond"]) <= ROUTE_RTOL:
                    return f"{route} route {r[route]!r} vs cond_simple {r['cond']!r} at {r['lam']}"
            if not all(math.isfinite(r[k]) and r[k] > 0 for k in ("gap", "dist", "dist_adj")):
                return f"non-positive bound at {r['lam']}"
        if not defect.certificates:
            return "defect perturbation carries no certificate"
        if not defect.eps_used <= rows[0]["dist"]:
            return f"defect eps_used {defect.eps_used!r} exceeds dist_mult_bound {rows[0]['dist']!r}"
        return None

    def batch(self, rec):
        for label, poly, weights, picks in self.problems:
            rec.op(label, lambda: self._problem(poly, weights, picks), self._check)


# ---------------------------------------------------------------------------
# montecarlo


class MonteCarloWorkload(Workload):
    """One op is one perturbed draw with its eigensolve and checks: the
    eigenvalue-shift samples of criterion 7, then the bound sweep of
    criterion 6."""

    name = "montecarlo"
    nominal_batch_s = 2.4
    SHIFT_EPS = 1e-7
    SHIFT_AT = 4.0
    SWEEP = ("p3", "p4", "p5", "p6")
    SWEEP_EPS = (1e-3, 1e-2)

    def __init__(self, seed, smoke=False):
        self.seed = seed
        self.shift_samples = 200 if smoke else 2000
        self.streams = 10 if smoke else 200
        self.fixtures = {f: load_fixture(f) for f in self.SWEEP}

    def prepare(self):
        p5 = self.fixtures["p5"]
        sp = pc.spectrum(p5.poly)
        lam = complex(sp.eigenvalues[pc.nearest_eigenvalue(sp.eigenvalues, self.SHIFT_AT)])
        x, y = pc.eig_vectors(p5.poly, lam, values=sp.eigenvalues)
        self.kappa = pc.cond_simple(p5.poly, p5.weights, lam, x, y)
        self.base = {f: pc.eigenvalues(pf.poly) for f, pf in self.fixtures.items()}

    def warm_up(self, rec):
        p5 = self.fixtures["p5"]
        for j in range(20):
            rec.op("warm-up", lambda: self._draw(p5, 1e-3, j))

    def _shift(self, j):
        p5 = self.fixtures["p5"]
        return float(pc.eigenvalue_shift_samples(p5.poly, p5.weights, self.SHIFT_EPS,
                                                 self.SHIFT_AT, samples=1, seed=self.seed,
                                                 stream_base=j)[0])

    def batched_shifts(self):
        """All shift samples in one library call, for the determinism check."""
        p5 = self.fixtures["p5"]
        return pc.eigenvalue_shift_samples(p5.poly, p5.weights, self.SHIFT_EPS, self.SHIFT_AT,
                                           samples=self.shift_samples, seed=self.seed)

    def _draw(self, pf, eps, stream):
        q = pc.random_perturbation(pf.poly, eps, pf.weights, seed=self.seed, stream=stream)
        vals = pc.eigenvalues(q.materialize())
        bounds = []
        for mu in vals:
            mu = complex(mu)
            b = [pc.elsner_bound(pf.poly, pf.weights, eps, mu, hypothesis_verified=True).value]
            if pf.triple is not None:
                b.append(pc.bauer_fike_bound(pf.poly, pf.weights, eps, mu, pf.triple,
                                             hypothesis_verified=True).value)
            bounds.append(b)
        return vals, bounds, pc.is_admissible(pf.poly, q, eps, pf.weights)

    def _draw_check(self, fixture):
        base = self.base[fixture]

        def check(result):
            vals, bounds, adm = result
            if not (adm.admissible and all(adm.tight)):
                return "draw is not admissible and tight"
            for mu, b in zip(vals, bounds):
                gap = float(np.min(np.abs(base - mu)))
                if any(not gap <= v * BOUND_SLACK for v in b):
                    return f"gap {gap!r} exceeds a bound {b!r} at {mu}"
            return None
        return check

    def batch(self, rec):
        shifts = []

        def shift_check(v):
            if not (math.isfinite(v) and v >= 0):
                return f"shift {v!r}"
            shifts.append(v)
            return None

        for j in range(self.shift_samples):
            rec.op("shift", lambda j=j: self._shift(j), shift_check)
        lo, hi = (f * self.kappa for f in SHIFT_RATIO)
        ratio = max(shifts, default=0.0) / self.SHIFT_EPS
        rec.extra_check("shift.ratio", None if lo <= ratio <= hi else
                        f"max shift / eps = {ratio:.6g} outside [{lo:.6g}, {hi:.6g}]")
        rec.hashes["shift"] = values_hash(np.array(shifts))
        for fixture in self.SWEEP:
            pf = self.fixtures[fixture]
            check = self._draw_check(fixture)
            for eps in self.SWEEP_EPS:
                for s in range(self.streams):
                    rec.op("sweep", lambda pf=pf, eps=eps, s=s: self._draw(pf, eps, s), check)

    def determinism(self, rec, traced):
        """Two library calls with the same seed, and the traced per-op
        samples, must hash alike."""
        first, second = values_hash(self.batched_shifts()), values_hash(self.batched_shifts())
        rec.extra_check("determinism.repeat", None if first == second else
                        "shift samples differ between two runs with the same seed")
        rec.extra_check("determinism.per_op", None if first == traced.hashes.get("shift") else
                        "per-draw shift samples differ from one batched call")


WORKLOADS = {w.name: w for w in (CliWorkload, PortraitWorkload, SpectralWorkload, MonteCarloWorkload)}


def make(name, seed, smoke=False):
    return WORKLOADS[name](seed, smoke)
