"""Bitwise A/B manifests of polycond's results.

    python tools/golden.py --out FILE [--root DIR]
    python tools/golden.py --compare OLD NEW

--out runs the polycond under DIR/src (DIR defaults to this file's checkout)
and writes a JSON manifest with one entry per result:

- the public functions on the six fixtures in DIR/tests/fixtures and on the
  four smoke-size problems of the benchmark's spectral workload at seed 1
  (DIR/bench/workloads.py), in the call order of SpectralWorkload._problem;
- every invocation of the benchmark's cli batch at seed 1, run in process
  through polycond.cli.main: its exit code, stdout, stderr and the files it
  writes.

An entry holds the SHA-256 of the value's bytes (float64 or complex128 for
numbers, UTF-8 for text), its type, a short repr and its numbers.  A refusal
is recorded as its error type and message; a public name the tree lacks
(an AttributeError) gives no entry.

--compare lists each entry that moved, with its largest relative difference,
and each entry found in only one manifest, and exits 1 if an entry moved.

The bits depend on the BLAS and the NumPy build, so compare manifests made on
one machine.  To A/B a change, run --out with --root at a checkout of each
tree and --compare the two files.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

SEED = 1
# a number in a text: a document, a CSV row or an error message
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan", re.IGNORECASE)


def _leaves(key: str, value):
    """(key, leaf) pairs of value: a dataclass by field, a dict by item, a list
    or tuple that holds more than numbers by index; callables are skipped."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            yield from _leaves(f"{key}.{f.name}", getattr(value, f.name))
    elif isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(f"{key}.{k}", v)
    elif isinstance(value, (list, tuple)) and not all(
            isinstance(v, (int, float, complex, np.generic)) for v in value):
        for i, v in enumerate(value):
            yield from _leaves(f"{key}[{i}]", v)
    elif not callable(value):
        yield key, value


def _entry(leaf) -> dict:
    """The manifest entry of one leaf: a str or None as text, anything else as
    a float64 or complex128 array."""
    if isinstance(leaf, str) or leaf is None:
        text = str(leaf)
        return {"type": "str", "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "repr": " ".join(text.split())[:100], "numbers": [float(t) for t in _NUMBER.findall(text)]}
    a = np.asarray(leaf)
    kind = f"{a.dtype}{list(a.shape)}"
    a = np.ascontiguousarray(a, dtype=complex if np.iscomplexobj(a) else float)
    with np.printoptions(threshold=6, edgeitems=2, precision=17):
        text = repr(leaf if a.ndim else a.item())
    return {"type": kind, "sha256": hashlib.sha256(a.tobytes()).hexdigest(),
            "repr": " ".join(text.split())[:100], "numbers": a.reshape(-1).view(float).tolist()}


class Manifest:
    """The entries recorded so far, by key, in the order recorded."""

    def __init__(self, pc):
        self.pc = pc
        self.entries = {}

    def add(self, key: str, value) -> None:
        for k, leaf in _leaves(key, value):
            if k in self.entries:
                raise KeyError(f"two results named {k!r}")
            self.entries[k] = _entry(leaf)

    def record(self, key: str, fn):
        """fn()'s value, recorded under key; a refusal is recorded as its type
        and message and gives None, as does a name the tree lacks."""
        try:
            value = fn()
        except self.pc.PolycondError as exc:
            self.add(key, f"{type(exc).__name__}: {exc}")
            return None
        except AttributeError as exc:
            print(f"golden: no entry {key}: {exc}", file=sys.stderr)
            return None
        self.add(key, value)
        return value


def _routes(m: Manifest, tag: str, poly, weights, picks) -> None:
    """SpectralWorkload._problem's calls, in its order: the spectrum, the
    condition routes and distance bounds at each picked index, and the defect
    perturbation at the first.  picks maps the spectrum to the indices."""
    pc = m.pc
    sp = m.record(f"{tag}/spectrum", lambda: pc.spectrum(poly))
    first = None
    for i in picks(sp):
        lam = complex(sp.eigenvalues[i])
        t = f"{tag}/{i}"
        xy = m.record(f"{t}/eig_vectors", lambda: pc.eig_vectors(poly, lam, values=sp.eigenvalues))
        if xy is None:
            continue
        x, y = xy
        m.record(f"{t}/cond_simple", lambda: pc.cond_simple(poly, weights, lam, x, y))
        m.record(f"{t}/cond_via_companion", lambda: pc.cond_via_companion(poly, weights, lam, x, y))
        m.record(f"{t}/cond_eigvector_free", lambda: pc.cond_eigvector_free(poly, weights, i, sp))
        m.record(f"{t}/min_gap_bound", lambda: pc.min_gap_bound(poly, weights, i, sp))
        m.record(f"{t}/dist_mult_bound", lambda: pc.dist_mult_bound(poly, weights, lam, x, y))
        m.record(f"{t}/dist_mult_bound_adj",
                 lambda: pc.dist_mult_bound_adj(poly, weights, i, sp, x, y))
        first = first or (i, lam, x, y)
    if first:
        i, lam, x, y = first
        m.record(f"{tag}/{i}/defect_perturbation",
                 lambda: pc.defect_perturbation(poly, weights, lam, x, y))


def _fixture(m: Manifest, name: str, pf) -> None:
    """The routes at every simple eigenvalue of a fixture, then the rest of
    the public functions that take a polynomial."""
    pc, poly, w = m.pc, pf.poly, pf.weights
    _routes(m, name, poly, w, lambda sp: [c.indices[0] for c in sp.clusters if c.size == 1])
    vals = m.record(f"{name}/eigenvalues", lambda: pc.eigenvalues(poly))
    m.record(f"{name}/companion", lambda: pc.companion(poly))
    m.record(f"{name}/coefficient_norms", poly.coefficient_norms)
    m.record(f"{name}/from_coefficient_norms", lambda: pc.WeightSet.from_coefficient_norms(poly))
    m.record(f"{name}/cluster", lambda: pc.cluster(vals, 1e-3))
    m.record(f"{name}/nearest_eigenvalue", lambda: pc.nearest_eigenvalue(vals, 0.5, tol=10.0))
    for i, lam in enumerate(vals.tolist()):
        t = f"{name}/every {i}"
        xy = m.record(f"{t}/eig_vectors", lambda: pc.eig_vectors(poly, lam, values=vals))
        m.record(f"{t}/adjugate_norm", lambda: pc.adjugate_norm(poly.eval(lam)))
        if xy is not None:
            m.record(f"{t}/companion_vectors", lambda: pc.companion_vectors(poly, lam, *xy))
        m.record(f"{t}/eigenvalue_shift_samples",
                 lambda: pc.eigenvalue_shift_samples(poly, w, 1e-6, lam, 8, SEED))
    z = np.array([0.3 + 0.2j, -1.1 + 0.5j, 2.0 - 0.7j])
    m.record(f"{name}/linearization_residual", lambda: pc.linearization_residual(poly, z))
    m.record(f"{name}/ef_factors", lambda: pc.ef_factors(poly, z[0]))
    m.record(f"{name}/elsner_bound", lambda: pc.elsner_bound(poly, w, 0.1, z[0]))
    q = m.record(f"{name}/random_perturbation", lambda: pc.random_perturbation(poly, 1e-3, w, SEED))
    m.record(f"{name}/is_admissible", lambda: pc.is_admissible(poly, q, 1e-3, w))
    m.record(f"{name}/boundedness_check", lambda: pc.boundedness_check(poly, w, 1e-3))
    r = 1.1 * float(np.max(np.abs(vals))) + 0.1
    grid = m.record(f"{name}/grid_eval", lambda: pc.grid_eval(poly, w, (-r, r, -r, r), 31, threads=1))
    eps = float(np.quantile(grid.values, 0.01))
    cs = m.record(f"{name}/contours", lambda: pc.contours(grid, eps))
    m.record(f"{name}/sublevel_component_count", lambda: pc.sublevel_component_count(grid, eps))
    centre = complex(vals[0])
    m.record(f"{name}/component_vertices", lambda: pc.component_vertices(cs, centre))
    radius = m.record(f"{name}/fitted_radius", lambda: pc.fitted_radius(cs, centre))
    if radius:
        m.record(f"{name}/disc_deviation", lambda: pc.disc_deviation(cs, centre, radius))
    if (t := pf.triple) is not None:
        m.record(f"{name}/norm_product", lambda: t.norm_product)
        m.record(f"{name}/validate_jordan_triple", lambda: pc.validate_jordan_triple(poly, t, z))
        m.record(f"{name}/bauer_fike_bound", lambda: pc.bauer_fike_bound(poly, w, 0.01, z[0], t))
        m.record(f"{name}/bound_comparator", lambda: pc.bound_comparator(poly, w, 0.01, z[0], t))
    if (d := pf.multiple) is not None:
        m.record(f"{name}/cond_multiple",
                 lambda: pc.cond_multiple(poly, w, d.eigenvalue, d.right_vectors, d.left_vectors))


def _cli(m: Manifest, workloads, cli) -> None:
    """The benchmark's cli batch at seed 1, run in the current directory (which
    holds tests/fixtures), each invocation recorded under its arguments."""

    class Capture(workloads.CliWorkload):
        def _invoke(self, argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:   # argparse usage errors
                    rc = exc.code
            key = f"cli {' '.join(argv)}"
            m.add(key, {"exit": rc, "stdout": out.getvalue(), "stderr": err.getvalue()})
            for a in argv:
                if a.startswith(f"{self.tmp}{os.sep}"):
                    m.add(f"{key}/{a}", Path(a).read_text(encoding="utf-8"))
            if rc:
                raise workloads.OpError(f"exit {rc}")
            return out.getvalue()

    w = Capture(SEED)
    w.tmp = Path("out")
    w.tmp.mkdir()
    w.batch(workloads.Recorder())


def write(root: Path, out: Path) -> None:
    src = (root / "src").resolve()
    sys.path[:0] = [str(src), str(root / "bench")]
    import polycond as pc
    if Path(pc.__file__).resolve().parent != src / "polycond":
        sys.exit(f"golden: imported polycond from {pc.__file__}, not from {src}")
    import polycond.cli
    import workloads

    m = Manifest(pc)
    fixtures = root / "tests" / "fixtures"
    for name in workloads.CLI_FIXTURES:
        _fixture(m, name, pc.load_problem(str(fixtures / f"{name}.json")))
    for label, poly, weights, picks in workloads.SpectralWorkload(SEED, smoke=True).problems:
        _routes(m, label, poly, weights, lambda sp: picks)
    here = Path.cwd()
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        shutil.copytree(fixtures, Path(tmp) / "tests" / "fixtures")
        os.chdir(tmp)
        try:
            _cli(m, workloads, polycond.cli)
        finally:
            os.chdir(here)
    doc = {"python": sys.version.split()[0], "numpy": np.__version__, "entries": m.entries}
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"golden: {len(m.entries)} entries written to {out}")


def _max_rel_diff(a: list, b: list) -> float:
    """max_i |a_i - b_i| / max(|a_i|, |b_i|), NaN-aware; NaN when the lengths differ."""
    if len(a) != len(b):
        return float("nan")
    if not a:
        return 0.0
    x, y = np.array(a), np.array(b)
    same = (x == y) | (np.isnan(x) & np.isnan(y))
    with np.errstate(invalid="ignore"):
        rel = np.abs(x - y) / np.maximum(np.abs(x), np.abs(y))
    return float(np.max(np.where(same, 0.0, np.nan_to_num(rel, nan=np.inf))))


def compare(old_path: Path, new_path: Path) -> int:
    old, new = (json.loads(p.read_text(encoding="utf-8"))["entries"] for p in (old_path, new_path))
    moved = 0
    for key, a in old.items():
        b = new.get(key)
        if b is None:
            print(f"only in {old_path}: {key}")
        elif (a["type"], a["sha256"]) != (b["type"], b["sha256"]):
            moved += 1
            d = _max_rel_diff(a["numbers"], b["numbers"])
            what = (f"max rel diff {d:.3e}" if d == d
                    else f"{len(a['numbers'])} -> {len(b['numbers'])} numbers")
            print(f"moved: {key}: {what}; {a['type']} {a['repr']} -> {b['type']} {b['repr']}")
    for key in new:
        if key not in old:
            print(f"only in {new_path}: {key}")
    print(f"golden: {len(old)} and {len(new)} entries, {moved} moved")
    return 1 if moved else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="write the manifest of this tree here")
    mode.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                    help="the checkout to run (default: this file's)")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    write(args.root, args.out.resolve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
