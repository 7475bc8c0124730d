"""Command-line front end.

Every subcommand is a thin adapter around one library call: it loads a
problem file, runs the analysis, and prints a JSON result document on stdout
carrying the input file hash and a full parameter echo.  Analysis failures,
a result holding NaN or Infinity or a NumPy overflow among them, print one
structured error document on stderr and exit 1; usage errors exit 2.
Subcommands return library values and report objects as they are; one
json.dumps hook, _jsonable, decides how each becomes JSON.  Each command
imports the layers it calls when it runs, so a call loads only its own.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
import warnings
from dataclasses import asdict, is_dataclass

import numpy as np

from . import __version__
from .core import MatrixPolynomial, WeightSet, _blocks, singular_values
from .errors import HypothesisViolationError, PolycondError
from .io import ProblemFile, _problem_doc, parse_problem
from .spectra import (_require_simple, default_cluster_tol, eig_vectors, eigenvalues,
                      nearest_eigenvalue, spectrum, validate_jordan_triple)

RESIDUAL_TOL = 1e-8
_NON_FINITE = "the result holds NaN or Infinity, which JSON cannot carry"


def _jsonable(obj):
    """json.dumps default hook: a complex number becomes [re, im], a NumPy
    scalar or array its tolist(), a report dataclass its asdict()."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    if is_dataclass(obj):       # a report: BoundReport, ComparatorReport
        return asdict(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


class _Context:
    """Problem file plus the effective weights for this invocation."""

    def __init__(self, args):
        self.path = args.file
        with open(self.path, "rb") as fh:
            data = fh.read()
        # one read: the hash describes exactly the bytes analysed
        self.sha256 = hashlib.sha256(data).hexdigest()
        self.problem: ProblemFile = parse_problem(data.decode("utf-8"))
        self.poly: MatrixPolynomial = self.problem.poly
        if args.weights is not None:
            self.weights = WeightSet(args.weights)
            self.weights.require_match(self.poly)
            self.weights_overridden = True
        else:
            self.weights = self.problem.weights
            self.weights_overridden = False

    def header(self, command: str, params: dict) -> dict:
        return {
            "tool": "polycond",
            "version": __version__,
            "command": command,
            "input": {"path": self.path, "sha256": self.sha256},
            "parameters": dict(
                params,
                weights=self.weights.weights,
                weights_overridden=self.weights_overridden,
                weights_derived=self.problem.weights_derived,
            ),
        }


def _snap(ctx: _Context, args):
    """Resolve the --eig argument to a computed eigenvalue, its index, the
    spectrum and the eigenvalue's unit right/left eigenvectors; an eigenvalue
    in a cluster is refused before any eigenvector is computed."""
    target = complex(*args.eig)
    sp = spectrum(ctx.poly)
    idx = nearest_eigenvalue(sp.eigenvalues, target, tol=args.tol)
    lam = _require_simple(sp, idx)
    x, y = eig_vectors(ctx.poly, lam, values=sp.eigenvalues)
    return lam, idx, sp, x, y


def cmd_eig(ctx: _Context, args) -> dict:
    tol = args.cluster_tol
    sp = spectrum(ctx.poly, cluster_tol=tol)
    return {
        "eigenvalues": sp.eigenvalues,
        "cluster_tol": tol if tol is not None else default_cluster_tol(sp.eigenvalues),
        "clusters": [
            {"center": c.center, "indices": c.indices,
             "size": c.size} for c in sp.clusters
        ],
    }


def cmd_cond(ctx: _Context, args) -> dict:
    from .condition import cond_eigvector_free, cond_simple, cond_via_companion, min_gap_bound

    lam, idx, sp, x, y = _snap(ctx, args)
    k5 = cond_simple(ctx.poly, ctx.weights, lam, x, y)
    k8 = cond_via_companion(ctx.poly, ctx.weights, lam, x, y)
    kfree = cond_eigvector_free(ctx.poly, ctx.weights, idx, sp)
    out = {
        "eigenvalue": lam,
        "index": idx,
        "value": k5,
        "routes": {"eigenvector": k5, "companion": k8, "eigenvector_free": kfree},
    }
    if ctx.poly.n * ctx.poly.m > 1:
        out["min_gap_bound"] = min_gap_bound(ctx.poly, ctx.weights, idx, sp)
    return out


def cmd_multi_cond(ctx: _Context, args) -> dict:
    from .condition import cond_multiple

    data = ctx.problem.multiple
    if data is None:
        raise HypothesisViolationError(
            "the problem file carries no multiple-eigenvalue data "
            "(a \"multiple\" block with eigenvalue and eigenvector matrices)")
    value = cond_multiple(ctx.poly, ctx.weights, data.eigenvalue,
                          data.right_vectors, data.left_vectors)
    return {
        "eigenvalue": data.eigenvalue,
        "kappa": int(data.right_vectors.shape[1]),
        "value": value,
    }


def cmd_dist(ctx: _Context, args) -> dict:
    from .bounds import dist_mult_bound, dist_mult_bound_adj

    lam, idx, sp, x, y = _snap(ctx, args)
    direct = dist_mult_bound(ctx.poly, ctx.weights, lam, x, y)
    adj = dist_mult_bound_adj(ctx.poly, ctx.weights, idx, sp, x, y)
    return {
        "eigenvalue": lam,
        "value": direct.value,
        "bound": direct,
        "bound_adjugate_route": adj,
    }


def cmd_bounds(ctx: _Context, args) -> dict:
    from .bounds import bauer_fike_bound, bound_comparator, elsner_bound

    mu = complex(*args.mu)
    out = {"mu": mu, "eps": args.eps}
    if args.bound == "elsner":
        rep = elsner_bound(ctx.poly, ctx.weights, args.eps, mu)
        return dict(out, value=rep.value, bound=rep)
    triple = ctx.problem.triple
    if triple is None:
        raise HypothesisViolationError(
            "this bound needs a Jordan triple; the problem file has none")
    if args.bound == "bauer-fike":
        rep = bauer_fike_bound(ctx.poly, ctx.weights, args.eps, mu, triple)
        return dict(out, value=rep.value, bound=rep)
    return dict(out, **asdict(bound_comparator(ctx.poly, ctx.weights, args.eps, mu, triple)))


def _write_grid_csv(path: str, grid) -> None:
    """One write per grid row: beyond the grid, memory is one row's text."""
    re = [repr(x) for x in grid.re_axis.tolist()]
    im = [repr(y) for y in grid.im_axis.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("re,im,value\n")
        for y, row in zip(im, grid.values):
            fh.write("".join([f"{x},{y},{val!r}\n" for x, val in zip(re, row.tolist())]))


def _write_contour_csv(path: str, cs) -> None:
    """One write per segment."""
    counters = {}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("component,seg,re1,im1,re2,im2\n")
        # a (k, 2) complex array viewed as floats is its re1, im1, re2, im2 rows
        for lab, row in zip(cs.labels.tolist(), cs.segments.view(float).tolist()):
            seg = counters[lab] = counters.get(lab, -1) + 1
            fh.write(",".join(map(repr, [lab, seg, *row])) + "\n")


def cmd_pseudo(ctx: _Context, args) -> dict:
    from .pseudospectra import boundedness_check, contours, grid_eval, sublevel_component_count

    # grid_eval reads a single int as nx = ny
    resolution = args.resolution if len(args.resolution) == 2 else args.resolution[0]
    grid = grid_eval(ctx.poly, ctx.weights, tuple(args.box), resolution,
                     threads=args.threads)
    out = {
        "eps": args.eps,
        "box": args.box,
        "resolution": [grid.nx, grid.ny],
        "grid_min": float(grid.values.min()),
        "grid_max": float(grid.values.max()),
        "bounded": boundedness_check(ctx.poly, ctx.weights, args.eps),
        "poly_hash": grid.poly_hash,
    }
    cs = contours(grid, args.eps)
    out["components"] = cs.n_components
    out["clipped"] = cs.clipped
    out["segments"] = len(cs.segments)
    out["sublevel_components"] = sublevel_component_count(grid, args.eps)
    if cs.diagnostic:
        out["diagnostic"] = cs.diagnostic
    if args.grid_out:
        _write_grid_csv(args.grid_out, grid)
        out["grid_csv"] = args.grid_out
    if args.contour_out:
        _write_contour_csv(args.contour_out, cs)
        out["contour_csv"] = args.contour_out
    return out


def _write_problem(path: str, poly: MatrixPolynomial, source: ProblemFile) -> None:
    out = ProblemFile(poly=poly, weights=source.weights,
                      weights_derived=source.weights_derived)
    with open(path, "w", encoding="utf-8") as fh:
        # streamed: the bytes of serialize_problem, never the whole text at once
        json.dump(_problem_doc(out), fh, indent=2)
        fh.write("\n")


def cmd_perturb(ctx: _Context, args) -> dict:
    from .perturb import defect_perturbation, is_admissible, random_perturbation

    if args.kind == "defect":
        from .bounds import dist_mult_bound

        lam, _, _, x, y = _snap(ctx, args)
        q = defect_perturbation(ctx.poly, ctx.weights, lam, x, y)
        bound = dist_mult_bound(ctx.poly, ctx.weights, lam, x, y)
        out = {
            "eigenvalue": lam,
            "eps_used": q.eps_used,
            "bound": bound.value,
            "certificates": q.certificates,
            "delta_norms": q.delta_norms,
        }
    else:
        q = random_perturbation(ctx.poly, args.eps, ctx.weights,
                                seed=args.seed, stream=args.stream)
        rep = is_admissible(ctx.poly, q, args.eps, ctx.weights)
        out = {
            "eps": args.eps,
            "seed": args.seed,
            "stream": args.stream,
            "delta_norms": rep.delta_norms,
            "admissible": rep.admissible,
            "tight": rep.tight,
        }
    if args.out:
        _write_problem(args.out, q, ctx.problem)
        out["problem_out"] = args.out
    return out


def _sample_points(poly: MatrixPolynomial, count: int, seed: int) -> np.ndarray:
    from .perturb import perturbation_rng

    rng = perturbation_rng(seed, stream=0)
    scale = 1.0 + float(np.max(np.abs(eigenvalues(poly))))
    return scale * (rng.standard_normal(count) + 1j * rng.standard_normal(count))


def cmd_verify(ctx: _Context, args) -> dict:
    if args.check == "linearization":
        from .linearization import linearization_residual

        pts = _sample_points(ctx.poly, args.points, args.seed)
        s = ctx.poly.leading_singular_values
        residual = linearization_residual(ctx.poly, pts)
        norms = np.concatenate([singular_values(ctx.poly.eval(pts[b]))[:, 0]
                                for b in _blocks(len(pts), ctx.poly.n)])
        thresh = RESIDUAL_TOL * (1.0 + norms) * float(s[0] / s[-1])
        worst = int(np.argmax(residual))    # the first point with the largest residual
        return {"points": args.points, "seed": args.seed,
                "max_residual": float(residual[worst]),
                "threshold_at_max": float(thresh[worst]) if residual[worst] > 0 else 0.0,
                "pass": bool((residual <= thresh).all())}
    triple = ctx.problem.triple
    if triple is None:
        raise HypothesisViolationError(
            "verify triple needs a Jordan triple in the problem file")
    pts = _sample_points(ctx.poly, args.samples, args.seed)
    residual = validate_jordan_triple(ctx.poly, triple, samples=pts)
    return {"samples": args.samples, "seed": args.seed,
            "max_relative_residual": residual,
            "triple_cond": triple.norm_product,
            "pass": residual <= RESIDUAL_TOL}


def _number(cast, ok, what: str):
    """argparse type: cast(text), which must satisfy ok; called `what` in
    the usage error.  A cast that raises ArgumentTypeError keeps its own
    message, so the bounded float types below report NaN as not finite."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = math.nan
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


_finite_float = _number(float, math.isfinite, "a finite number")
_positive_float = _number(_finite_float, lambda v: v > 0, "a positive number")
_nonnegative_float = _number(_finite_float, lambda v: v >= 0, "a non-negative number")
_positive_int = _number(int, lambda v: v >= 1, "a positive integer")
_nonnegative_int = _number(int, lambda v: v >= 0, "a non-negative integer")


def _float_list(text: str) -> list:
    """argparse type: comma-separated finite numbers."""
    return [_finite_float(v) for v in text.split(",")]


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that also reads -7.56e-17 as a negative number, not as
    an option; subparsers are built from the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _add_common(p: argparse.ArgumentParser, run, eig: bool = False) -> None:
    """The arguments every subcommand takes; run is the cmd_ function that serves it."""
    p.set_defaults(run=run)
    p.add_argument("file", help="problem file (JSON)")
    p.add_argument("--weights", type=_float_list, default=None,
                   help="override weights: comma-separated w_0,...,w_m")
    if eig:
        p.add_argument("--eig", nargs="+", type=_finite_float, required=True,
                       metavar=("RE", "IM"),
                       help="target eigenvalue (snapped to the nearest computed one)")
        p.add_argument("--tol", type=_nonnegative_float, default=None,
                       help="snapping tolerance (default 1e-3 * max(1, |target|))")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="polycond",
        description="Eigenvalue condition numbers, pseudospectra, and "
                    "perturbation bounds for matrix polynomials.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eig", help="eigenvalues and clusters")
    _add_common(p, cmd_eig)
    p.add_argument("--cluster-tol", type=_positive_float, default=None)

    p = sub.add_parser("cond", help="condition number of a simple eigenvalue")
    _add_common(p, cmd_cond, eig=True)

    p = sub.add_parser("multi-cond", help="condition number of a multiple eigenvalue")
    _add_common(p, cmd_multi_cond)

    p = sub.add_parser("dist", help="distance-to-multiplicity bound")
    _add_common(p, cmd_dist, eig=True)

    p = sub.add_parser("bounds", help="perturbed-eigenvalue location bounds")
    bsub = p.add_subparsers(dest="bound", required=True)
    for name in ("elsner", "bauer-fike", "compare"):
        bp = bsub.add_parser(name)
        _add_common(bp, cmd_bounds)
        bp.add_argument("--eps", type=_finite_float, required=True)
        bp.add_argument("--mu", nargs=2, type=_finite_float, required=True,
                        metavar=("RE", "IM"))

    p = sub.add_parser("pseudo", help="pseudospectrum grid and contours")
    _add_common(p, cmd_pseudo)
    p.add_argument("--eps", type=_positive_float, required=True)
    p.add_argument("--box", nargs=4, type=_finite_float, required=True,
                   metavar=("RE_MIN", "RE_MAX", "IM_MIN", "IM_MAX"))
    p.add_argument("--resolution", nargs="+", type=_positive_int, default=[201],
                   metavar=("NX", "NY"))
    p.add_argument("--threads", type=_positive_int, default=1)
    p.add_argument("--grid-out", default=None, help="write grid CSV here")
    p.add_argument("--contour-out", default=None, help="write contour CSV here")

    p = sub.add_parser("perturb", help="admissible perturbations")
    psub = p.add_subparsers(dest="kind", required=True)
    dp = psub.add_parser("defect")
    _add_common(dp, cmd_perturb, eig=True)
    dp.add_argument("--out", default=None, help="write the perturbed problem here")
    rp = psub.add_parser("random")
    _add_common(rp, cmd_perturb)
    rp.add_argument("--eps", type=_finite_float, required=True)
    rp.add_argument("--seed", type=_nonnegative_int, default=0)
    rp.add_argument("--stream", type=_nonnegative_int, default=0)
    rp.add_argument("--out", default=None, help="write the perturbed problem here")

    p = sub.add_parser("verify", help="internal identity checks")
    vsub = p.add_subparsers(dest="check", required=True)
    for name, count in (("linearization", "--points"), ("triple", "--samples")):
        vp = vsub.add_parser(name)
        _add_common(vp, cmd_verify)
        vp.add_argument(count, type=_positive_int, default=20)
        vp.add_argument("--seed", type=_nonnegative_int, default=0)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag in ("eig", "resolution"):
        if len(getattr(args, flag, None) or ()) > 2:
            parser.error(f"--{flag} takes one or two values")
    try:
        # a NumPy overflow, here or in a grid worker thread, becomes the error document
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                ctx = _Context(args)
                result = args.run(ctx, args)
            except RuntimeWarning as exc:
                raise PolycondError(f"{_NON_FINITE}: {exc}")
        doc = ctx.header(args.command, {k: v for k, v in vars(args).items()
                                        if k not in ("command", "run", "file", "weights")})
        doc["result"] = result
        try:
            text = json.dumps(doc, indent=2, default=_jsonable, allow_nan=False)
        except ValueError as exc:   # NaN or +-inf: JSON has no literal for either
            raise PolycondError(f"{_NON_FINITE}: {exc}")
        print(text)
        return 0
    except (PolycondError, OSError, ValueError) as exc:
        err = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(err, indent=2), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
