"""Drives the command-line interface in process and checks its JSON documents.

Every test calls main() directly with an argv list and parses what it
prints, so argument parsing, dispatch, and output serialization are all
covered without spawning subprocesses.
"""

import builtins
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from polycond.bounds import BoundReport
from polycond.cli import _jsonable, _sample_points, _write_grid_csv, _write_problem, main
from polycond.condition import cond_simple, min_gap_bound
from polycond.core import MatrixPolynomial, WeightSet, spectral_norm
from polycond.io import ProblemFile, _problem_doc, load_problem, serialize_problem
from polycond.linearization import linearization_residual
from polycond.perturb import is_admissible, random_perturbation
from polycond.pseudospectra import contours, grid_eval
from polycond.spectra import eig_vectors, eigenvalues, nearest_eigenvalue, spectrum

from helpers import FIXTURE_NAMES, FIXTURES, noisy_circle_grid

P3 = str(FIXTURES / "p3.json")
P4 = str(FIXTURES / "p4.json")
P5 = str(FIXTURES / "p5.json")
P6 = str(FIXTURES / "p6.json")


def run(capsys, *argv):
    rc = main([str(a) for a in argv])
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def strict_loads(text):
    """json.loads that refuses NaN, Infinity and -Infinity, which RFC 8259
    JSON has no literal for."""
    def refuse(name):
        raise AssertionError(f"the document holds {name}, which is not JSON")
    return json.loads(text, parse_constant=refuse)


def run_ok(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    return strict_loads(out)


def run_err(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == ""
    return strict_loads(err)["error"]


def count_svds(capsys, monkeypatch, *argv):
    """The np.linalg.svd calls of one successful CLI run."""
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    run_ok(capsys, *argv)
    return len(calls)


class TestJsonable:
    """The json.dumps hook every CLI document goes through."""

    @staticmethod
    def encode(obj):
        return json.loads(json.dumps(obj, default=_jsonable))

    def test_complex_becomes_pair(self):
        assert _jsonable(1.5 - 2j) == [1.5, -2.0]
        assert _jsonable(np.complex128(3 + 4j)) == [3.0, 4.0]
        assert self.encode({"z": np.complex128(-0.5j)}) == {"z": [-0.0, -0.5]}

    @pytest.mark.parametrize("value, want", [
        (np.float64(2.5), 2.5), (np.int64(7), 7), (np.bool_(True), True),
        (np.bool_(False), False)])
    def test_numpy_scalars_become_python_values(self, value, want):
        got = _jsonable(value)
        assert got == want and type(got) is type(want)

    def test_complex_array_becomes_nested_pairs(self):
        arr = np.array([[1 + 2j, -3.0], [0.5j, 4.0]])
        assert self.encode(arr) == [[[1.0, 2.0], [-3.0, 0.0]], [[0.0, 0.5], [4.0, 0.0]]]

    def test_bound_report_keeps_field_order(self):
        rep = BoundReport(value=1.25, ingredients={"coupling": 1 - 2j, "eig_cond": np.float64(3.0)},
                          applicable={"simple_eigenvalue": np.bool_(True)})
        out = json.loads(json.dumps(rep, default=_jsonable))
        assert list(out) == ["value", "ingredients", "applicable"]
        assert out == {"value": 1.25, "ingredients": {"coupling": [1.0, -2.0], "eig_cond": 3.0},
                       "applicable": {"simple_eigenvalue": True}}

    def test_other_objects_rejected(self):
        with pytest.raises(TypeError):
            _jsonable(object())
        with pytest.raises(TypeError):
            json.dumps({"x": {1, 2}}, default=_jsonable)


class TestDocumentHeader:
    def test_hash_and_parameter_echo(self, capsys):
        doc = run_ok(capsys, "eig", P5)
        assert doc["tool"] == "polycond"
        assert doc["command"] == "eig"
        assert doc["input"]["path"] == P5
        with open(P5, "rb") as fh:
            assert doc["input"]["sha256"] == hashlib.sha256(fh.read()).hexdigest()
        params = doc["parameters"]
        assert params["weights"] == [1.0, 1.0, 1.0]
        assert params["weights_overridden"] is False
        assert params["weights_derived"] is False

    def test_problem_file_read_once(self, capsys, monkeypatch):
        # the hash and the parse come from the same bytes
        opened = []
        real_open = builtins.open
        monkeypatch.setattr(builtins, "open",
                            lambda f, *a, **k: opened.append(f) or real_open(f, *a, **k))
        doc = run_ok(capsys, "eig", P5)
        assert opened.count(P5) == 1
        with real_open(P5, "rb") as fh:
            assert doc["input"]["sha256"] == hashlib.sha256(fh.read()).hexdigest()

    def test_non_utf8_file_is_analysis_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"comment": "\xe9", "n": 1, "m": 1, "coefficients": [[[-2.0]], [[1.0]]]}')
        err = run_err(capsys, "eig", path)
        assert err["type"] == "UnicodeDecodeError"

    def test_derived_weights_flagged(self, capsys):
        # p4 carries no weights block, so they come from coefficient norms
        doc = run_ok(capsys, "eig", P4)
        params = doc["parameters"]
        assert params["weights_derived"] is True
        assert params["weights"] == pytest.approx([25.0379, 2.2919, 1.0], rel=1e-3)

    def test_weight_override_scales_value(self, capsys):
        base = run_ok(capsys, "cond", P5, "--eig", "4")
        over = run_ok(capsys, "cond", P5, "--eig", "4", "--weights", "2,2,2")
        assert over["parameters"]["weights_overridden"] is True
        assert over["parameters"]["weights"] == [2.0, 2.0, 2.0]
        assert over["result"]["value"] == pytest.approx(
            2.0 * base["result"]["value"], rel=1e-12)


class TestEig:
    def test_simple_spectrum(self, capsys):
        res = run_ok(capsys, "eig", P5)["result"]
        vals = [complex(re, im) for re, im in res["eigenvalues"]]
        assert len(vals) == 4
        for want in (1.0, 2.0, 3.0, 4.0):
            assert min(abs(v - want) for v in vals) < 1e-6
        assert all(c["size"] == 1 for c in res["clusters"])
        assert res["cluster_tol"] > 0


class TestCond:
    def test_matches_library_exactly(self, capsys):
        res = run_ok(capsys, "cond", P5, "--eig", "4")["result"]
        prob = load_problem(P5)
        sp = spectrum(prob.poly)
        idx = nearest_eigenvalue(sp.eigenvalues, 4.0)
        lam = complex(sp.eigenvalues[idx])
        x, y = eig_vectors(prob.poly, lam, values=sp.eigenvalues)
        assert res["index"] == idx
        assert res["value"] == cond_simple(prob.poly, prob.weights, lam, x, y)
        assert res["value"] == pytest.approx(21.2897, abs=1e-2)
        assert set(res["routes"]) == {"eigenvector", "companion", "eigenvector_free"}
        assert res["routes"]["eigenvector"] == res["value"]
        assert res["min_gap_bound"] == min_gap_bound(prob.poly, prob.weights, idx, sp)

    def test_three_svds_per_call(self, capsys, monkeypatch):
        # the leading coefficient's check, the memoised full SVD of P(lam),
        # which gives eig_vectors its pair and the adjugate route its
        # singular values, and the memoised singular values of P'(lam)
        assert count_svds(capsys, monkeypatch, "cond", P5, "--eig", "4") == 3

    def test_one_by_one_linear_problem(self, capsys, tmp_path):
        # P(lam) = 4 lam - 2: lam = 1/2, w(1/2) = 1.5 and every route reads
        # w(|lam|) / |a_1| = 0.375; there is no other eigenvalue to bound a gap to
        path = tmp_path / "p1.json"
        path.write_text(json.dumps({"n": 1, "m": 1, "coefficients": [[[-2.0]], [[4.0]]],
                                    "weights": [1.0, 1.0]}))
        res = run_ok(capsys, "cond", path, "--eig", "0.5")["result"]
        assert res["eigenvalue"] == [0.5, 0.0]
        assert res["value"] == 0.375
        assert res["routes"] == pytest.approx(
            {"eigenvector": 0.375, "companion": 0.375, "eigenvector_free": 0.375}, rel=1e-15)
        assert "min_gap_bound" not in res


class TestMultiCond:
    def test_stored_pair_value(self, capsys):
        res = run_ok(capsys, "multi-cond", P3)["result"]
        assert res["eigenvalue"] == [1.0, 0.0]
        assert res["kappa"] == 2
        assert res["value"] == pytest.approx(4.2426, abs=1e-3)

    def test_missing_block_rejected(self, capsys):
        err = run_err(capsys, "multi-cond", P5)
        assert err["type"] == "HypothesisViolationError"
        assert "multiple" in err["message"]


class TestDist:
    def test_routes_agree(self, capsys):
        res = run_ok(capsys, "dist", P4, "--eig", "-1", "0")["result"]
        direct = res["bound"]
        adj = res["bound_adjugate_route"]
        assert res["value"] == direct["value"]
        assert adj["value"] == pytest.approx(direct["value"], rel=1e-6)
        assert direct["applicable"] == {
            "simple_eigenvalue": True,
            "derivative_nonsingular": True,
            "nonparallel": True,
        }
        assert "orthogonal_component" in direct["ingredients"]

    def test_four_svds_per_call(self, capsys, monkeypatch):
        # as for cond, plus one stacked SVD for p4's coefficient-norm weights
        assert count_svds(capsys, monkeypatch, "dist", P4, "--eig", "-1", "0") == 4

    def test_key_order(self, capsys):
        res = run_ok(capsys, "dist", P4, "--eig", "-1", "0")["result"]
        assert list(res) == ["eigenvalue", "value", "bound", "bound_adjugate_route"]
        for key in ("bound", "bound_adjugate_route"):
            rep = res[key]
            assert list(rep) == ["value", "ingredients", "applicable"]
            assert list(rep["ingredients"]) == [
                "derivative_cond", "poly_norm_at_lam", "eig_cond", "coupling",
                "left_derivative_norm", "orthogonal_component", "weight_at_lam"]
            assert list(rep["applicable"]) == [
                "simple_eigenvalue", "derivative_nonsingular", "nonparallel"]
            assert len(rep["ingredients"]["coupling"]) == 2


class TestBounds:
    ARGS = ("--eps", "0.3", "--mu", "0.5691", "0.0043")

    def test_elsner(self, capsys):
        res = run_ok(capsys, "bounds", "elsner", P6, *self.ARGS)["result"]
        assert res["value"] == pytest.approx(0.8247, abs=1e-3)
        assert res["bound"]["ingredients"]["eps"] == 0.3

    def test_bauer_fike(self, capsys):
        res = run_ok(capsys, "bounds", "bauer-fike", P6, *self.ARGS)["result"]
        assert res["value"] == pytest.approx(3.8240, abs=1e-3)
        assert res["bound"]["ingredients"]["triple_cond"] == pytest.approx(
            6.4183, abs=1e-3)

    def test_compare(self, capsys):
        res = run_ok(capsys, "bounds", "compare", P6, *self.ARGS)["result"]
        assert res["elsner_tighter"] is True
        assert res["elsner"]["value"] == pytest.approx(0.8247, abs=1e-3)
        assert res["bauer_fike"]["value"] == pytest.approx(3.8240, abs=1e-3)
        assert res["omega"] > 0

    @pytest.mark.parametrize("mode", ["elsner", "bauer-fike"])
    def test_single_bound_key_order(self, capsys, mode):
        res = run_ok(capsys, "bounds", mode, P6, *self.ARGS)["result"]
        assert list(res) == ["mu", "eps", "value", "bound"]
        assert list(res["bound"]) == ["value", "ingredients", "applicable"]

    def test_compare_key_order(self, capsys):
        res = run_ok(capsys, "bounds", "compare", P6, *self.ARGS)["result"]
        assert list(res) == ["mu", "eps", "omega", "elsner_tighter", "elsner", "bauer_fike"]
        for key in ("elsner", "bauer_fike"):
            assert list(res[key]) == ["value", "ingredients", "applicable"]

    def test_bauer_fike_needs_triple(self, capsys):
        err = run_err(capsys, "bounds", "bauer-fike", P5, "--eps", "0.1",
                      "--mu", "1", "0")
        assert err["type"] == "HypothesisViolationError"
        assert "triple" in err["message"]


def per_node_csvs(grid, cs):
    """The grid and contour CSVs as written one f-string per row."""
    re = [float(v) for v in grid.re_axis]
    im = [float(v) for v in grid.im_axis]
    g = "re,im,value\n" + "".join(
        f"{re[ix]!r},{im[iy]!r},{float(grid.values[iy, ix])!r}\n"
        for iy in range(grid.ny) for ix in range(grid.nx))
    counters = {}
    c = "component,seg,re1,im1,re2,im2\n"
    for (z1, z2), lab in zip(cs.segments, cs.labels):
        seg = counters.get(lab, 0)
        counters[lab] = seg + 1
        c += (f"{lab},{seg},{float(z1.real)!r},{float(z1.imag)!r},"
              f"{float(z2.real)!r},{float(z2.imag)!r}\n")
    return g, c


class TestPseudo:
    def test_grid_and_contour_csv(self, capsys, tmp_path):
        gpath = tmp_path / "grid.csv"
        cpath = tmp_path / "contour.csv"
        doc = run_ok(capsys, "pseudo", P3, "--eps", "1e-4",
                     "--box", "0.85", "1.15", "-0.15", "0.15",
                     "--resolution", "81",
                     "--grid-out", gpath, "--contour-out", cpath)
        res = doc["result"]
        assert res["resolution"] == [81, 81]
        assert res["bounded"] is True
        assert res["components"] == 1
        assert res["clipped"] == [False]
        assert res["sublevel_components"] == 1
        assert "diagnostic" not in res

        glines = gpath.read_text().splitlines()
        assert glines[0] == "re,im,value"
        assert len(glines) == 1 + 81 * 81
        first = [float(v) for v in glines[1].split(",")]
        second = [float(v) for v in glines[2].split(",")]
        assert first[:2] == [0.85, -0.15]
        assert second[1] == first[1] and second[0] > first[0]

        clines = cpath.read_text().splitlines()
        assert clines[0] == "component,seg,re1,im1,re2,im2"
        assert len(clines) == 1 + res["segments"]
        labels = {int(ln.split(",")[0]) for ln in clines[1:]}
        assert labels == {0}

    @pytest.mark.parametrize("path, box, eps", [
        (P3, (0.85, 1.15, -0.15, 0.15), 1e-4),
        (P3, (0.85, 1.15, -0.15, 0.15), 100.0),
        (P5, (0.5, 4.5, -0.5, 0.5), 1e-4),
        (P5, (0.5, 4.5, -0.5, 0.5), 1e-2),
    ])
    def test_csv_bytes_match_per_node_writer(self, capsys, tmp_path, path, box, eps):
        gpath, cpath = tmp_path / "grid.csv", tmp_path / "contour.csv"
        run_ok(capsys, "pseudo", path, "--eps", eps, "--box", *box, "--resolution", "61", "37",
               "--grid-out", gpath, "--contour-out", cpath)
        pf = load_problem(path)
        grid = grid_eval(pf.poly, pf.weights, box, (61, 37))
        want_grid, want_contour = per_node_csvs(grid, contours(grid, eps))
        assert gpath.read_bytes() == want_grid.encode()
        assert cpath.read_bytes() == want_contour.encode()

    def test_grid_csv_memory_is_one_row(self, tmp_path):
        # 160,802 lines of text: only a writer that holds one row at a time
        # stays under 1 MiB
        grid = noisy_circle_grid(401)
        path = tmp_path / "grid.csv"
        tracemalloc.start()
        try:
            _write_grid_csv(str(path), grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        with open(path, encoding="utf-8") as fh:
            assert sum(1 for _ in fh) == 1 + 401 * 401

    def test_component_cut_by_box_reported_clipped(self, capsys):
        # the box's left edge 3.001 cuts the eps = 1e-4 component around 3
        res = run_ok(capsys, "pseudo", P5, "--eps", "1e-4", "--box", "3.001", "3.2", "-0.1", "0.1",
                     "--resolution", "201")["result"]
        assert res["components"] == 1
        assert res["clipped"] == [True]

    def test_level_above_grid_reports_diagnostic(self, capsys):
        res = run_ok(capsys, "pseudo", P3, "--eps", "100",
                     "--box", "0.85", "1.15", "-0.15", "0.15",
                     "--resolution", "11")["result"]
        assert res["components"] == 0
        assert "above the grid maximum" in res["diagnostic"]


@pytest.mark.parametrize("argv", [
    ("pseudo", P3, "--eps", "1e-4", "--box", "0.85", "1.15", "-0.15", "0.15", "--resolution", "21"),
    ("verify", "linearization", P3),
])
def test_one_svd_of_leading_coefficient(capsys, monkeypatch, argv):
    lead = load_problem(P3).poly.coeffs[-1]
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *r, **k: calls.append(
        np.shape(a) == lead.shape and np.array_equal(a, lead)) or svd(a, *r, **k))
    run_ok(capsys, *argv)
    assert sum(calls) == 1


class TestPerturb:
    def test_random_is_deterministic(self, capsys):
        a = run_ok(capsys, "perturb", "random", P6, "--eps", "0.01",
                   "--seed", "7")["result"]
        b = run_ok(capsys, "perturb", "random", P6, "--eps", "0.01",
                   "--seed", "7")["result"]
        assert a["delta_norms"] == b["delta_norms"]
        assert a["admissible"] is True
        assert a["tight"] == [True] * 4
        # p6 weights are (0.1, 1, 1, 0): boundary norms, leading term pinned
        assert a["delta_norms"] == pytest.approx(
            [0.001, 0.01, 0.01, 0.0], rel=1e-9, abs=1e-15)

    def test_random_out_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "q.json"
        res = run_ok(capsys, "perturb", "random", P6, "--eps", "0.01",
                     "--seed", "7", "--out", out)["result"]
        assert res["problem_out"] == str(out)
        base = load_problem(P6)
        pert = load_problem(str(out))
        assert list(pert.weights.weights) == [0.1, 1.0, 1.0, 0.0]
        for j in range(4):
            delta = np.asarray(pert.poly.coeffs[j]) - np.asarray(base.poly.coeffs[j])
            assert spectral_norm(delta) == pytest.approx(
                res["delta_norms"][j], rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("path", [P3, P5, P6])
    def test_random_prints_admissibility_norms(self, capsys, path):
        res = run_ok(capsys, "perturb", "random", path, "--eps", "0.01",
                     "--seed", "3", "--stream", "2")["result"]
        pf = load_problem(path)
        q = random_perturbation(pf.poly, 0.01, pf.weights, seed=3, stream=2)
        assert res["delta_norms"] == list(is_admissible(pf.poly, q, 0.01, pf.weights).delta_norms)

    def test_random_refuses_overflowing_eps(self, capsys):
        # --eps inf is a usage error; a finite eps whose eps * w_1 overflows
        # reaches the library, which refuses it before any draw instead of
        # blaming the leading coefficient after MAX_ATTEMPTS of them
        err = run_err(capsys, "perturb", "random", P6, "--eps", "1e308",
                      "--weights", "0.1,10,1,0")
        assert err["type"] == "HypothesisViolationError"
        assert err["message"] == ("eps must be finite and eps * w_j must not overflow, "
                                  "got eps = 1e+308, w_1 = 10.0")

    def test_defect_pairs_eigenvalue(self, capsys, tmp_path):
        out = tmp_path / "qd.json"
        res = run_ok(capsys, "perturb", "defect", P4, "--eig", "-1", "0",
                     "--out", out)["result"]
        assert res["eps_used"] <= res["bound"] * (1 + 1e-8)
        assert "eigenvalue-pairing" in res["certificates"]
        q = load_problem(str(out))
        gaps = np.sort(np.abs(eigenvalues(q.poly) + 1.0))
        assert gaps[1] <= 1e-5

    @pytest.mark.xfail(strict=True, reason="defect 2: the perturbed pair splits by 1.09e-5, and at "
                       "every node of the fixed 1e-5 circle P + Delta is singular to working precision, "
                       "so the count is refused; a disc radius from kappa eta is ROADMAP item 2")
    def test_defect_certified_on_p3(self, capsys):
        res = run_ok(capsys, "perturb", "defect", P3, "--eig", "-1", "0")["result"]
        assert res["certificates"] == ["eigenvalue-pairing"]

    def test_defect_takes_six_svds(self, capsys, monkeypatch):
        # dist's four, the perturbed leading coefficient's check and one
        # stacked SVD for the printed delta norms; the certificate takes none
        assert count_svds(capsys, monkeypatch, "perturb", "defect", P4, "--eig", "-1", "0") == 6

    @pytest.mark.parametrize("argv", [
        ("perturb", "defect", P4, "--eig", "-1", "0"),
        ("perturb", "random", P4, "--eps", "0.01"),
    ])
    def test_out_builds_each_polynomial_once(self, capsys, monkeypatch, tmp_path, argv):
        # every polynomial adopts its checked coefficient stack once, whether
        # its constructor checked it or it is an accepted random draw
        builds = []
        adopt = MatrixPolynomial._adopt
        monkeypatch.setattr(MatrixPolynomial, "_adopt",
                            lambda self, *a, **k: builds.append(1) or adopt(self, *a, **k))
        run_ok(capsys, *argv, "--out", tmp_path / "q.json")
        assert len(builds) == 2     # the problem file's and the perturbed one

    @pytest.mark.parametrize("argv", [
        ("perturb", "defect", P4, "--eig", "-1", "0"),
        ("perturb", "random", P6, "--eps", "0.01"),
    ])
    def test_out_is_serialize_problem(self, capsys, tmp_path, argv):
        out = tmp_path / "q.json"
        run_ok(capsys, *argv, "--out", out)
        assert out.read_text() == serialize_problem(load_problem(str(out)))

    def test_out_streams_the_document(self, tmp_path):
        # the file is serialize_problem's text, encoded while it is written:
        # the peak stays near the document's own, where the whole text and
        # its pieces took 3.7 times as much
        rng = np.random.default_rng(40)
        coeffs = rng.standard_normal((3, 40, 40)) + 1j * rng.standard_normal((3, 40, 40))
        coeffs[-1] += 10 * np.eye(40)
        pf = ProblemFile(poly=MatrixPolynomial(coeffs), weights=WeightSet([1.0] * 3),
                         weights_derived=False)
        out = tmp_path / "q.json"
        tracemalloc.start()
        try:
            _problem_doc(pf)
            _, doc_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            _write_problem(str(out), pf.poly, pf)
            _, write_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.read_text() == serialize_problem(pf)
        assert write_peak < 1.5 * doc_peak


def p3_with(tmp_path, edit):
    """A copy of p3 after edit(doc), written with Python's NaN/Infinity literals."""
    doc = json.loads(Path(P3).read_text())
    edit(doc)
    path = tmp_path / "p3_edited.json"
    path.write_text(json.dumps(doc))
    return path


class TestNonFinite:
    """Problem files refuse NaN and Infinity, and no document prints them."""

    @pytest.mark.parametrize("edit, field, argv", [
        (lambda d: d["multiple"].update(eigenvalue=float("inf")),
         "multiple.eigenvalue", ("multi-cond",)),
        (lambda d: d["multiple"]["right_vectors"][0].__setitem__(0, float("nan")),
         "multiple.right_vectors[0][0]", ("multi-cond",)),
        (lambda d: d["triple"]["blocks"][0].update(eigenvalue=float("nan")),
         "triple.blocks[0].eigenvalue", ("eig",)),
    ], ids=["inf-eigenvalue", "nan-vector", "nan-block"])
    def test_problem_file_refused_with_field_path(self, capsys, tmp_path, edit, field, argv):
        # through the CLI; tests/test_io.py covers every field of the format
        err = run_err(capsys, *argv, p3_with(tmp_path, edit))
        assert err["type"] == "ProblemFormatError"
        assert err["message"].startswith(f"{field}: expected a finite number")

    @pytest.mark.parametrize("bound, mu", [
        ("elsner", ("1e300", "0")),      # inf * 0 in P(mu): the value is NaN
        ("bauer-fike", ("1", "0")),      # theta = p k eps w overflows to inf
    ])
    def test_non_finite_result_is_analysis_error(self, capsys, bound, mu):
        with np.errstate(over="ignore", invalid="ignore"):   # P(1e300) overflows on purpose
            err = run_err(capsys, "bounds", bound, P6, "--eps", "1e308", "--mu", *mu)
        assert err["type"] == "PolycondError"
        assert err["message"].startswith("the result holds NaN or Infinity, which JSON cannot carry")

    @pytest.mark.parametrize("argv", [
        ("bounds", "elsner", P6, "--eps", "1e308", "--mu", "1e300", "0"),
        # the overflow happens in the grid kernel, run by the calling thread
        ("pseudo", P6, "--eps", "1e-3", "--box", "1e200", "2e200", "0", "1", "--resolution", "5"),
        # two blocks of 16,384 nodes at n = 2, shared with a pool thread
        ("pseudo", P6, "--eps", "1e-3", "--box", "1e200", "2e200", "0", "1", "--resolution", "129",
         "--threads", "2"),
    ], ids=["bounds-elsner", "pseudo-grid", "pseudo-grid-2-threads"])
    def test_overflow_writes_one_error_document(self, argv):
        # a separate process, where NumPy warnings print instead of raising
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run([sys.executable, "-m", "polycond.cli", *argv], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 1 and proc.stdout == ""
        err = strict_loads(proc.stderr)["error"]     # the whole of stderr is one document
        assert err["type"] == "PolycondError"
        assert err["message"].startswith("the result holds NaN or Infinity, which JSON cannot carry")

    def test_strict_loads_refuses_constants(self):
        for text in ("NaN", "[Infinity]", '{"v": -Infinity}'):
            with pytest.raises(AssertionError, match="not JSON"):
                strict_loads(text)


class TestClusteredEigenvalue:
    """cond, dist and perturb defect refuse an eigenvalue in a cluster before
    any eigenvector is computed, naming the cluster's size and centre."""

    @pytest.mark.parametrize("argv", [("cond",), ("dist",), ("perturb", "defect")])
    def test_p3_quintuple_eigenvalue_refused(self, capsys, monkeypatch, argv):
        import polycond.cli

        calls = []
        monkeypatch.setattr(polycond.cli, "eig_vectors", lambda *a, **k: calls.append(1))
        err = run_err(capsys, *argv, P3, "--eig", "1", "0")
        assert err["type"] == "NotAnEigenvalueError"
        assert "sits in a cluster of size 5 around (0.99999" in err["message"]
        assert "a simple eigenvalue is required" in err["message"]
        assert calls == []

    def test_simple_neighbour_still_accepted(self, capsys):
        res = run_ok(capsys, "cond", P3, "--eig", "-1", "0")["result"]
        assert res["eigenvalue"] == pytest.approx([-1.0, 0.0], abs=1e-12)


class TestVerify:
    def test_linearization_passes(self, capsys):
        res = run_ok(capsys, "verify", "linearization", P5)["result"]
        assert res["pass"] is True
        assert res["max_residual"] <= res["threshold_at_max"]

    @pytest.mark.parametrize("path", [P3, P6])
    def test_triple_passes(self, capsys, path):
        res = run_ok(capsys, "verify", "triple", path)["result"]
        assert res["pass"] is True
        assert res["max_relative_residual"] <= 1e-8
        assert res["triple_cond"] > 1

    def test_triple_missing(self, capsys):
        err = run_err(capsys, "verify", "triple", P5)
        assert err["type"] == "HypothesisViolationError"

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_linearization_matches_per_point_loop(self, capsys, name):
        path = str(FIXTURES / f"{name}.json")
        res = run_ok(capsys, "verify", "linearization", path, "--points", "20", "--seed", "3")["result"]
        poly = load_problem(path).poly
        s = poly.leading_singular_values
        worst = worst_thresh = 0.0
        ok = True
        for z in _sample_points(poly, 20, 3):
            r = linearization_residual(poly, complex(z))
            thresh = 1e-8 * (1.0 + spectral_norm(poly.eval(complex(z)))) * float(s[0] / s[-1])
            ok = ok and r <= thresh
            if r > worst:
                worst, worst_thresh = r, thresh
        assert res == {"points": 20, "seed": 3, "max_residual": worst,
                       "threshold_at_max": worst_thresh, "pass": ok}

    def test_linearization_zero_residuals(self, capsys, tmp_path):
        # P(z) = z - 0.5: every residual is exactly 0, and so is the threshold
        path = tmp_path / "monic.json"
        path.write_text(json.dumps({"n": 1, "m": 1, "coefficients": [[[-0.5]], [[1.0]]]}))
        res = run_ok(capsys, "verify", "linearization", path)["result"]
        assert res["max_residual"] == 0.0 and res["threshold_at_max"] == 0.0 and res["pass"]

    def test_twenty_points_take_four_svds(self, capsys, monkeypatch):
        # two of the four load the problem: A_m's and the Jordan triple's
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        run_ok(capsys, "verify", "linearization", P3, "--points", "20")
        assert len(calls) == 4

    def test_twenty_points_evaluate_p_once(self, capsys, monkeypatch):
        # the residual takes P(z) from the E factor; only the threshold's
        # norms evaluate P, in one stacked call
        calls = []
        ev = MatrixPolynomial.eval
        monkeypatch.setattr(MatrixPolynomial, "eval",
                            lambda self, z: calls.append(np.shape(z)) or ev(self, z))
        run_ok(capsys, "verify", "linearization", P3, "--points", "20")
        assert calls == [(20,)]


class TestUsageErrors:
    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as ei:
            main([])
        assert ei.value.code == 2

    def test_unknown_file(self, capsys):
        err = run_err(capsys, "eig", "no-such-problem.json")
        assert err["type"] == "FileNotFoundError"

    def test_wrong_weight_count(self, capsys):
        err = run_err(capsys, "eig", P5, "--weights", "1,2")
        assert err["type"] == "InvalidWeightsError"

    def test_unparseable_weights(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eig", P5, "--weights", "1,a,3"])
        assert exc.value.code == 2
        assert "argument --weights: expected a finite number, got 'a'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag, what", [
        (("eig", P5, "--weights", "abc"), "--weights", "a finite number"),
        (("eig", P5, "--weights", "1,,2"), "--weights", "a finite number"),
        (("eig", P5, "--weights", "1,nan,2"), "--weights", "a finite number"),
        (("eig", P5, "--cluster-tol", "0"), "--cluster-tol", "a positive number"),
        (("eig", P5, "--cluster-tol", "-1e-3"), "--cluster-tol", "a positive number"),
        (("cond", P5, "--eig", "4", "--tol", "-1"), "--tol", "a non-negative number"),
        (("dist", P5, "--eig", "4", "--tol", "-1e-9"), "--tol", "a non-negative number"),
        (("pseudo", P3, "--eps", "0", "--box", "0.85", "1.15", "-0.15", "0.15"),
         "--eps", "a positive number"),
        (("pseudo", P3, "--eps", "-1e-4", "--box", "0.85", "1.15", "-0.15", "0.15"),
         "--eps", "a positive number"),
    ])
    def test_out_of_range_value_exit_2(self, capsys, argv, flag, what):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert f"argument {flag}: expected {what}" in capsys.readouterr().err

    def test_zero_pseudo_eps_evaluates_no_grid(self, capsys, monkeypatch):
        import polycond.pseudospectra

        calls = []
        # cmd_pseudo imports grid_eval from its module when it runs
        monkeypatch.setattr(polycond.pseudospectra, "grid_eval", lambda *a, **k: calls.append(1))
        with pytest.raises(SystemExit) as exc:
            main(["pseudo", P3, "--eps", "0", "--box", "0.85", "1.15", "-0.15", "0.15",
                  "--resolution", "401"])
        assert exc.value.code == 2
        assert calls == []

    @pytest.mark.parametrize("argv", [
        ("bounds", "elsner", P6, "--eps", "0", "--mu", "0.5", "0"),
        ("perturb", "random", P3, "--eps", "0"),
    ])
    def test_zero_eps_accepted_outside_pseudo(self, capsys, argv):
        assert run_ok(capsys, *argv)["result"]["eps"] == 0.0

    def test_zero_tol_snaps_to_printed_eigenvalue(self, capsys):
        re_, im = run_ok(capsys, "eig", P5)["result"]["eigenvalues"][-1]
        res = run_ok(capsys, "cond", P5, "--eig", repr(re_), repr(im), "--tol", "0")["result"]
        assert res["eigenvalue"] == [re_, im]

    @pytest.mark.parametrize("argv", [
        ("cond", P5, "--eig", "4", "0", "99"),
        ("dist", P5, "--eig", "4", "0", "99"),
        ("perturb", "defect", P5, "--eig", "4", "0", "99"),
        ("pseudo", P3, "--eps", "1e-4", "--box", "0.85", "1.15", "-0.15", "0.15",
         "--resolution", "10", "20", "30"),
    ])
    def test_three_values_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "takes one or two values" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (("verify", "linearization", P3, "--points", "0"), "--points"),
        (("verify", "linearization", P3, "--points", "-3"), "--points"),
        (("verify", "triple", P3, "--samples", "0"), "--samples"),
        (("pseudo", P3, "--eps", "1e-4", "--box", "0.85", "1.15", "-0.15", "0.15",
          "--threads", "0"), "--threads"),
        (("pseudo", P3, "--eps", "1e-4", "--box", "0.85", "1.15", "-0.15", "0.15",
          "--resolution", "0"), "--resolution"),
        (("pseudo", P3, "--eps", "1e-4", "--box", "0.85", "1.15", "-0.15", "0.15",
          "--resolution", "10", "-2"), "--resolution"),
    ])
    def test_nonpositive_count_exit_2(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert f"argument {flag}: expected a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (("perturb", "random", P3, "--eps", "1e-3", "--seed", "-1"), "--seed"),
        (("perturb", "random", P3, "--eps", "1e-3", "--stream", "-2"), "--stream"),
        (("verify", "linearization", P3, "--seed", "-1"), "--seed"),
        (("verify", "triple", P3, "--seed", "-3"), "--seed"),
    ])
    def test_negative_seed_exit_2(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert f"argument {flag}: expected a non-negative integer" in capsys.readouterr().err

    def test_zero_seed_and_stream_accepted(self, capsys):
        res = run_ok(capsys, "perturb", "random", P3, "--eps", "1e-3",
                     "--seed", "0", "--stream", "0")["result"]
        assert (res["seed"], res["stream"]) == (0, 0)

    @pytest.mark.parametrize("bad", ["nan", "inf", "NaN", "Infinity"])
    @pytest.mark.parametrize("argv, flag", [
        (("bounds", "elsner", P6, "--eps", "0.3", "--mu", "{}", "0"), "--mu"),
        (("bounds", "elsner", P6, "--eps", "{}", "--mu", "0.5", "0"), "--eps"),
        (("pseudo", P3, "--eps", "{}", "--box", "0.85", "1.15", "-0.15", "0.15"), "--eps"),
        (("pseudo", P3, "--eps", "1e-4", "--box", "0.85", "{}", "-0.15", "0.15"), "--box"),
        (("perturb", "random", P5, "--eps", "{}"), "--eps"),
        (("cond", P5, "--eig", "4", "{}"), "--eig"),
        (("dist", P5, "--eig", "4", "--tol", "{}"), "--tol"),
        (("eig", P5, "--cluster-tol", "{}"), "--cluster-tol"),
    ])
    def test_nonfinite_float_exit_2(self, capsys, argv, flag, bad):
        with pytest.raises(SystemExit) as exc:
            main([a.format(bad) for a in argv])
        assert exc.value.code == 2
        assert f"argument {flag}: expected a finite number" in capsys.readouterr().err

    def test_one_and_two_values_accepted(self, capsys):
        for eig in (["4"], ["4", "0"]):
            res = run_ok(capsys, "cond", P5, "--eig", *eig)["result"]
            assert res["eigenvalue"] == pytest.approx([4.0, 0.0], abs=1e-12)
        for res, want in ((["10"], [10, 10]), (["10", "20"], [10, 20])):
            doc = run_ok(capsys, "pseudo", P3, "--eps", "1e-4",
                         "--box", "0.85", "1.15", "-0.15", "0.15", "--resolution", *res)
            assert doc["result"]["resolution"] == want


class TestNegativeNumbers:
    """Negative numbers in scientific notation are values, not options."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_printed_eigenvalues_accepted(self, capsys, name):
        path = str(FIXTURES / f"{name}.json")
        res = run_ok(capsys, "eig", path)["result"]
        for c in res["clusters"]:
            if c["size"] != 1:
                continue
            re_, im = res["eigenvalues"][c["indices"][0]]
            for command in ("cond", "dist"):
                rc, out, err = run(capsys, command, path, "--eig", repr(re_), repr(im))
                if rc == 0:
                    assert json.loads(out)["result"]["eigenvalue"] == [re_, im]
                else:   # an analysis error for this eigenvalue, not a usage error
                    assert json.loads(err)["error"]["type"] == "HypothesisViolationError"

    def test_p4_eigenvalue_with_tiny_negative_real_part(self, capsys):
        res = run_ok(capsys, "cond", P4, "--eig", "-7.56261261793348e-17", "5.000000000000003")
        assert res["result"]["eigenvalue"] == pytest.approx([0.0, 5.0], abs=1e-12)

    def test_mu_and_box(self, capsys):
        res = run_ok(capsys, "bounds", "elsner", P6, "--eps", "0.3", "--mu", "0.5", "-1e-3")
        assert res["result"]["mu"] == [0.5, -0.001]
        res = run_ok(capsys, "pseudo", P5, "--eps", "1e-4", "--resolution", "11",
                     "--box", "-5E-1", "4.5", "-.5e0", "5e-1")
        assert res["parameters"]["box"] == [-0.5, 4.5, -0.5, 0.5]

    def test_unknown_option_still_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cond", P4, "--eig", "1", "-x"])
        assert exc.value.code == 2


def test_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, polycond.cli; print(polycond.cli.__file__); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert Path(out[0]).resolve().parent == src / "polycond"
    assert out[1] == "[]"


def loaded_after(code):
    """The polycond submodules and concurrent.futures that a fresh interpreter
    has loaded after running code (with src on its path)."""
    src = Path(__file__).resolve().parents[1] / "src"
    code += ("\nimport json, sys; print(json.dumps(sorted(m for m in sys.modules "
             "if m.startswith('polycond.') or m == 'concurrent.futures')))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    return set(json.loads(out[-1]))


def test_import_polycond_loads_no_submodule():
    assert loaded_after("import polycond") == set()


# what a command loads beyond the core, errors, io, spectra and linearization
# modules that every command needs
LAYERS = {"polycond.condition", "polycond.bounds", "polycond.perturb",
          "polycond.pseudospectra", "concurrent.futures"}


@pytest.mark.parametrize("argv, layers", [
    (["eig", P5], set()),
    (["cond", P5, "--eig", "4"], {"polycond.condition"}),
    (["pseudo", P3, "--eps", "1e-4", "--box", "0.85", "1.15", "-0.15", "0.15",
      "--resolution", "11"], {"polycond.pseudospectra", "concurrent.futures"}),
    # the seeded points and draws need no bounds or condition layer
    (["verify", "linearization", P3], {"polycond.perturb"}),
    (["perturb", "random", P6, "--eps", "0.01"], {"polycond.perturb"}),
])
def test_subcommand_loads_only_its_layers(argv, layers):
    code = ("import contextlib, io\nfrom polycond.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0")
    assert loaded_after(code) & LAYERS == layers


def test_module_run_of_eig_loads_no_other_layer():
    # python -m polycond.cli, as the benchmark runs it; -X importtime lists
    # every module imported, one per stderr line, name last
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "polycond.cli", "eig", P5],
                          env=env, capture_output=True, text=True, check=True)
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "polycond.spectra" in imported and not imported & LAYERS


def test_public_names_resolve_lazily():
    import polycond

    assert len(set(polycond.__all__)) == len(polycond.__all__) == 66
    for name in polycond.__all__[1:]:
        obj = getattr(polycond, name)
        # the object its home module defines, not a re-export
        assert obj.__module__ == f"polycond.{polycond._HOME[name]}"
        assert getattr(sys.modules[obj.__module__], name) is obj
    assert set(polycond.__all__) <= set(dir(polycond))
    star = {}
    exec("from polycond import *", star)
    assert set(polycond.__all__) <= set(star)
    with pytest.raises(AttributeError):
        polycond.nope
