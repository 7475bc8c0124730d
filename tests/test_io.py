"""Problem-file parsing, validation diagnostics, and round-tripping."""

import json
import re

import numpy as np
import pytest

from helpers import FIXTURES, load_fixture
from polycond import (
    InvalidPolynomialError,
    ProblemFormatError,
    contours,
    grid_eval,
    parse_problem,
    random_perturbation,
    serialize_problem,
    spectrum,
)

MINIMAL = '{"n": 1, "m": 1, "coefficients": [[[-2.0]], [[1.0]]]}'


P3 = json.loads((FIXTURES / "p3.json").read_text())


def minimal_doc(**extra):
    doc = {"n": 1, "m": 1, "coefficients": [[[-2.0]], [[1.0]]]}
    doc.update(extra)
    return json.dumps(doc)


def p3_with(path, value):
    """p3's problem document with value at path, and that field's path as
    parse_problem names it."""
    doc = json.loads(json.dumps(P3))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    field = path[0] + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path[1:])
    return json.dumps(doc), field


class TestParse:
    def test_minimal_problem(self):
        pf = parse_problem(MINIMAL)
        assert pf.poly.n == 1 and pf.poly.m == 1
        assert pf.weights_derived
        assert pf.triple is None and pf.multiple is None

    def test_complex_entries(self):
        pf = parse_problem(minimal_doc(coefficients=[[[[0.0, -1.0]]], [[2.0]]]))
        assert pf.poly.coeffs[0][0, 0] == -1j

    def test_derived_weights_are_coefficient_norms(self):
        path = FIXTURES / "p4.json"
        pf = parse_problem(path.read_text())
        assert pf.weights_derived
        assert np.allclose(pf.weights.weights, [25.0379, 2.2919, 1.0], atol=1e-3)

    def test_explicit_weights_not_derived(self):
        pf = parse_problem(minimal_doc(weights=[2.0, 3.0]))
        assert not pf.weights_derived
        assert pf.weights.weights == (2.0, 3.0)

    def test_comment_ignored(self):
        pf = parse_problem(minimal_doc(comment="anything at all"))
        assert pf.poly.m == 1


class TestParseErrors:
    def test_syntax_error_carries_position(self):
        with pytest.raises(ProblemFormatError) as err:
            parse_problem('{"n": 1,\n  "m": }')
        msg = str(err.value)
        assert "line 2" in msg and "column" in msg

    def test_top_level_must_be_object(self):
        with pytest.raises(ProblemFormatError):
            parse_problem("[1, 2, 3]")

    def test_missing_n(self):
        with pytest.raises(ProblemFormatError) as err:
            parse_problem('{"m": 1, "coefficients": []}')
        assert str(err.value).startswith("n:")

    def test_bool_is_not_a_number(self):
        with pytest.raises(ProblemFormatError):
            parse_problem(minimal_doc(coefficients=[[[True]], [[1.0]]]))

    @pytest.mark.parametrize("path", [("n",), ("weights", 1), ("triple", "blocks", 0, "eigenvalue"),
                                      ("multiple", "eigenvalue")])
    def test_bool_refused_with_field_path(self, path):
        # core's number rule reads every field, and it takes no bool
        text, field = p3_with(path, True)
        with pytest.raises(ProblemFormatError, match=rf"^{re.escape(field)}: expected an? "
                                                     r"(finite number|integer).*, got True$"):
            parse_problem(text)

    def test_wrong_coefficient_count(self):
        with pytest.raises(ProblemFormatError) as err:
            parse_problem(minimal_doc(coefficients=[[[1.0]]]))
        assert "expected 2 matrices" in str(err.value)

    def test_entry_error_path(self):
        doc = {"n": 2, "m": 2, "coefficients": [
            [[0, 0], [0, 1]], [[1, 0], [0, 1]], [[1, 0], [0, "x"]]]}
        with pytest.raises(ProblemFormatError) as err:
            parse_problem(json.dumps(doc))
        assert "coefficients[2][1][1]" in str(err.value)

    def test_row_length_error_path(self):
        doc = {"n": 2, "m": 1, "coefficients": [[[0, 0], [0]], [[1, 0], [0, 1]]]}
        with pytest.raises(ProblemFormatError) as err:
            parse_problem(json.dumps(doc))
        assert "coefficients[0][1]" in str(err.value)

    def test_singular_leading_coefficient_rejected(self):
        with pytest.raises(InvalidPolynomialError):
            parse_problem(minimal_doc(coefficients=[[[1.0]], [[0.0]]]))

    def test_weights_length_mismatch(self):
        with pytest.raises(ProblemFormatError) as err:
            parse_problem(minimal_doc(weights=[1.0]))
        assert "weights" in str(err.value)

    def test_weight_entry_type(self):
        with pytest.raises(ProblemFormatError) as err:
            parse_problem(minimal_doc(weights=[1.0, "big"]))
        assert "weights[1]" in str(err.value)

    def test_triple_blocks_required(self):
        with pytest.raises(ProblemFormatError) as err:
            parse_problem(minimal_doc(triple={"X": [[1.0]], "Y": [[1.0]]}))
        assert "triple.blocks" in str(err.value)

    def test_triple_block_size_type(self):
        triple = {"X": [[1.0]], "blocks": [{"eigenvalue": 2.0, "size": 0}], "Y": [[1.0]]}
        with pytest.raises(ProblemFormatError) as err:
            parse_problem(minimal_doc(triple=triple))
        assert "triple.blocks[0].size" in str(err.value)

    def test_triple_x_shape_follows_blocks(self):
        triple = {"X": [[1.0]], "blocks": [{"eigenvalue": 2.0, "size": 2}], "Y": [[1.0], [0.0]]}
        with pytest.raises(ProblemFormatError) as err:
            parse_problem(minimal_doc(triple=triple))
        assert "triple.X" in str(err.value)

    def test_multiple_block_shapes(self):
        multiple = {"eigenvalue": 2.0, "right_vectors": [[1.0, 0.0]],
                    "left_vectors": [[1.0]]}
        with pytest.raises(ProblemFormatError) as err:
            parse_problem(minimal_doc(multiple=multiple))
        assert "multiple.left_vectors" in str(err.value)


class TestNonFiniteNumbers:
    """json.loads accepts NaN, Infinity and -Infinity; a problem file may not."""

    @pytest.mark.parametrize("path, value", [
        (("coefficients", 0, 0, 0), float("nan")),
        (("coefficients", 2, 1, 1), [1.0, float("inf")]),
        (("weights", 2), float("-inf")),
        (("triple", "blocks", 0, "eigenvalue"), float("nan")),
        (("triple", "X", 0, 3), float("inf")),
        (("multiple", "eigenvalue"), float("inf")),
        (("multiple", "right_vectors", 1, 0), float("nan")),
        (("multiple", "left_vectors", 0, 2), [float("nan"), 0.0]),
    ])
    def test_refused_with_field_path(self, path, value):
        text, field = p3_with(path, value)
        assert "NaN" in text or "Infinity" in text
        with pytest.raises(ProblemFormatError, match=rf"^{re.escape(field)}: expected a finite number"):
            parse_problem(text)

    def test_integer_past_float_range_refused(self):
        # complex() would raise OverflowError, which is no polycond error
        with pytest.raises(ProblemFormatError, match=r"^coefficients\[1\]\[0\]\[0\]: expected a finite"):
            parse_problem(minimal_doc(coefficients=[[[-2.0]], [[10 ** 400]]]))
        with pytest.raises(ProblemFormatError, match=r"^weights\[0\]: expected a finite"):
            parse_problem(minimal_doc(weights=[-(10 ** 400), 1.0]))

    def test_finite_pairs_and_integers_still_parse(self):
        pf = parse_problem(minimal_doc(coefficients=[[[[-2, 0.5]]], [[1]]], weights=[1, 2.5]))
        assert pf.poly.coeffs[0][0, 0] == complex(-2, 0.5)
        assert pf.weights.weights == (1.0, 2.5)


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["p3", "p4", "p5", "p6", "p6_perturbed",
                                      "pz_zero_eig"])
    def test_fixture_round_trips_byte_identical(self, name):
        text = (FIXTURES / f"{name}.json").read_text()
        assert serialize_problem(parse_problem(text)) == text

    def test_derived_weights_stay_omitted(self):
        text = serialize_problem(parse_problem(MINIMAL))
        assert "weights" not in json.loads(text)

    def test_complex_serialized_as_pairs_only_when_needed(self, p4):
        text = serialize_problem(p4)
        doc = json.loads(text)
        # the (1, 2) entry of A_0 is -i: stored as [0.0, -1.0]
        assert doc["coefficients"][0][1][2] == [0.0, -1.0]
        # real entries stay plain numbers
        assert isinstance(doc["coefficients"][0][2][2], float)

    def test_triple_and_multiple_survive(self, p3):
        pf = parse_problem(serialize_problem(p3))
        assert pf.triple is not None
        assert np.array_equal(pf.triple.X, p3.triple.X)
        assert [(b.eigenvalue, b.size) for b in pf.triple.blocks] == \
            [(b.eigenvalue, b.size) for b in p3.triple.blocks]
        assert pf.multiple is not None
        assert np.array_equal(pf.multiple.right_vectors, p3.multiple.right_vectors)

    def test_values_bit_exact(self, p6q):
        pf = parse_problem(serialize_problem(p6q))
        for a, b in zip(pf.poly.coeffs, p6q.poly.coeffs):
            assert np.array_equal(a, b)
        assert pf.weights.weights == p6q.weights.weights


def _p3():
    return load_fixture("p3")


def _grid():
    pf = _p3()
    return grid_eval(pf.poly, pf.weights, (-2.0, 2.0, -1.0, 1.0), 9)


# one builder per record type that holds arrays; each call makes a fresh
# instance with the same content as the last
RECORDS = {
    "MatrixPolynomial": lambda: _p3().poly,
    "PerturbedPolynomial": lambda: random_perturbation(_p3().poly, 1e-3, _p3().weights, seed=0),
    "JordanTriple": lambda: _p3().triple,
    "MultipleEigenvalueData": lambda: _p3().multiple,
    "ProblemFile": _p3,
    "Spectrum": lambda: spectrum(_p3().poly),
    "PseudoGrid": _grid,
    "ContourSet": lambda: contours(_grid(), 0.05),
}


class TestRecordIdentity:
    @pytest.mark.parametrize("name", RECORDS)
    def test_records_with_arrays_compare_by_identity(self, name):
        a, b = RECORDS[name](), RECORDS[name]()
        assert type(a).__name__ == name
        assert a == a and a in [a]
        assert a != b and b not in [a]
        assert len({a, b, a}) == 2
