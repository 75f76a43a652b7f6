"""End-to-end CLI: JSON in, JSON out, deterministic, correct exit codes."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latred.cli import main


def run_cli(args, payload=None):
    """Run the CLI in process: its exit code, stdout (`output`) and stderr."""
    stdin = json.dumps(payload) if isinstance(payload, (dict, list)) else payload
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(args, prog_name="latred")
        code = 0
    except SystemExit as exc:
        code = exc.code or 0
    finally:
        sys.stdin = saved
    return SimpleNamespace(exit_code=code, output=out.getvalue(), stderr=err.getvalue())


DIAG14 = {"n": 2, "gram": [["1", "0"], ["0", "4"]]}
VS_T2 = {"q": 2, "n": 2, "S_basis": [["1", "0"], ["0", "t^2"]]}
STD_VERTEX = {"matrix": [["1", "0"], ["0", "1"]]}
# localized cover points: a Z[1/2] and an F_2[t][1/t] one, each with its ring
LOC_Z_POINT = {"ring": "z", "T": [2], "B": {"n": 2, "basis": [["1", "0"], ["0", "1"]]},
               "x": DIAG14, "threshold": 0}
LOC_FF_POINT = {"ring": "ff", "q": 2, "T": [[0, 1]],
                "B": {"n": 2, "basis": [["1", "0"], ["0", "1/t"]]}, "x": VS_T2,
                "threshold": 0}


class TestVerbExamples:
    def test_canfilt_split_form(self):
        res = run_cli(["canfilt", "--ring", "z"], DIAG14)
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["c_values"]["1"]["c_sq_ratio"] == "4/1"
        assert [c["rank"] for c in data["chain"]] == [0, 1, 2]
        assert data["chain"][1]["basis"] == [[1, 0]]

    def test_ff_invariants(self):
        res = run_cli(["ff-invariants"], VS_T2)
        assert res.exit_code == 0
        assert json.loads(res.output)["r"] == [-2, 0]

    def test_building_neighbors_both_spellings(self):
        for args in (["building-neighbors", "--p", "2", "--n", "2"],
                     ["building", "neighbors", "--p", "2", "--n", "2"],
                     ["building", "neighbors", "--q", "2", "--n", "2"]):
            res = run_cli(args, STD_VERTEX)
            assert res.exit_code == 0
            data = json.loads(res.output)
            assert data["count"] == 3
            assert all(nb["label_difference"] == 1 for nb in data["neighbors"])

    def test_volume_and_cvalue(self):
        res = run_cli(["volume", "--ring", "z"],
                      {"x": DIAG14, "summand": {"basis": [[0, 1]]}})
        assert json.loads(res.output)["vol_sq"] == "4/1"
        res = run_cli(["volume", "--ring", "ff"],
                      {"x": VS_T2, "summand": {"basis": [[[], [1]]]}})
        assert json.loads(res.output)["logvol"] == -2
        res = run_cli(["cvalue", "--ring", "z"],
                      {"x": DIAG14, "summand": {"basis": [[1, 0]]}})
        assert json.loads(res.output)["c"]["c_sq_ratio"] == "4/1"
        res = run_cli(["cvalue", "--ring", "ff"],
                      {"x": VS_T2, "summand": {"basis": [[[], [1]]]}})
        assert json.loads(res.output)["c"] == "2"
        res = run_cli(["cvalue", "--ring", "ff"],
                      {"x": VS_T2, "summand": {"basis": [[[1], []]]}})
        assert json.loads(res.output)["c"] == "-2"

    def test_diagonal_basis(self):
        res = run_cli(["diagonal-basis"], VS_T2)
        data = json.loads(res.output)
        assert data["r"] == [-2, 0]

    def test_intersect_and_loc_volume(self):
        doc = {
            "ring": "z", "T": [2],
            "B": {"n": 2, "basis": [["1/2", "0"], ["0", "1"]]},
            "summand": {"basis": [["1", "0"], ["0", "1"]]},
        }
        res = run_cli(["intersect"], doc)
        assert json.loads(res.output)["basis"] == [["1/2", "0"], ["0", "1"]]
        doc["x"] = {"n": 2, "gram": [["1", "0"], ["0", "1"]]}
        res = run_cli(["loc-volume"], doc)
        assert json.loads(res.output)["logvol"]["vol_sq"] == "1/4"

    def test_loc_volume_over_f_q(self):
        doc = {"ring": "ff", "q": 2, "T": [[0, 1]],
               "B": {"n": 2, "basis": [["1", "0"], ["0", "1/t"]]},
               "summand": {"basis": [["0", "1"]]}, "x": VS_T2}
        res = run_cli(["loc-volume"], doc)
        assert res.exit_code == 0
        assert json.loads(res.output) == {"logvol": -3}

    def test_factorize(self):
        doc = {"ring": "z", "T": [2], "A": [["1", "1/6"], ["0", "1"]],
               "mode": "GL"}
        res = run_cli(["factorize"], doc)
        data = json.loads(res.output)
        assert "B" in data and "C" in data

    def test_chamber_count(self):
        res = run_cli(["chamber-count", "--n", "3", "--r", "2", "--k", "1"])
        assert json.loads(res.output) == {"count": 3, "verified": True}

    def test_apartment_and_triangulate(self):
        res = run_cli(["apartment"], {"m": [1, 0]})
        assert json.loads(res.output)["coords"] == ["1/2", "-1/2"]
        res = run_cli(["triangulate"], {"x": ["1/2", "1/4"]})
        data = json.loads(res.output)
        assert data["points"] == [[0, 0], [1, 0], [1, 1]]
        assert data["coeffs"] == ["1/2", "1/4", "1/4"]

    def test_label_diff(self):
        doc = {"v1": STD_VERTEX, "v2": {"matrix": [["1", "0"], ["0", "1/2"]]}}
        res = run_cli(["label-diff", "--p", "2", "--n", "2"], doc)
        assert json.loads(res.output)["label_difference"] == 1

    def test_cover_membership_and_core(self):
        doc = {"side": "z", "x": DIAG14, "threshold": 0}
        res = run_cli(["cover-membership"], doc)
        data = json.loads(res.output)
        assert len(data["members"]) == 1
        assert data["members"][0]["summand"]["basis"] == [[1, 0]]
        res = run_cli(["core-test"],
                      {"side": "z", "x": {"n": 2, "gram": [["1", "0"], ["0", "1"]]},
                       "threshold": 0})
        assert json.loads(res.output)["in_core"] is True

    def test_cover_membership_ff_vertex(self):
        doc = {"side": "ff", "q": 2, "n": 2, "threshold": 8,
               "x": {"matrix": [["t^5", "0"], ["0", "1/t^5"]]}}
        res = run_cli(["cover-membership"], doc)
        data = json.loads(res.output)
        assert len(data["members"]) == 1
        assert data["members"][0]["c"] == "10"

    @pytest.mark.parametrize("k, members, in_core", [
        (9, '{"members":[{"c":"18","summand":{"basis":[[[1],[]]],"rank":1}}]}', "false"),
        (3, '{"members":[]}', "true"),
    ])
    def test_ff_vertex_takes_the_building_preset(self, k, members, in_core):
        # with no threshold an F_q[t] vertex takes theta = 4n = 8: the vertex
        # diag(t^k, t^-k) has c = 2k, so k = 9 lies in the cover and k = 3 in
        # the core, byte for byte
        doc = {"side": "ff", "q": 2, "n": 2,
               "x": {"matrix": [[f"t^{k}", "0"], ["0", f"1/t^{k}"]]}}
        res = run_cli(["cover-membership"], doc)
        assert (res.exit_code, res.output) == (0, members + "\n")
        res = run_cli(["core-test"], doc)
        assert (res.exit_code, res.output) == (0, f'{{"in_core":{in_core}}}\n')

    @pytest.mark.parametrize("side, point, member", [
        ("loc-z", LOC_Z_POINT, {"c": {"c_sq_ratio": "4/1", "decimal": "0.69314718056"},
                                "summand": {"basis": [["1", "0"]], "rank": 1}}),
        ("loc-ff", LOC_FF_POINT, {"c": "3", "summand": {"basis": [["0", "1"]], "rank": 1}}),
    ])
    def test_cover_membership_side_fixes_ring(self, side, point, member):
        # a missing ring follows the side; a ring naming the same kind agrees
        want = {"members": [member]}
        no_ring = {k: v for k, v in point.items() if k != "ring"}
        for doc in (no_ring, point):
            res = run_cli(["cover-membership"], dict(doc, side=side))
            assert res.exit_code == 0, res.output
            assert json.loads(res.output) == want

    @pytest.mark.parametrize("side, point, between, above", [
        # T = {2}: 4n(R+1) = 8 + 8 ln 2 ~ 13.55; c = ln(d)/2 is 11.51, then 13.82
        ("loc-z", LOC_Z_POINT, {"n": 2, "gram": [["1", "0"], ["0", "10000000000"]]},
         {"n": 2, "gram": [["1", "0"], ["0", "1000000000000"]]}),
        # T = {t}: 4n(R+1) = 16; c is 13, then 17
        ("loc-ff", LOC_FF_POINT, dict(VS_T2, S_basis=[["1", "0"], ["0", "t^12"]]),
         dict(VS_T2, S_basis=[["1", "0"], ["0", "t^16"]])),
    ])
    def test_localized_point_takes_the_localized_preset(self, side, point, between,
                                                        above):
        # with no threshold a localized point takes 4n(R+1), R the log-size of
        # T, not the building preset 4n = 8 that the first point exceeds
        doc = {k: v for k, v in point.items() if k != "threshold"}

        def answer(verb, x, **threshold):
            res = run_cli([verb], dict(doc, side=side, x=x, **threshold))
            assert res.exit_code == 0, res.output
            return json.loads(res.output)
        assert len(answer("cover-membership", between, threshold=8)["members"]) == 1
        assert answer("cover-membership", between) == {"members": []}
        assert answer("core-test", between) == {"in_core": True}
        assert len(answer("cover-membership", above)["members"]) == 1

    def test_core_reps(self):
        res = run_cli(["core-reps", "--n", "2", "--theta", "1"])
        assert json.loads(res.output)["reps"] == [[0, 0], [0, 1]]

    def test_selfcheck(self):
        res = run_cli(["selfcheck", "--seed", "3", "--scale", "3"])
        data = json.loads(res.output)
        assert data["ok"] is True
        assert all(c["ok"] for c in data["checks"])

    def test_ff_agreement_check_can_fail(self, monkeypatch):
        # a c-value one off the hull's fails the check
        import random

        from latred import cli, latff
        exact = latff.instability_ff
        calls = []

        def off_by_one(vs, w):
            calls.append(w)
            return exact(vs, w) + 1

        monkeypatch.setattr(latff, "instability_ff", off_by_one)
        assert cli._check_ff_agreement(random.Random(1), 6)["ok"] is False
        assert calls


GRAM3 = {"n": 3, "gram": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
LOC_Z = {"ring": "z", "T": [2], "B": {"n": 2, "basis": [["1", "0"], ["0", "1"]]},
         "summand": {"basis": [["1", "1"]]}}
FACTORIZE_Z = {"ring": "z", "T": [2]}
# requests whose integer field, ring or matrix shape is not one, with the
# error naming it
FIELD_ERRORS = {
    "summand-entry-float": (["volume", "--ring", "z"],
                            {"x": DIAG14, "summand": {"basis": [[1.5, 0]]}},
                            "summand basis entry must be a JSON integer, got 1.5"),
    "T-entry-float": (["intersect"], dict(LOC_Z, T=[2.5]),
                      "T entry must be a JSON integer, got 2.5"),
    "n-bool": (["canfilt", "--ring", "z"], {"n": True, "gram": [["1"]]},
               "n must be a JSON integer, got True"),
    "q-string": (["ff-invariants"], dict(VS_T2, q="2"),
                 "q must be a JSON integer, got '2'"),
    "B-n-float": (["intersect"],
                  dict(LOC_Z, B={"n": 2.0, "basis": [["1", "0"], ["0", "1"]]}),
                  "n must be a JSON integer, got 2.0"),
    "m-entry-float": (["apartment"], {"m": [1.0, 0]},
                      "m entry must be a JSON integer, got 1.0"),
    "cover-q-bool": (["cover-membership"],
                     {"side": "ff", "q": False, "n": 2, "x": STD_VERTEX},
                     "q must be a JSON integer, got False"),
    "unknown-ring": (["intersect"], dict(LOC_Z, ring="zz"),
                     "ring must be one of z, int, integers, ff, got 'zz'"),
    "ff-coeff-bool": (["cvalue", "--ring", "ff"],
                      {"x": VS_T2, "summand": {"basis": [[[True], []]]}},
                      "polynomial [True] must be a list of integer coefficients, "
                      "lowest degree first ([0, 1] for t)"),
    "ff-T-bool": (["intersect"], dict(LOC_Z, ring="ff", q=2, T=[[False, True]]),
                  "polynomial [False, True] must be a list of integer coefficients, "
                  "lowest degree first ([0, 1] for t)"),
    # F_q elements are the integers 0..q-1, not residues reduced mod q
    "ff-coeff-2-over-F2": (["volume", "--ring", "ff"],
                           {"x": VS_T2, "summand": {"basis": [[[], [2]]]}},
                           "polynomial [2] has a coefficient outside the F_2 elements 0..1"),
    "ff-coeff-3-over-F2": (["volume", "--ring", "ff"],
                           {"x": VS_T2, "summand": {"basis": [[[], [3]]]}},
                           "polynomial [3] has a coefficient outside the F_2 elements 0..1"),
    "ff-coeff-negative": (["cvalue", "--ring", "ff"],
                          {"x": VS_T2, "summand": {"basis": [[[1], [0, -1]]]}},
                          "polynomial [0, -1] has a coefficient outside the F_2 elements "
                          "0..1"),
    "ff-T-6-over-F4": (["intersect"], dict(LOC_Z, ring="ff", q=4, T=[[6, 1]]),
                       "polynomial [6, 1] has a coefficient outside the F_4 elements 0..3"),
    "ff-string-2-over-F2": (["ff-invariants"],
                            dict(VS_T2, S_basis=[["2*t^2", "0"], ["0", "1"]]),
                            "polynomial '2*t^2' has a coefficient outside the F_2 elements "
                            "0..1"),
    "ff-string-3-over-F2": (["ff-invariants"],
                            dict(VS_T2, S_basis=[["3*t^2", "0"], ["0", "1"]]),
                            "polynomial '3*t^2' has a coefficient outside the F_2 elements "
                            "0..1"),
    "loc-ff-side-z-ring": (["cover-membership"], dict(LOC_Z_POINT, side="loc-ff"),
                           "ring 'z' contradicts side 'loc-ff'"),
    "loc-z-side-ff-ring": (["cover-membership"], dict(LOC_FF_POINT, side="loc-z"),
                           "ring 'ff' contradicts side 'loc-z'"),
    "loc-volume-z-x-n": (["loc-volume"], dict(LOC_Z, x=GRAM3),
                         "x has n = 3 but B has n = 2"),
    "loc-z-point-x-n": (["cover-membership"], dict(LOC_Z_POINT, side="loc-z", x=GRAM3),
                        "x has n = 3 but B has n = 2"),
    "loc-volume-ff-x-q": (["loc-volume"], dict(LOC_Z, ring="ff", q=3, T=[[0, 1]], x=VS_T2),
                          "x has q = 2 but the context has q = 3"),
    "loc-ff-point-x-q": (["cover-membership"],
                         dict(LOC_FF_POINT, side="loc-ff", x=dict(VS_T2, q=3)),
                         "x has q = 3 but the context has q = 2"),
    "loc-summand-no-basis": (["intersect"], dict(LOC_Z, summand={}),
                             "bad summand: 'basis'"),
    "factorize-ragged-A": (["factorize"], dict(FACTORIZE_Z, A=[["1", "2"], ["3"]]),
                           "A must be a list of 2 rows of length 2"),
    "factorize-2x3-A": (["factorize"],
                        dict(FACTORIZE_Z, A=[["1", "2", "3"], ["4", "5", "6"]]),
                        "A must be a list of 2 rows of length 2"),
    "factorize-string-A": (["factorize"], dict(FACTORIZE_Z, A="x"),
                           "A must be a square list of lists"),
    # found by changing one value of a valid request document: a T that is no
    # list was the empty prime set, and an unknown mode a domain error (exit 3)
    "T-empty-string": (["intersect"], dict(LOC_Z, T=""), "T must be a JSON list, got ''"),
    "ff-T-object": (["factorize"], dict(FACTORIZE_Z, ring="ff", q=2, T={}, A=[["1"]]),
                    "T must be a JSON list, got {}"),
    "factorize-mode": (["factorize"], dict(FACTORIZE_Z, A=[["1"]], mode="XL"),
                       "mode must be GL or SL, got 'XL'"),
    # an empty polynomial string was the zero polynomial, and a JSON float in a
    # rational field was read through its decimal spelling
    "ff-empty-polynomial": (["ff-invariants"], dict(VS_T2, S_basis=[["1", ""], ["", "t^2"]]),
                            "empty polynomial ''"),
    # a dangling "+" was skipped as an empty term
    "ff-empty-term": (["ff-invariants"], dict(VS_T2, S_basis=[["1", "0"], ["0", "t^2+"]]),
                      "polynomial 't^2+' has an empty term"),
    "gram-float": (["canfilt", "--ring", "z"], dict(DIAG14, gram=[["1", "0"], ["0", 4.5]]),
                   'bad rational 4.5: a JSON float; give a string "p/q" or a JSON integer'),
    "threshold-float": (["cover-membership"], {"side": "z", "x": DIAG14, "threshold": 0.5},
                        'bad rational 0.5: a JSON float; give a string "p/q" or a JSON '
                        "integer"),
}


class TestParsers:
    def test_rational_function_with_parentheses(self):
        from latred.fq import FqRationalFunction, poly
        from latred.jsonio import ratfunc_from_str
        assert ratfunc_from_str(2, "(t+1)/(t^2+t+1)") == \
            FqRationalFunction(poly(2, [1, 1]), poly(2, [1, 1, 1]))

    def test_zero_denominator_is_a_validation_error(self):
        from latred.errors import ValidationError
        from latred.jsonio import ratfunc_from_str
        with pytest.raises(ValidationError, match="zero denominator"):
            ratfunc_from_str(2, "t/0")

    @pytest.mark.parametrize("text", ["", " ", "1/", "()/t"])
    def test_empty_polynomial_is_a_validation_error(self, text):
        from latred.errors import ValidationError
        from latred.jsonio import ratfunc_from_str
        with pytest.raises(ValidationError, match="empty polynomial"):
            ratfunc_from_str(2, text)

    def test_blank_polynomial_is_named(self):
        from latred.errors import ValidationError
        from latred.jsonio import poly_from_str
        with pytest.raises(ValidationError, match="empty polynomial ' '"):
            poly_from_str(2, " ")

    def test_negative_term(self):
        from latred.jsonio import poly_from_str
        assert poly_from_str(3, "t^2-1").coeffs == (2, 0, 1)

    @pytest.mark.parametrize("text", ["t+", "+t", "1++t", "t^2+"])
    def test_empty_term_is_a_validation_error(self, text):
        from latred.errors import ValidationError
        from latred.jsonio import poly_from_str
        with pytest.raises(ValidationError, match=f"polynomial '{re.escape(text)}' has an "
                                                  "empty term"):
            poly_from_str(3, text)

    def test_leading_minus_and_coefficients_parse(self):
        from latred.jsonio import poly_from_str
        assert poly_from_str(3, "-t").coeffs == (0, 2)
        assert poly_from_str(3, "2*t^2+1").coeffs == (1, 0, 2)


class TestContract:
    def test_determinism(self):
        a = run_cli(["canfilt", "--ring", "z"], DIAG14).output
        b = run_cli(["canfilt", "--ring", "z"], DIAG14).output
        assert a == b

    def test_round_trip(self):
        from latred import jsonio
        res = run_cli(["canfilt", "--ring", "z"], DIAG14)
        data = json.loads(res.output)
        for item in data["chain"]:
            w = jsonio.z_summand_from_json(item, 2)
            assert jsonio.summand_to_json(w) == item
        res = run_cli(["ff-invariants"], VS_T2)
        data = json.loads(res.output)
        for item in data["filtration"]["chain"]:
            w = jsonio.ff_summand_from_json(item, 2, 2)
            assert jsonio.summand_to_json(w) == item

    def test_shape_errors_exit_2(self):
        for verb, payload in [
            (["canfilt", "--ring", "z"], {}),
            (["volume", "--ring", "z"], {"x": 1}),
            (["apartment"], {"m": "x"}),
            (["triangulate"], []),
            (["intersect"], {"T": [2]}),
            # request documents of the wrong shape are bad input, not bad
            # mathematics
            (["canfilt", "--ring", "z"], {"n": 7, "gram": []}),
            (["ff-invariants"], {"q": 2, "n": 2, "S_basis": [["1", "0"]]}),
            (["volume", "--ring", "z"],
             {"x": {"n": 2, "gram": [["1", "0"], ["0", "1"]]},
              "summand": {"basis": [[1, 0, 0]]}}),
            (["volume", "--ring", "ff"],
             {"x": {"q": 2, "n": 2, "S_basis": [["1", "0"], ["0", "1"]]},
              "summand": {"basis": [[[1]]]}}),
            (["intersect"], {"T": [2], "B": {"n": 2, "basis": [["1", "0"]]},
                             "summand": {"basis": [["1", "0"]]}}),
            (["intersect"], {"T": [2], "B": {"n": 2, "basis": [["1", "0"], ["0", "1"]]},
                             "summand": {"basis": [["1"]]}}),
            (["building-neighbors", "--p", "2", "--n", "2"],
             {"matrix": [["1", "0", "5"], ["0", "1", "7"]]}),
            # exactly one of --p and --q names the valuation ring
            (["building", "neighbors", "--p", "2", "--q", "2", "--n", "2"], STD_VERTEX),
            (["building", "neighbors", "--n", "2"], STD_VERTEX),
            # integer fields take JSON integers only, and the ring is named
            *((verb, payload) for verb, payload, _ in FIELD_ERRORS.values()),
        ]:
            res = run_cli(verb, payload)
            assert res.exit_code == 2, (verb, res.output)
            assert json.loads(res.output)["kind"] == "validation"

    @pytest.mark.parametrize("case", sorted(FIELD_ERRORS))
    def test_bad_field_is_named(self, case):
        verb, payload, error = FIELD_ERRORS[case]
        res = run_cli(verb, payload)
        assert res.exit_code == 2
        assert json.loads(res.output) == {"error": error, "kind": "validation"}

    @pytest.mark.parametrize("ring", ["z", "Int", "integers", "ff"])
    def test_ring_spellings(self, ring):
        doc = dict(LOC_Z, ring=ring)
        if ring == "ff":
            doc = dict(doc, q=2, T=[[0, 1]])
        res = run_cli(["intersect"], doc)
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["basis"] == [["1", "1"]]

    def test_rank_zero_is_one_point_on_both_sides(self):
        z = json.loads(run_cli(["canfilt", "--ring", "z"], {"n": 0, "gram": []}).output)
        space = {"q": 2, "n": 0, "S_basis": []}
        outputs = []
        for verb in (["canfilt", "--ring", "ff"], ["ff-invariants"], ["diagonal-basis"]):
            res = run_cli(verb, space)
            assert res.exit_code == 0, res.output
            outputs.append(json.loads(res.output))
        ff, inv, diag = outputs
        assert z["chain"] == ff["chain"] == [{"basis": [], "rank": 0}]
        assert z["c_values"] == ff["c_values"] == {}
        assert [p["rank"] for p in z["path"]] == [p["rank"] for p in ff["path"]] == [0]
        assert inv == {"r": [], "filtration": ff}
        assert diag == {"r": [], "w": [], "b": []}

    def test_zero_strings_and_json_integers_are_accepted(self):
        as_ints = run_cli(["canfilt", "--ring", "z"], dict(DIAG14, gram=[[1, 0], [0, 4]]))
        assert as_ints.exit_code == 0
        assert as_ints.output == run_cli(["canfilt", "--ring", "z"], DIAG14).output
        res = run_cli(["ff-invariants"], dict(VS_T2, S_basis=[["1", "0"], ["0", "t^2"]]))
        assert res.exit_code == 0
        assert json.loads(res.output)["r"] == [-2, 0]

    def test_malformed_json_exits_2(self):
        res = run_cli(["canfilt", "--ring", "z"], "{not json")
        assert res.exit_code == 2
        assert json.loads(res.output)["kind"] == "validation"

    def test_domain_error_exits_3(self):
        res = run_cli(["canfilt", "--ring", "z"],
                      {"n": 2, "gram": [["1", "2"], ["2", "1"]]})
        assert res.exit_code == 3
        assert json.loads(res.output)["kind"] == "domain"

    @pytest.mark.parametrize("r", ["1", "6"])
    def test_chamber_count_needs_prime_power(self, r):
        res = run_cli(["chamber-count", "--n", "3", "--r", r, "--k", "1"])
        assert res.exit_code == 3
        data = json.loads(res.output)
        assert data["kind"] == "domain"
        assert "is not a prime power" in data["error"]

    def test_empty_apartment_exits_3(self):
        res = run_cli(["apartment"], {"m": []})
        assert res.exit_code == 3
        assert json.loads(res.output)["kind"] == "domain"

    def test_empty_triangulate_exits_3(self):
        res = run_cli(["triangulate"], {"x": []})
        assert res.exit_code == 3
        assert json.loads(res.output)["kind"] == "domain"

    @pytest.mark.parametrize("verb", ["cover-membership", "core-test"])
    @pytest.mark.parametrize("doc", [
        {"side": "z", "x": {"n": 2, "gram": [["1", "0"], ["0", "1"]]}},
        {"side": "ff", "q": 2, "n": 2, "x": STD_VERTEX},
    ], ids=["z-identity", "ff-standard-vertex"])
    def test_negative_threshold_exits_3(self, verb, doc):
        # membership is read off the canonical chain, which holds every c > theta
        # only for theta >= 0: at theta = -1 the identity form's <e1> has
        # c = 0 > theta but lies on no chain
        res = run_cli([verb], dict(doc, threshold=-1))
        assert res.exit_code == 3
        assert json.loads(res.output) == {"error": "cover threshold -1 is negative",
                                          "kind": "domain"}

    @pytest.mark.parametrize("scale", ["0", "-1"])
    def test_selfcheck_scale_below_one_exits_2(self, scale):
        res = run_cli(["selfcheck", "--scale", scale])
        assert res.exit_code == 2
        assert json.loads(res.output) == {
            "error": f"--scale must be at least 1, got {scale}",
            "kind": "validation"}

    def test_singular_vertex_exits_3(self):
        res = run_cli(["building-neighbors", "--p", "2", "--n", "2"],
                      {"matrix": [["1", "2"], ["2", "4"]]})
        assert res.exit_code == 3
        assert res.output == ('{"error":"columns do not span a full lattice",'
                              '"kind":"domain"}\n')

    @pytest.mark.parametrize("ctx,rows", [
        ({"ring": "z", "T": [2, 3]}, [["1", "2"], ["2", "4"]]),
        ({"ring": "ff", "q": 2, "T": [[0, 1]]}, [["1", "t"], ["t", "t^2"]]),
    ], ids=["Z", "FF"])
    def test_intersect_dependent_rows_exits_3(self, ctx, rows):
        doc = dict(ctx, B={"n": 2, "basis": [["1", "0"], ["0", "1"]]},
                   summand={"basis": rows})
        res = run_cli(["intersect"], doc)
        assert res.exit_code == 3
        assert res.output == ('{"error":"rows are dependent over the fraction '
                              'field","kind":"domain"}\n')

    @pytest.mark.parametrize("ctx,entry", [
        ({"ring": "z", "T": [2, 3]}, "1/5"),
        ({"ring": "ff", "q": 2, "T": [[0, 1]]}, "1/(t+1)"),
    ], ids=["Z", "FF"])
    def test_intersect_denominator_outside_t_exits_3(self, ctx, entry):
        doc = dict(ctx, B={"n": 2, "basis": [["1", "0"], ["0", "1"]]},
                   summand={"basis": [[entry, "0"]]})
        res = run_cli(["intersect"], doc)
        assert res.exit_code == 3
        data = json.loads(res.output)
        assert data == {"error": f"entry {entry} is not in Z[T^-1]", "kind": "domain"}

    def test_string_place_is_a_validation_error(self):
        doc = {"ring": "ff", "q": 2, "T": ["t"],
               "B": {"n": 1, "basis": [["1"]]}, "summand": {"basis": [["1"]]}}
        res = run_cli(["intersect"], doc)
        assert res.exit_code == 2
        data = json.loads(res.output)
        assert data["kind"] == "validation"
        assert "'t'" in data["error"] and "[0, 1]" in data["error"]

    def test_sl_mode_determinant_error(self):
        doc = {"ring": "z", "T": [2], "A": [["2", "0"], ["0", "1"]], "mode": "SL"}
        res = run_cli(["factorize"], doc)
        assert res.exit_code == 3

    def test_sl_mode_empty_matrix(self):
        for doc in ({"ring": "z", "T": [2]}, {"ring": "ff", "q": 3, "T": [[0, 1]]}):
            res = run_cli(["factorize"], dict(doc, A=[], mode="SL"))
            assert res.exit_code == 0
            assert json.loads(res.output) == {"B": [], "C": []}


class TestVerbTable:
    """The hooks the benchmark uses: `main.commands[...].callback` and
    `main(args, prog_name=...)`."""

    def test_a_verb_returns_its_payload(self):
        assert main.commands["core-reps"].callback(n=2, theta=1) == {"reps": [[0, 0], [0, 1]]}

    def test_alias_is_a_second_verb_for_one_function(self):
        from latred import cli
        verb = main.commands["building-neighbors"]
        alias = main.commands["building"].commands["neighbors"]
        assert verb is not alias
        assert verb.callback is alias.callback is cli.building_neighbors
        assert verb.options == alias.options

    def test_an_unserializable_answer_is_an_internal_fault(self, monkeypatch):
        # a payload our own code cannot serialize is our fault, not bad input
        monkeypatch.setattr(main.commands["core-reps"], "callback",
                            lambda **opts: Fraction(1, 2))
        res = run_cli(["core-reps", "--n", "2", "--theta", "1"])
        assert res.exit_code == 4
        body = json.loads(res.output)
        assert body == {"error": body["error"], "kind": "internal"}
        assert "Fraction" in body["error"]
        assert res.stderr == ""

    def test_replaced_callbacks_run_once_per_request(self, monkeypatch):
        requests = [(["apartment"], {"m": [1, 0]}),
                    (["building-neighbors", "--p", "2", "--n", "2"], STD_VERTEX),
                    (["building", "neighbors", "--p", "2", "--n", "2"], STD_VERTEX)]
        verbs = [main.commands["apartment"], main.commands["building-neighbors"],
                 main.commands["building"].commands["neighbors"]]
        before = [run_cli(args, doc).output for args, doc in requests]
        calls = []

        def counting(verb):
            fn = verb.callback

            def wrapped(**opts):
                calls.append(verb)
                return fn(**opts)
            return wrapped

        for verb in verbs:
            monkeypatch.setattr(verb, "callback", counting(verb))
        after = [run_cli(args, doc) for args, doc in requests]
        assert [res.exit_code for res in after] == [0, 0, 0]
        assert [res.output for res in after] == before
        assert calls == verbs


class TestUsage:
    @pytest.mark.parametrize("args", [
        ["no-such-verb"], [], ["building"], ["building", "no-such-verb"],
        ["canfilt"], ["canfilt", "--ring", "q"],
        ["chamber-count", "--n", "x", "--r", "2", "--k", "1"],
        ["canfilt", "--ri", "z"], ["canfilt", "--ring", "z", "extra"],
    ], ids=["unknown-verb", "no-verb", "bare-building", "unknown-building-verb",
            "missing-ring", "ring-q", "n-not-int", "abbreviated-ring", "extra-argument"])
    def test_usage_error_exits_2_with_nothing_on_stdout(self, args):
        # rejected before stdin is read: no JSON body, the usage on stderr
        res = run_cli(args, DIAG14)
        assert res.exit_code == 2
        assert res.output == ""
        assert res.stderr.startswith("usage: latred")
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("args", [["--help"], ["canfilt", "--help"],
                                      ["building", "--help"],
                                      ["building", "neighbors", "-h"]])
    def test_help_exits_0(self, args):
        res = run_cli(args)
        assert res.exit_code == 0
        assert res.output.startswith("usage: latred")
        assert res.stderr == ""


# valid request documents of the examples above, one per verb and ring that
# reads stdin
FUZZ_REQUESTS = [
    (["canfilt", "--ring", "z"], DIAG14),
    (["canfilt", "--ring", "ff"], VS_T2),
    (["volume", "--ring", "z"], {"x": DIAG14, "summand": {"basis": [[0, 1]]}}),
    (["volume", "--ring", "ff"], {"x": VS_T2, "summand": {"basis": [[[], [1]]]}}),
    (["cvalue", "--ring", "z"], {"x": DIAG14, "summand": {"basis": [[1, 0]]}}),
    (["cvalue", "--ring", "ff"], {"x": VS_T2, "summand": {"basis": [[[1], []]]}}),
    (["ff-invariants"], VS_T2),
    (["diagonal-basis"], VS_T2),
    (["intersect"], LOC_Z),
    (["loc-volume"], dict(LOC_Z, x=DIAG14)),
    (["loc-volume"], {"ring": "ff", "q": 2, "T": [[0, 1]],
                      "B": {"n": 2, "basis": [["1", "0"], ["0", "1/t"]]},
                      "summand": {"basis": [["0", "1"]]}, "x": VS_T2}),
    (["factorize"], {"ring": "z", "T": [2], "A": [["1", "1/6"], ["0", "1"]],
                     "mode": "GL"}),
    (["factorize"], {"ring": "ff", "q": 3, "T": [[0, 1]], "A": [], "mode": "SL"}),
    (["building-neighbors", "--p", "2", "--n", "2"], STD_VERTEX),
    (["building", "neighbors", "--q", "2", "--n", "2"], STD_VERTEX),
    (["label-diff", "--p", "2", "--n", "2"],
     {"v1": STD_VERTEX, "v2": {"matrix": [["1", "0"], ["0", "1/2"]]}}),
    (["apartment"], {"m": [1, 0]}),
    (["triangulate"], {"x": ["1/2", "1/4"]}),
    (["cover-membership"], {"side": "z", "x": DIAG14, "threshold": 0}),
    (["cover-membership"], {"side": "ff", "q": 2, "n": 2, "threshold": 8,
                            "x": {"matrix": [["t^5", "0"], ["0", "1/t^5"]]}}),
    (["cover-membership"], dict(LOC_Z_POINT, side="loc-z")),
    (["cover-membership"], dict(LOC_FF_POINT, side="loc-ff")),
    (["core-test"], {"side": "z", "x": {"n": 2, "gram": [["1", "0"], ["0", "1"]]},
                     "threshold": 0}),
]
DROP = object()
REPLACEMENTS = [None, "", [], {}, 1.5, True, -1, 0]


def _value_paths(doc, path=()):
    """(path, whether its container is a dict) for every value inside `doc`."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,), isinstance(doc, dict)
        yield from _value_paths(value, path + (key,))


def _changed(doc, path, value):
    """A copy of `doc` with the value at `path` replaced, or dropped for DROP."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def changed_requests(draw):
    args, doc = draw(st.sampled_from(FUZZ_REQUESTS))
    path, in_dict = draw(st.sampled_from(list(_value_paths(doc))))
    value = draw(st.sampled_from(REPLACEMENTS + [DROP] * in_dict))
    return args, _changed(doc, path, value)


@settings(max_examples=1000, deadline=None)
@given(changed_requests())
def test_changed_request_documents_get_a_json_answer(request):
    # one key dropped or one value replaced: exit 0, 2 or 3 with one JSON
    # line, and the error and its kind on a nonzero exit
    args, doc = request
    res = run_cli(args, doc)
    assert res.exit_code in (0, 2, 3), res.output
    assert res.output.endswith("\n") and res.output.count("\n") == 1
    body = json.loads(res.output)
    if res.exit_code:
        kind = {2: "validation", 3: "domain"}[res.exit_code]
        assert body == {"error": body["error"], "kind": kind}


SRC = Path(__file__).resolve().parent.parent / "src"

# Runs in a fresh interpreter: `import latred`, then (unless argv[1] is
# "null") `import latred.cli` and the verb argv[1] with stdin argv[2], which
# must exit with code argv[3]; the last stdout line lists the latred modules
# loaded and whether numpy, click, dataclasses and inspect were.
IMPORT_PROBE = """
import io, json, sys
args = json.loads(sys.argv[1])
import latred
if args is not None:
    import latred.cli
    if args:
        sys.stdin = io.StringIO(sys.argv[2])
        try:
            latred.cli.main(args, prog_name="latred")
        except SystemExit as exc:
            assert (exc.code or 0) == int(sys.argv[3]), exc.code
print(json.dumps([sorted(m for m in sys.modules if m.startswith("latred.")),
                  "numpy" in sys.modules, "click" in sys.modules,
                  "dataclasses" in sys.modules, "inspect" in sys.modules]))
"""
ALL_LAYERS = {"building", "cli", "covers", "errors", "filtration", "fq",
              "gflinalg", "jsonio", "latff", "latz", "logs", "matrices", "rings",
              "sarith"}


@pytest.mark.parametrize("args,stdin,unloaded,code", [
    (None, "", ALL_LAYERS, 0),
    ([], "", ALL_LAYERS - {"cli", "errors"}, 0),
    (["chamber-count", "--n", "3", "--r", "2", "--k", "1"], "",
     {"latz", "latff", "sarith", "covers", "filtration", "logs", "matrices"}, 0),
    (["apartment"], json.dumps({"m": [1, 0, 2]}),
     {"fq", "gflinalg", "matrices", "logs", "latz", "latff", "sarith"}, 0),
    (["triangulate"], json.dumps({"x": ["1/2", "1/3", "0"]}),
     {"fq", "gflinalg", "matrices", "logs", "latz", "latff", "sarith"}, 0),
    (["canfilt", "--ring", "z"], json.dumps(DIAG14),
     {"latff", "sarith", "building", "covers", "gflinalg", "fq"}, 0),
    (["cover-membership"], json.dumps({"side": "z", "x": DIAG14}),
     {"building", "fq", "gflinalg", "latff", "sarith"}, 0),
    (["ff-invariants"], json.dumps(VS_T2),
     {"latz", "sarith", "building", "covers", "logs"}, 0),
    (["factorize"], json.dumps(dict(FACTORIZE_Z, A=[["1", "1/6"], ["0", "1"]], mode="GL")),
     {"fq", "latz", "latff"}, 0),
    (["core-reps", "--n", "3", "--theta", "2"], "",
     {"latz", "latff", "sarith", "building", "matrices", "filtration", "gflinalg",
      "fq", "rings"}, 0),
    (["canfilt", "--ring", "z"], '{"n": 2, "gram"', ALL_LAYERS - {"cli", "errors", "jsonio"}, 2),
], ids=["import-latred", "import-latred.cli", "chamber-count", "apartment", "triangulate",
        "canfilt-z", "cover-membership-z", "ff-invariants", "factorize-z", "core-reps",
        "malformed-json"])
def test_import_set(args, stdin, unloaded, code):
    # each verb loads only the layers it calls, numpy (imported inside
    # latz.spd_distance) never, and click, dataclasses and inspect never;
    # module sets are checked, never times
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(args), stdin, str(code)],
                         env=env, check=True, capture_output=True, text=True).stdout
    modules, numpy_loaded, click_loaded, dataclasses_loaded, inspect_loaded = \
        json.loads(out.splitlines()[-1])
    loaded = {m.removeprefix("latred.") for m in modules}
    assert loaded.isdisjoint(unloaded), sorted(loaded & unloaded)
    assert not numpy_loaded
    assert not click_loaded
    assert not dataclasses_loaded
    assert not inspect_loaded


def test_spd_distance_loads_numpy_on_demand():
    from latred.latz import InnerProduct, spd_distance
    d = spd_distance(InnerProduct.identity(2), InnerProduct.diagonal([2, 3]))
    assert isinstance(d, float) and d > 0


# the names the package exports, by defining module: what importing every
# layer eagerly would bind
EAGER_EXPORTS = {
    "filtration": ["FiltrationReport", "GradedPoint", "c_value",
                   "canonical_filtration", "canonical_plot"],
    "latz": ["InnerProduct", "ZSummand", "canonical_filtration_z",
             "enumerate_summands", "gram_logvol", "gram_vol2", "instability_z",
             "spd_distance"],
    "latff": ["DiagonalBasisResult", "FFSummand", "VolumeSpace",
              "diagonal_basis", "ff_invariants_and_filtration", "ff_logvol",
              "instability_ff"],
    "logs": ["ExactLog"],
    "sarith": ["IntegralStructure", "LocalizedContext", "LocSummand",
               "factorize", "factorize_conjugated", "intersect_integral",
               "loc_c", "loc_logvol"],
    "building": ["BuildingContext", "SimplexDecomposition", "Vertex",
                 "apartment_coords", "canonical_vertex",
                 "count_chambers_on_edge", "edge_length", "edge_length_sq",
                 "label_difference", "neighbors", "triangulate_point"],
    "covers": ["CoverSystem", "SimplexPoint", "core_orbit_reps", "core_test",
               "cover_membership", "thinned_membership"],
    "rings": ["prime_part", "valuation"],
}
EAGER_SUBMODULES = ["building", "covers", "errors", "filtration", "fq",
                    "gflinalg", "latff", "latz", "logs", "matrices", "rings",
                    "sarith"]


def test_lazy_namespace_matches_the_eager_one():
    import importlib

    import latred
    names = [n for names in EAGER_EXPORTS.values() for n in names]
    assert latred.__all__ == sorted(names + EAGER_SUBMODULES)
    assert len(latred.__all__) == 60
    for module, exported in EAGER_EXPORTS.items():
        mod = importlib.import_module(f"latred.{module}")
        for name in exported:
            assert getattr(latred, name) is getattr(mod, name), name
    for module in EAGER_SUBMODULES:
        assert getattr(latred, module) is importlib.import_module(f"latred.{module}")
    assert set(latred.__all__) <= set(dir(latred))
    from latred import ExactLog, canonical_filtration_z  # noqa: F401
    with pytest.raises(AttributeError):
        latred.no_such_name
