"""End-to-end CLI behavior: output formats, exit codes, round trips."""

import json

import pytest

from planebranch import cli
from planebranch.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    doc = json.loads(out) if out.strip() else None
    return code, doc, err


def write_branch(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


QUARTIC = {
    "kind": "parametrization",
    "n": 4,
    "terms": [[7, "1"], [10, "1"], [12, "1"]],
}


class TestInvariants:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "invariants", "--fixture", "k61417-poly")
        assert code == 0
        assert "semigroup generators: [6, 14, 45]" in out
        assert "conductor: 68" in out

    def test_json_output(self, capsys, tmp_path):
        path = write_branch(tmp_path, "q.json", QUARTIC)
        code, doc, _ = run_json(capsys, "invariants", path)
        assert code == 0
        assert doc["results"]["char_exponents"] == [4, 7]
        assert doc["results"]["conductor"] == 18
        assert doc["precision_used"] == "exact"

    def test_cusp(self, capsys):
        code, doc, _ = run_json(capsys, "invariants", "--fixture", "k23-cusp")
        assert code == 0 and doc["results"]["conductor"] == 2

    def test_non_transversal_hint(self, capsys, tmp_path):
        path = write_branch(
            tmp_path,
            "bad.json",
            {"kind": "parametrization", "n": 4, "terms": [[3, "1"]]},
        )
        code, _, err = run(capsys, "invariants", path)
        assert code == 3
        assert "--swap-xy" in err

    def test_swap_xy_recovers(self, capsys, tmp_path):
        path = write_branch(
            tmp_path,
            "bad.json",
            {"kind": "parametrization", "n": 4, "terms": [[3, "1"]]},
        )
        code, doc, _ = run_json(capsys, "invariants", path, "--swap-xy")
        assert code == 0
        assert doc["results"]["char_exponents"] == [3, 4]


class TestZariski:
    def test_family_member(self, capsys, tmp_path):
        for b, expected_lambda, expected_coeff in (
            ("0", 13, "-17/14"),
            ("1", 13, "-3/14"),
        ):
            payload = {
                "kind": "parametrization",
                "n": 4,
                "terms": [[7, "1"], [10, "1"], [12, "1"], [13, b]],
            }
            path = write_branch(tmp_path, f"b{b.replace('/', '_')}.json", payload)
            code, doc, _ = run_json(capsys, "zariski", path)
            assert code == 0
            assert doc["results"]["invariant"] == expected_lambda
            assert doc["results"]["coefficient"] == expected_coeff

    def test_special_member_is_infinite(self, capsys):
        code, doc, _ = run_json(capsys, "zariski", "--fixture", "k47-special")
        assert code == 0
        assert doc["results"]["invariant"] == "infinite"
        assert doc["results"]["coefficient"] is None

    def test_cubic_branch(self, capsys):
        code, doc, _ = run_json(capsys, "zariski", "--fixture", "k37-branch")
        assert code == 0
        assert doc["results"]["invariant"] == 8

    def test_moves_are_reported(self, capsys):
        code, out, _ = run(capsys, "zariski", "--fixture", "k47-branch")
        assert code == 0
        assert "x -> x + (4/7)*y" in out


class TestPair:
    def test_intersect(self, capsys):
        code, doc, _ = run_json(
            capsys, "pair", "intersect",
            "--fixture", "k37-branch", "--fixture", "k61417-poly",
        )
        assert code == 0 and doc["results"]["intersection"] == 45

    def test_contact(self, capsys):
        code, doc, _ = run_json(
            capsys, "pair", "contact",
            "--fixture", "k47-branch", "--fixture", "k47-special",
        )
        assert code == 0 and doc["results"]["contact"] == "13/4"

    def test_contact_of_identical_branches_is_infinite(self, capsys):
        code, doc, _ = run_json(
            capsys, "pair", "contact",
            "--fixture", "k37-cusp", "--fixture", "k37-cusp",
        )
        assert code == 0 and doc["results"]["contact"] == "infinite"

    def test_infer_with_known_invariant(self, capsys):
        code, doc, _ = run_json(
            capsys, "pair", "infer",
            "--fixture", "k37-branch", "--fixture", "k61417-poly",
            "--known-lambda", "8",
        )
        assert code == 0 and doc["results"]["inferred_invariant"] == 16

    def test_infer_computes_the_invariant_when_not_given(self, capsys):
        code, doc, _ = run_json(
            capsys, "pair", "infer",
            "--fixture", "k37-branch", "--fixture", "k61417-poly",
        )
        assert code == 0 and doc["results"]["inferred_invariant"] == 16
        assert doc["checks"]["known_invariant"] == 8

    def test_infer_boundary_exits_with_hypothesis_code(self, capsys):
        # I(k37-branch, cusp) = 22 sits exactly on the excluded boundary
        code, _, err = run(
            capsys, "pair", "infer",
            "--fixture", "k37-branch", "--fixture", "k37-cusp",
            "--known-lambda", "8",
        )
        assert code == 5
        assert "does not exceed" in err


class TestExpand:
    def test_sextic_cusp_expansion(self, capsys):
        code, doc, _ = run_json(
            capsys, "expand",
            "--fixture", "k61417-poly", "--fixture", "k37-cusp",
        )
        assert code == 0
        assert doc["results"]["c"] == "9"
        assert doc["results"]["p"] == 10 and doc["results"]["q"] == 2
        assert doc["checks"]["intersection_f_h"] == 44

    def test_wrong_witness_rejected(self, capsys):
        code, _, err = run(
            capsys, "expand",
            "--fixture", "k61417-poly", "--fixture", "k37-branch",
        )
        assert code == 3 and "expected" in err


class TestConvert:
    def test_implicitize(self, capsys):
        code, doc, _ = run_json(
            capsys, "convert", "implicitize", "--fixture", "k37-deformed"
        )
        assert code == 0
        terms = {tuple(ij): c for ij, c in doc["results"]["branch"]["terms"]}
        assert terms == {
            (0, 3): "1", (3, 2): "-3", (6, 1): "3", (7, 0): "-1", (9, 0): "-1"
        }

    def test_puiseux(self, capsys):
        code, doc, _ = run_json(
            capsys, "convert", "puiseux", "--fixture", "k61417-poly"
        )
        assert code == 0
        assert doc["results"]["branch"]["terms"] == [[14, "1"], [16, "1"], [17, "1"]]

    def test_roundtrip_through_files(self, capsys, tmp_path):
        code, doc, _ = run_json(
            capsys, "convert", "implicitize", "--fixture", "k37-deformed"
        )
        assert code == 0
        path = write_branch(tmp_path, "poly.json", doc["results"]["branch"])
        code2, doc2, _ = run_json(capsys, "convert", "puiseux", path)
        assert code2 == 0
        assert doc2["results"]["branch"]["terms"] == [[7, "1"], [9, "1"]]
        # and the re-fed branch reproduces the original invariants
        code3, doc3, _ = run_json(capsys, "invariants", path)
        code4, doc4, _ = run_json(capsys, "invariants", "--fixture", "k37-deformed")
        assert code3 == code4 == 0
        assert doc3["results"] == doc4["results"]


class TestErrors:
    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "invariants", str(path))
        assert code == 2 and "error:" in err

    def test_missing_input_counts(self, capsys):
        code, _, err = run(capsys, "pair", "intersect", "--fixture", "k37-branch")
        assert code == 2

    def test_unknown_fixture(self, capsys):
        code, _, err = run(capsys, "invariants", "--fixture", "nope")
        assert code == 2 and "available" in err

    def test_precision_exhausted_exit_code(self, capsys, tmp_path):
        path = write_branch(
            tmp_path,
            "short.json",
            {
                "kind": "parametrization",
                "n": 4,
                "terms": [[7, "1"]],
                "trunc": 9,
            },
        )
        code, _, err = run(capsys, "zariski", path)
        assert code == 4

    def test_non_primitive_exit_code(self, capsys, tmp_path):
        path = write_branch(
            tmp_path,
            "np.json",
            {"kind": "parametrization", "n": 4, "terms": [[6, "1"], [10, "1"]]},
        )
        code, _, err = run(capsys, "invariants", path)
        assert code == 3

    def test_bad_rational_rejected(self, capsys, tmp_path):
        path = write_branch(
            tmp_path,
            "fl.json",
            {"kind": "parametrization", "n": 2, "terms": [[3, "1.5"]]},
        )
        code, _, err = run(capsys, "invariants", path)
        assert code == 2

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_precision_is_a_parse_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["invariants", "--fixture", "k61417-poly", "--precision", value])
        assert exc.value.code == 2
        assert "--precision" in capsys.readouterr().err

    def test_unexpected_exception_exits_internal(self, capsys, monkeypatch):
        def broken(session):
            raise ValueError("planted defect")

        monkeypatch.setattr(cli, "cmd_invariants", broken)
        code, out, err = run(capsys, "invariants", "--fixture", "k37-branch")
        assert code == cli.EXIT_INTERNAL == 6
        assert out == ""
        assert err == "error: internal: ValueError: planted defect\n"

    def test_decreasing_exponents_rejected(self, capsys, tmp_path):
        path = write_branch(
            tmp_path,
            "dec.json",
            {"kind": "parametrization", "n": 2, "terms": [[5, "1"], [3, "1"]]},
        )
        code, _, err = run(capsys, "invariants", path)
        assert code == 2


class TestJsonStability:
    def test_rerunning_gives_identical_documents(self, capsys):
        docs = []
        for _ in range(2):
            code, doc, _ = run_json(capsys, "zariski", "--fixture", "k47-branch")
            assert code == 0
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_rationals_are_strings_everywhere(self, capsys):
        code, doc, _ = run_json(capsys, "zariski", "--fixture", "k47-branch")
        assert code == 0

        def no_floats(node):
            if isinstance(node, float):
                raise AssertionError("float leaked into JSON output")
            if isinstance(node, dict):
                for v in node.values():
                    no_floats(v)
            if isinstance(node, list):
                for v in node:
                    no_floats(v)

        no_floats(doc)
