"""End-to-end CLI behavior: output formats, exit codes, round trips."""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from planebranch import cli
from planebranch.cli import main
from planebranch.fixtures import fixture_names


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    doc = json.loads(out) if out.strip() else None
    return code, doc, err


# waits, after its first line, until the parent has closed the read end of
# its standard output (signalled by closing its standard input)
CLOSED_READER = """
import sys
from planebranch.cli import main
print("ready", flush=True)
sys.stdin.read()
sys.exit(main(["zariski", "--fixture", "k47-special"]))
"""


def write_branch(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


QUARTIC = {
    "kind": "parametrization",
    "n": 4,
    "terms": [[7, "1"], [10, "1"], [12, "1"]],
}

# y^2 - x^3 - x^4: Newton-Puiseux works at truncation 6 by default
CUSP_POLY = {"kind": "polynomial", "terms": [[[0, 2], "1"], [[3, 0], "-1"], [[4, 0], "-1"]]}

# (t^2, t^3 + t^4), known below t^9
CUSP_PARAM = {"kind": "parametrization", "n": 2, "terms": [[3, "1"], [4, "1"]], "trunc": 9}


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

    def test_a_file_named_like_a_fixture_is_read_as_a_file(self, capsys, tmp_path, monkeypatch):
        # a path is a path, whatever its name: this file holds (t^3, t^7),
        # the built-in fixture k23-cusp is (t^2, t^3)
        monkeypatch.chdir(tmp_path)
        write_branch(
            tmp_path, "fixture:k23-cusp",
            {"kind": "parametrization", "n": 3, "terms": [[7, "1"]]},
        )
        code, out, _ = run(capsys, "invariants", "fixture:k23-cusp")
        assert code == 0 and "class: K(3, 7)" in out

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

    @pytest.mark.parametrize("value", ["-3", "0", "14"])
    def test_infer_rejects_a_known_lambda_outside_the_class(self, capsys, value):
        # K(4, 7) invariants exceed 7 and keep lambda + 4 out of <4, 7>;
        # 14 + 4 = 18 = 2*7 + 4 lies in it
        code, out, err = run(
            capsys, "pair", "infer",
            "--fixture", "k47-branch", "--fixture", "k47-special",
            "--known-lambda", value, "--json",
        )
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "not an invariant of K(4, 7)" in err

    @pytest.mark.parametrize(
        "command,fixtures,value,computed",
        [
            ("pair infer", ("k47-branch", "k47-special"), "9", "13"),
            ("pair infer", ("k47-special", "k47-branch"), "9", "infinite"),
            ("expand", ("k61417-poly", "k37-cusp"), "15", "16"),
        ],
        ids=["infer", "infer-infinite", "expand"],
    )
    def test_a_known_lambda_must_be_the_invariant(
        self, capsys, command, fixtures, value, computed
    ):
        # 9 and 15 are possible in K(4, 7) and K(6, 14, 17), but not the
        # invariant of these branches
        code, out, err = run(
            capsys, *command.split(),
            "--fixture", fixtures[0], "--fixture", fixtures[1],
            "--known-lambda", value,
        )
        assert code == 3 and out == ""
        assert err == (
            f"error: --known-lambda {value} differs from the computed invariant {computed}\n"
        )

    @pytest.mark.parametrize("sub", ["intersect", "contact"])
    def test_a_known_lambda_is_refused_outside_infer(self, capsys, sub):
        code, out, err = run(
            capsys, "pair", sub,
            "--fixture", "k37-branch", "--fixture", "k37-cusp",
            "--known-lambda", "99",
        )
        assert code == 2 and out == ""
        assert err == f"error: --known-lambda applies to pair infer only, not pair {sub}\n"

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

    def test_puiseux_with_a_coefficient_past_float_range(self, capsys, tmp_path):
        # y^2 - 10^400 x^3: the edge root 10^200 is an exact integer root
        path = write_branch(
            tmp_path,
            "huge.json",
            {"kind": "polynomial", "terms": [[[0, 2], "1"], [[3, 0], str(-10**400)]]},
        )
        code, doc, err = run_json(capsys, "convert", "puiseux", path)
        assert code == 0, err
        assert doc["results"]["branch"]["n"] == 2
        assert doc["results"]["branch"]["terms"] == [[3, str(10**200)]]
        assert "trunc" not in doc["results"]["branch"]

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

    def test_repeated_factor_exit_code(self, capsys, tmp_path):
        # (y^2 - x^3 - x^4)^2: a repeated factor is no branch, not a
        # precision problem
        path = write_branch(
            tmp_path,
            "square.json",
            {
                "kind": "polynomial",
                "terms": [
                    [[0, 4], "1"], [[3, 2], "-2"], [[4, 2], "-2"],
                    [[6, 0], "1"], [[7, 0], "2"], [[8, 0], "1"],
                ],
            },
        )
        code, _, err = run(capsys, "convert", "puiseux", path)
        assert code == 3 and "repeated factor" in err

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
        assert code == 6
        assert out == ""
        assert err == "error: internal: ValueError: planted defect\n"

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_is_not_a_defect(self, unbuffered):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-c", CLOSED_READER],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline() == b"ready\n"
        proc.stdout.close()
        proc.stdin.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == cli.EXIT_OK
        assert err == b""

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "parametrization", "n": True, "terms": [[7, "1"]]},
            {"kind": "parametrization", "n": 4, "terms": [[True, "1"], [7, "1"]]},
            {"kind": "polynomial", "terms": [[[0, 2], "1"], [[True, False], "-1"]]},
        ],
        ids=["n", "exponent", "monomial"],
    )
    def test_boolean_integers_are_a_parse_error(self, capsys, tmp_path, payload):
        code, _, err = run(capsys, "invariants", write_branch(tmp_path, "b.json", payload))
        assert code == 2 and "error:" in err

    def test_a_truncated_polynomial_is_a_parse_error(self, capsys, tmp_path):
        payload = {"kind": "polynomial", "terms": [[[0, 2], "1"], [[3, 0], "-1"]], "trunc": 5}
        path = write_branch(tmp_path, "poly.json", payload)
        code, out, err = run(capsys, "convert", "puiseux", path)
        assert code == 2 and out == ""
        assert err == "error: unknown key(s) 'trunc' in a polynomial description\n"

    def test_decreasing_exponents_rejected(self, capsys, tmp_path):
        path = write_branch(
            tmp_path,
            "dec.json",
            {"kind": "parametrization", "n": 2, "terms": [[5, "1"], [3, "1"]]},
        )
        code, _, err = run(capsys, "invariants", path)
        assert code == 2


class TestPrecisionUsed:
    """`precision_used` is the largest finite truncation a command noted."""

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (("convert", "puiseux", "p.json"), 6),
            (("convert", "puiseux", "p.json", "--precision", "20"), 20),
            (("invariants", "p.json"), 6),
            # the larger of the file's 9 and Newton-Puiseux's 6 on p
            (("pair", "contact", "c.json", "p.json"), 9),
            (("pair", "contact", "c.json", "p.json", "--precision", "7"), 9),
            # the file's 9 counts in either argument order, with or without
            # Newton-Puiseux on p
            (("pair", "intersect", "c.json", "p.json"), 9),
            (("pair", "intersect", "p.json", "c.json"), 9),
            (("pair", "contact", "p.json", "c.json"), 9),
        ],
        ids=[
            "puiseux", "puiseux-precision", "invariants", "contact", "contact-precision",
            "intersect", "intersect-swapped", "contact-swapped",
        ],
    )
    def test_the_largest_truncation_is_reported(
        self, capsys, tmp_path, monkeypatch, argv, expected
    ):
        monkeypatch.chdir(tmp_path)
        write_branch(tmp_path, "p.json", CUSP_POLY)
        write_branch(tmp_path, "c.json", CUSP_PARAM)
        code, doc, err = run_json(capsys, *argv)
        assert code == 0, err
        assert doc["precision_used"] == expected


class TestArgumentOrder:
    """A branch file may follow an option; a leftover option is refused."""

    @pytest.mark.parametrize(
        "before,after",
        [
            (("pair", "intersect", "p.json", "--fixture", "k37-cusp"),
             ("pair", "intersect", "--fixture", "k37-cusp", "p.json")),
            (("convert", "puiseux", "p.json", "--json"),
             ("convert", "puiseux", "--json", "p.json")),
        ],
        ids=["pair-intersect", "convert-puiseux-json"],
    )
    def test_a_branch_file_after_an_option(self, capsys, tmp_path, monkeypatch, before, after):
        monkeypatch.chdir(tmp_path)
        write_branch(tmp_path, "p.json", CUSP_POLY)
        outputs = [run(capsys, *argv) for argv in (before, after)]
        assert outputs[0][0] == 0, outputs[0][2]
        assert outputs[1] == outputs[0]

    def test_a_leftover_option_still_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(["invariants", "--fixture", "k23-cusp", "--bogus"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "usage: planebranch [-h] {invariants,zariski,pair,expand,convert} ...\n"
            "planebranch: error: unrecognized arguments: --bogus\n"
        )


class TestHelp:
    @pytest.mark.parametrize("command", ["invariants", "zariski", "pair", "expand", "convert"])
    def test_known_lambda_is_offered_by_pair_and_expand_only(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert ("--known-lambda" in capsys.readouterr().out) == (command in ("pair", "expand"))

    def test_zariski_refuses_a_known_lambda(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["zariski", "--known-lambda", "8"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --known-lambda" in capsys.readouterr().err

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


# the commands and the number of branch inputs each reads
CENSUS_COMMANDS = (
    (["invariants"], 1), (["zariski"], 1), (["pair", "intersect"], 2), (["pair", "contact"], 2),
    (["pair", "infer"], 2), (["expand"], 2), (["convert", "implicitize"], 1),
    (["convert", "puiseux"], 1),
)

CENSUS_OPTIONS = (
    ["--json"], ["--swap-xy"], ["--precision", "0"], ["--precision", "30"],
    ["--precision", "x"], ["--known-lambda", "8"], ["--known-lambda", "x"], ["--frobnicate"],
)

# (y^2 - x^3)^2, a repeated factor
SQUARE_POLY = {"kind": "polynomial", "terms": [[[0, 4], "1"], [[3, 2], "-2"], [[6, 0], "1"]]}


def test_exit_code_census(capsys, tmp_path):
    """Seeded command lines over every subcommand, input kind and option,
    with the right number of inputs in most draws: each call exits with a
    documented code, and none ends in a traceback or an internal error."""
    docs = {
        "good": QUARTIC, "truncated": CUSP_PARAM, "polynomial": CUSP_POLY, "square": SQUARE_POLY,
        "non-transversal": {"kind": "parametrization", "n": 4, "terms": [[3, "1"]]},
    }
    inputs = [[write_branch(tmp_path, f"{name}.json", doc)] for name, doc in docs.items()]
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"kind": "parametrization", "n": 4', encoding="utf-8")
    inputs += [[str(malformed)], [str(tmp_path / "missing.json")]]
    inputs += [["--fixture", name] for name in fixture_names()]
    rng = random.Random(0)
    codes = Counter()
    for _ in range(150):
        command, count = rng.choice(CENSUS_COMMANDS)
        if rng.random() < 0.2:
            count = rng.randint(0, 3)
        argv = list(command)
        for _ in range(count):
            argv += rng.choice(inputs)
        for option in rng.sample(CENSUS_OPTIONS, rng.choice((0, 0, 0, 1, 1, 2))):
            argv += option
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code in {0, 2, 3, 4, 5, 6}, (argv, code, err)
        assert "Traceback" not in err and "error: internal" not in err, (argv, err)
        codes[code] += 1
    # past argument parsing: results, refusals and unmet hypotheses
    assert {0, 3, 5} <= set(codes), codes
