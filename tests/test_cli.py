import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from heckeaf import cli, hecke
from heckeaf.errors import (
    DegenerateSpectrum,
    HeckeafError,
    NotEndomorphism,
    ReducibleCharPoly,
    SchemaError,
)
from heckeaf.exactnum import IntPolynomial

LEVEL47A = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "level47a.json"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_poly():
    assert cli.parse_poly("x^2-2") == IntPolynomial((-2, 0, 1))
    assert cli.parse_poly("x^3 - x - 1") == IntPolynomial((-1, -1, 0, 1))
    assert cli.parse_poly("x^2+x-1") == IntPolynomial((-1, 1, 1))
    assert cli.parse_poly("2x^2+3") == IntPolynomial((3, 0, 2))
    assert cli.parse_poly("-x+5") == IntPolynomial((5, -1))
    assert cli.parse_poly("2*x^3 - 7") == IntPolynomial((-7, 0, 0, 2))
    with pytest.raises(cli.InputError):
        cli.parse_poly("x^2 + spam")


@pytest.mark.parametrize("text", ["+", "-", "x^2-2-", "--x", "x^2+-1", "\u0663x", "x^\u0663",
                                  "2*", "*x", "x^", "x^2\n",
                                  pytest.param("1" * 5000 + "x", id="5000-digit-coefficient")])
def test_parse_poly_rejects_malformed_text(text):
    with pytest.raises(cli.InputError):
        cli.parse_poly(text)


@pytest.mark.parametrize("poly", ["x^100000000", "0x^40000", "x^2+x^1001"])
def test_exponent_above_the_degree_bound_is_an_input_error(capsys, poly):
    """The exponent is bounded before any dense coefficient tuple is built:
    x^100000000 would need 10^8 entries, and 0x^40000 took seconds when
    the trailing zeros were trimmed one slice at a time."""
    started = time.perf_counter()
    with pytest.raises(cli.InputError, match="degree bound"):
        cli.parse_poly(poly)
    code, _, err = run(capsys, "cf", f"--poly={poly}")
    assert code == 2
    assert "input error" in err
    assert time.perf_counter() - started < 1


def test_parse_poly_accepts_the_degree_bound():
    assert cli.parse_poly(f"x^{cli._MAX_DEGREE}+1").degree == cli._MAX_DEGREE
    assert cli.parse_poly(f"0x^{cli._MAX_DEGREE}+1") == IntPolynomial((1,))


@pytest.mark.parametrize("poly", ["+", "-", "x^2-2-", "--x", "\u0663x"])
def test_cf_malformed_poly_is_an_input_error(capsys, poly):
    code, _, err = run(capsys, "cf", f"--poly={poly}")
    assert code == 2
    assert "input error" in err


# short: an exponent of k digits builds a polynomial of up to 10^k terms
@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="x^0123456789+-* \u0663\u00b2\t", max_size=7) | st.text(max_size=4))
def test_parse_poly_gives_a_polynomial_or_an_input_error(text):
    try:
        assert isinstance(cli.parse_poly(text), IntPolynomial)
    except cli.InputError:
        pass


def test_cf_rational(capsys):
    code, out, _ = run(capsys, "cf", "355/113")
    assert code == 0
    assert "[3, 7, 16] (terminating)" in out
    assert "355/113" in out  # last convergent is the number itself


def test_cf_surd(capsys):
    code, out, _ = run(capsys, "cf", "--poly", "x^2-2", "--root", "1")
    assert code == 0
    assert "preperiod [1], period [2]" in out

    code, out, _ = run(capsys, "cf", "--poly", "x^2-x-1", "--root", "1")
    assert code == 0
    assert "preperiod [], period [1]" in out


def test_cf_domain_and_input_errors(capsys):
    code, _, err = run(capsys, "cf", "0/1")
    assert code == 3
    code, _, err = run(capsys, "cf", "not-a-number")
    assert code == 2
    code, _, err = run(capsys, "cf", "--poly", "x^2-2", "--root", "7")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (("cf", "--poly", "x^2+1"), "x^2+1 has no real roots"),
    (("jpa", "--poly", "x^2+1", "--theta", "0,1"), "x^2+1 has no real roots"),
    (("cf", "--poly", "x^2-2", "--root", "0"), "the chosen root is not positive"),
    (("jpa", "--poly", "x^2-2", "--theta", "0,1;-3/2,0", "--root", "1"),
     "coordinate -3/2,0 is not positive at the embedding"),
    (("jpa", "--poly", "x^2-2", "--theta", "0,0", "--root", "1"),
     "coordinate 0,0 is not positive at the embedding"),
])
def test_cf_and_jpa_domain_errors_name_their_input(capsys, argv, message):
    """The cf and jpa domain errors exit 3 with the input they refuse:
    a polynomial with no real root, a negative root, and a coordinate that
    is not positive at the embedding, printed in the input grammar."""
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert message in err
    assert "FieldElement" not in err


def test_jpa_root_out_of_range_is_an_input_error(capsys):
    code, out, err = run(capsys, "jpa", "--poly", "x^2-2", "--theta", "0,1", "--root", "2")
    assert code == 2
    assert out == ""
    assert "--root 2 out of range" in err


def test_cf_constant_term_past_the_divisor_budget_exits_within_a_second(capsys):
    """The rational-root search of x^2 - (10^20 + 39) would trial-divide up
    to 10^10; past the budget it is undecided at once, naming |c0|."""
    started = time.perf_counter()
    code, _, err = run(capsys, "cf", "--poly", "x^2-100000000000000000039")
    assert time.perf_counter() - started < 1
    assert code == 3
    assert "|c0| = 100000000000000000039" in err


@pytest.mark.parametrize("argv", [
    ("cf", "1e300000"),
    ("jpa", "--poly", "x^2-2", "--theta", "1e5000,1"),
    ("cf", "1" * 5000),
    ("jpa", "--poly", "x^2-2", "--theta", "0," + "1" * 5000),
] + [("cf", text) for text in ("1.5", " 7/3 ", "+3", "3e2", "7/0", "1_000")]
  + [("jpa", "--poly", "x^2-2", "--theta", text) for text in ("1.5,1", "0, 1", "+1,1", "1,2e1")])
def test_command_line_rationals_take_the_fixture_grammar(capsys, argv):
    """cf and jpa --theta read rationals by the fixture coordinate grammar
    -?[0-9]+(/[0-9]+)?: an exponent is refused before any integer is
    built, and a digit run past int()'s limit is an input error too."""
    started = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - started < 0.5
    assert code == 2
    assert "input error: cannot parse rational" in err and out == ""


def test_command_line_rationals_in_the_grammar(capsys):
    code, out, _ = run(capsys, "cf", "0/5")
    assert code == 3
    code, out, _ = run(capsys, "cf", "710/226")
    assert code == 0 and "[3, 7, 16] (terminating)" in out
    code, out, _ = run(capsys, "jpa", "--poly", "x^2-x-1", "--theta", "0/3,2/2", "--root", "1")
    assert code == 0 and "preperiod [], period [1]" in out


@pytest.mark.parametrize("argv", [
    ("cf", "--poly", "x^2-2", "--root", "1"),
    ("cf", "355/113"),
    ("jpa", "--poly", "x^2-x-1", "--theta", "0,1", "--root", "1"),
])
def test_negative_step_budget_is_an_input_error(monkeypatch, capsys, argv):
    """A negative --max-steps is refused before any field is built; a
    budget of 0 still runs and reports an empty expansion."""
    def no_field(poly):
        raise AssertionError("a field was built")

    monkeypatch.setattr(cli, "make_field", no_field)
    code, out, err = run(capsys, *argv, "--max-steps", "-1")
    assert code == 2
    assert "input error: --max-steps" in err and out == ""
    monkeypatch.undo()
    code, out, _ = run(capsys, *argv, "--max-steps", "0")
    assert code == 0
    assert "within 0 steps" in out


def test_jpa_golden(capsys):
    code, out, _ = run(capsys, "jpa", "--poly", "x^2-x-1", "--theta", "0,1", "--root", "1")
    assert code == 0
    assert "period [1]" in out


def test_jpa_budget_exhaustion_is_ok(capsys):
    code, out, _ = run(
        capsys, "jpa", "--poly", "x^4-x^3-5x^2+5x-1",
        "--theta", "0,1,0,0;0,0,1,0;0,0,0,1", "--root", "3", "--max-steps", "20",
    )
    assert code == 0
    assert "no period detected within 20 steps" in out


def test_jpa_export(tmp_path, capsys):
    out_json = tmp_path / "diagram.json"
    code, out, _ = run(
        capsys, "jpa", "--poly", "x^2-x-1", "--theta", "0,1", "--root", "1",
        "--export", "json", str(out_json),
    )
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert payload["type"] == "stationary"
    assert payload["period_matrix"] == [["0", "1"], ["1", "1"]]

    out_dot = tmp_path / "diagram.dot"
    code, out, _ = run(
        capsys, "jpa", "--poly", "x^2-x-1", "--theta", "0,1", "--root", "1",
        "--export", "dot", str(out_dot),
    )
    assert code == 0
    assert out_dot.read_text().startswith("digraph")


def test_jpa_unknown_export_format_is_rejected_before_expanding(tmp_path, capsys):
    """An export format that is neither dot nor json is an input error
    before any step: nothing is printed and no file is written."""
    out_png = tmp_path / "out.png"
    code, out, err = run(
        capsys, "jpa", "--poly", "x^3-x-1", "--theta", "0,1,0;0,0,1", "--max-steps", "50",
        "--export", "png", str(out_png),
    )
    assert code == 2
    assert out == ""
    assert "unknown export format 'png'" in err
    assert not out_png.exists()


def test_factor_command(capsys):
    code, out, _ = run(capsys, "factor", "[[0,1],[1,1]]")
    assert code == 0 and out.strip() == "[1]"
    code, out, _ = run(capsys, "factor", "[[2,5],[5,12]]")
    assert code == 0 and out.strip() == "[2, 2, 2]"
    code, _, err = run(capsys, "factor", "[[1,0],[0,1]]")
    assert code == 3
    code, _, err = run(capsys, "factor", "[[1,2],[1,1,3]]")
    assert code == 2
    code, _, err = run(capsys, "factor", "nonexistent_file.json")
    assert code == 2


def test_factor_stall_prints_partial(capsys):
    code, out, err = run(capsys, "factor", "[[0,1,0],[1,0,0],[0,0,1]]")
    assert code == 3
    assert "stalled" in err
    assert "partial" in err


# int()'s digit limit is set per process (PYTHONINTMAXSTRDIGITS, -X
# int_max_str_digits); 0 turns it off, and then nothing bounds a digit run
_DIGIT_LIMIT = sys.get_int_max_str_digits()
_PAST_DIGIT_LIMIT = pytest.mark.skipif(_DIGIT_LIMIT == 0, reason="int() digit limit is off")


@pytest.mark.parametrize("matrix", ["[[true, 1], [1, 2]]", "[[1.5, 1], [1, 1]]",
                                    '[["2.0", 1], [1, 1]]', '[["2_0", 1], [1, 1]]',
                                    '[["two", 1], [1, 1]]', '["12"]',
                                    pytest.param('[["' + "1" * (_DIGIT_LIMIT + 1) + '", 1], [1, 1]]',
                                                 marks=_PAST_DIGIT_LIMIT, id="string-past-digit-limit"),
                                    pytest.param("[[" + "1" * (_DIGIT_LIMIT + 1) + ", 1], [1, 1]]",
                                                 marks=_PAST_DIGIT_LIMIT, id="integer-past-digit-limit")])
def test_factor_rejects_non_integer_entries(capsys, matrix):
    code, out, err = run(capsys, "factor", matrix)
    assert code == 2
    assert out == ""
    assert "input error" in err


def test_factor_accepts_integer_strings(capsys):
    # arbitrary precision survives JSON when entries are strings
    code, out, _ = run(capsys, "factor", '[["2","5"],["5","12"]]')
    assert code == 0 and out.strip() == "[2, 2, 2]"
    # a string entry reads as the integer it holds: [[2, 1], [1, 1]]
    # factors as B(0) B(1) B(1) B(0)
    code, out, _ = run(capsys, "factor", '[["2", 1], [1, 1]]')
    assert code == 0 and out.strip() == "[0, 1, 1, 0]"
    code, same, _ = run(capsys, "factor", "[[2, 1], [1, 1]]")
    assert code == 0 and same == out


def test_af_trivial(capsys):
    code, out, err = run(capsys, "af", "level11a")
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "trivial"
    assert payload["label"] == "11a"
    assert "11a: trivial" in err


def test_af_stationary_with_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, err = run(capsys, "af", "level23a", "--conjugates", "--report", str(path))
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["type"] == "stationary"
    assert payload["char_poly"] == ["-1", "-1", "1"]
    assert payload["companion"]["all_equal"] is True
    assert payload["nonneg"]["matrix"] == [["0", "1"], ["1", "1"]]
    for entry in payload["companion"]["pairwise_verdicts"]:
        assert entry["verdict"] != "distinct_char_poly"


def test_af_reports_validate_against_schema(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    from importlib import resources

    schema = json.loads(
        resources.files("heckeaf.schemas").joinpath("run_report.schema.json").read_text()
    )
    for fixture in ("level11a", "level23a", "level71a"):
        path = tmp_path / f"{fixture}.json"
        code, _, _ = run(capsys, "af", fixture, "--conjugates", "--report", str(path))
        assert code == 0
        jsonschema.validate(json.loads(path.read_text()), schema)


@pytest.mark.parametrize("error", [DegenerateSpectrum, ReducibleCharPoly, NotEndomorphism])
def test_af_domain_error_writes_report(tmp_path, capsys, monkeypatch, error):
    jsonschema = pytest.importorskip("jsonschema")
    from importlib import resources

    schema = json.loads(
        resources.files("heckeaf.schemas").joinpath("run_report.schema.json").read_text()
    )

    def fail(f):
        raise error("injected")

    monkeypatch.setattr(cli, "af_of_eigenform", fail)
    path = tmp_path / "report.json"
    code, _, err = run(capsys, "af", "level23a", "--report", str(path))
    assert code == 3
    assert "injected" in err
    payload = json.loads(path.read_text())
    assert payload["error"] == {"stage": error.__name__, "message": "injected"}
    jsonschema.validate(payload, schema)


def test_af_spent_unit_budget_writes_a_unit_stage_report(tmp_path, capsys, monkeypatch):
    """level47a's expansion does not cycle, so its unit comes from the
    enumeration: with no budget, the run ends at the unit stage, exit 4,
    and the report names the stage and the search's counters."""
    jsonschema = pytest.importorskip("jsonschema")
    from importlib import resources

    from heckeaf.exactnum import units

    schema = json.loads(
        resources.files("heckeaf.schemas").joinpath("run_report.schema.json").read_text()
    )
    monkeypatch.setattr(units, "_MAX_CANDIDATES", 0)
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, "af", str(LEVEL47A), "--report", str(path))
    assert code == 4
    payload = json.loads(path.read_text())
    assert payload["error"] == {
        "stage": "UnitNotFound",
        "message": "no unit dominant at the embedding among 0 candidates, "
                   "every coordinate vector of max-norm <= 0",
    }
    jsonschema.validate(payload, schema)


def test_bundled_fixtures_validate_against_schema():
    jsonschema = pytest.importorskip("jsonschema")
    from importlib import resources

    schema = json.loads(
        resources.files("heckeaf.schemas").joinpath("newform_fixture.schema.json").read_text()
    )
    for name in ("level11a", "level23a", "level71a", "level71b"):
        data = json.loads(
            resources.files("heckeaf.fixtures").joinpath(f"{name}.json").read_text()
        )
        jsonschema.validate(data, schema)


def test_af_corrupted_fixture(tmp_path, capsys):
    from importlib import resources

    data = json.loads(
        resources.files("heckeaf.fixtures").joinpath("level23a.json").read_text()
    )
    data["an"][5] = ["1", "1"]
    bad_path = tmp_path / "corrupt.json"
    bad_path.write_text(json.dumps(data))
    report_path = tmp_path / "report.json"
    code, out, err = run(capsys, "af", str(bad_path), "--report", str(report_path))
    assert code == 2
    payload = json.loads(report_path.read_text())
    assert payload["error"]["stage"] == "HeckeRelationViolated"


def _level23a():
    from importlib import resources

    return json.loads(resources.files("heckeaf.fixtures").joinpath("level23a.json").read_text())


def _set_an(value):
    def mutate(data):
        data["an"] = value
    return mutate


def _set_coefficient(value):
    def mutate(data):
        data["an"][3][0] = value
    return mutate


def _set_module_entry(value):
    def mutate(data):
        data["module"] = [[value, "0"], ["0", "1"]]
    return mutate


@pytest.mark.parametrize("mutate", [_set_an(5), _set_coefficient("abc"),
                                    _set_module_entry("x"), _set_coefficient("1/0")])
def test_af_malformed_fixture_is_rejected_with_a_report(tmp_path, capsys, mutate):
    data = _level23a()
    mutate(data)
    bad_path = tmp_path / "malformed.json"
    bad_path.write_text(json.dumps(data))
    report_path = tmp_path / "report.json"
    code, _, err = run(capsys, "af", str(bad_path), "--report", str(report_path))
    assert code == 2
    assert "fixture rejected" in err
    assert json.loads(report_path.read_text())["error"]["stage"] == "SchemaError"


# one digit past the loader's own bound, as a string and as a JSON integer
_PAST_DIGIT_BOUND = ['"' + "1" * (hecke.MAX_DIGITS + 1) + '"', "1" * (hecke.MAX_DIGITS + 1)]


def _oversized_fixture(tmp_path, token):
    """level23a with c(151)'s first coordinate written as the JSON token."""
    data = _level23a()
    data["an"][150][0] = "PLACEHOLDER"
    path = tmp_path / "oversized.json"
    path.write_text(json.dumps(data).replace('"PLACEHOLDER"', token))
    return path


@pytest.mark.parametrize("token", [
    '"1e100000000"',  # Fraction would build a 100-million-digit integer
    *_PAST_DIGIT_BOUND,
])
def test_af_oversized_coordinate_is_rejected_at_once(tmp_path, capsys, token):
    """c(151) of level23a enters no Hecke relation checked on load, so only
    the coordinate grammar and the loader's digit bound stand between such
    a coordinate and the pipeline."""
    bad_path = _oversized_fixture(tmp_path, token)
    report_path = tmp_path / "report.json"
    started = time.perf_counter()
    code, _, err = run(capsys, "af", str(bad_path), "--report", str(report_path))
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert "fixture rejected" in err
    assert json.loads(report_path.read_text())["error"]["stage"] == "SchemaError"


@pytest.mark.parametrize("token", _PAST_DIGIT_BOUND)
def test_af_oversized_coordinate_is_rejected_with_int_digit_limit_off(tmp_path, token):
    """With int()'s process-wide digit limit off, the loader's own bound
    still rejects a coordinate one digit past it, at once."""
    bad_path = _oversized_fixture(tmp_path, token)
    report_path = tmp_path / "report.json"
    src = str(Path(hecke.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=0", "-m", "heckeaf.cli",
         "af", str(bad_path), "--report", str(report_path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert time.perf_counter() - started < 10.0
    assert done.returncode == 2, done.stderr
    assert "fixture rejected" in done.stderr
    assert json.loads(report_path.read_text())["error"]["stage"] == "SchemaError"


def test_af_equal_spellings_give_the_same_report(tmp_path, capsys):
    """level23a spelled with unreduced fractions and JSON integers loads the
    same coefficients and gives the same af report apart from timings."""
    data = _level23a()
    spelled = {"2": "4/2", "-2": "-6/3", "0": "0/7"}
    respelled = dict(data, an=[[spelled.get(x, int(x)) for x in row] for row in data["an"]])
    assert {"4/2", "-6/3", "0/7"} <= {x for row in respelled["an"] for x in row}
    original = hecke.load_newform(json.dumps(data))
    variant = hecke.load_newform(json.dumps(respelled))
    assert [(c.num, c.den) for c in variant.coeffs] == [(c.num, c.den) for c in original.coeffs]
    texts = []
    for name, fixture in (("original", data), ("respelled", respelled)):
        source = tmp_path / f"{name}.json"
        source.write_text(json.dumps(fixture))
        target = tmp_path / f"{name}_report.json"
        code, _, _ = run(capsys, "af", str(source), "--report", str(target))
        assert code == 0
        report = json.loads(target.read_text())
        del report["timings"]
        texts.append(cli.report_json(report))
    assert texts[0] == texts[1]


_COORDINATE_TEXT = st.text(alphabet="0123456789-/ +_.e\n٣１", max_size=8) | st.from_regex(
    r"-?[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True
) | st.sampled_from(["1/0", "1/00", "-3/000", "3\n", "1/0\n", "1/01", "-0", "0/7"])


@settings(max_examples=300, deadline=None)
@given(_COORDINATE_TEXT)
@example("-" + "9" * hecke.MAX_DIGITS)
@example("9" * (hecke.MAX_DIGITS + 1))
@example("1/" + "0" * (hecke.MAX_DIGITS - 1) + "7")
@example("1/" + "0" * hecke.MAX_DIGITS)
@example("1/" + "7" * (hecke.MAX_DIGITS + 1))
def test_schema_and_loader_agree_on_coordinate_strings(s):
    """The loader accepts an `an` or `module` coordinate string exactly when
    the fixture schema does, past the digit bound too: the pattern ends in
    (?![\\s\\S]), not $, which
    under python-jsonschema's re.search also matches before a final
    newline, and its denominator has a non-zero digit."""
    jsonschema = pytest.importorskip("jsonschema")
    from importlib import resources

    schema = json.loads(
        resources.files("heckeaf.schemas").joinpath("newform_fixture.schema.json").read_text()
    )
    try:
        hecke._parse_rational(s)
        loaded = True
    except SchemaError:
        loaded = False
    for key in ("an", "module"):
        item = jsonschema.Draft7Validator(schema["properties"][key]["items"]["items"])
        assert item.is_valid(s) == loaded


def test_af_module_row_longer_than_the_degree_is_rejected(tmp_path, capsys):
    """A module row with more coordinates than the field degree is a schema
    error (exit 2, rejection report), not a ValueError from the field."""
    from importlib import resources

    data = json.loads(resources.files("heckeaf.fixtures").joinpath("level71a.json").read_text())
    data["module"] = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"]]
    bad_path = tmp_path / "long_rows.json"
    bad_path.write_text(json.dumps(data))
    report_path = tmp_path / "report.json"
    code, _, err = run(capsys, "af", str(bad_path), "--report", str(report_path))
    assert code == 2
    assert "module row 1 has 4 coordinates" in err
    assert json.loads(report_path.read_text())["error"]["stage"] == "SchemaError"


def _level11a():
    from importlib import resources

    return json.loads(resources.files("heckeaf.fixtures").joinpath("level11a.json").read_text())


@pytest.mark.parametrize("field_poly, module, stage", [
    ([], None, "ReduciblePolynomial"),  # constant
    ([1, 2], None, "NotMonic"),
    ([-1, 0, 1], None, "ReduciblePolynomial"),
    ([1, 2, 1], None, "NotSquarefree"),
    ([1, 0, 1], [["1", "0"], ["0", "1"]], "NotTotallyReal"),  # x^2 + 1: no real root
])
def test_af_bad_coefficient_field_writes_a_report(tmp_path, capsys, field_poly, module, stage):
    """level11a's rational coefficients over a field that load_newform or
    the pipeline rejects: exit 3 with a report naming the error."""
    jsonschema = pytest.importorskip("jsonschema")
    from importlib import resources

    schema = json.loads(
        resources.files("heckeaf.schemas").joinpath("run_report.schema.json").read_text()
    )
    data = _level11a()
    data["field_poly"] = field_poly
    if module is not None:
        data["module"] = module
    bad_path = tmp_path / "field.json"
    bad_path.write_text(json.dumps(data))
    report_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "af", str(bad_path), "--report", str(report_path))
    assert code == 3
    payload = json.loads(report_path.read_text())
    assert payload["error"]["stage"] == stage
    jsonschema.validate(payload, schema)


# short strings over this alphabet keep Fraction's exponents small
_NUMERIC_TEXT = st.text(alphabet="0123456789/-.xe ", max_size=5)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.floats(-10, 10) | _NUMERIC_TEXT,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8,
)
_BAD_RATIONALS = (st.sampled_from(["abc", "x", "1/0", "", "1//2", "nan", "inf"])
                  | _NUMERIC_TEXT | st.booleans() | st.floats(allow_nan=True) | st.none()
                  | st.lists(st.integers()))
_KEYS = ("label", "level", "weight", "field_poly", "an", "module", "embedding_index")


@st.composite
def _mutated_level23a(draw):
    data = _level23a()
    kind = draw(st.sampled_from(("replace", "delete", "coefficient", "module")))
    if kind == "replace":
        data[draw(st.sampled_from(_KEYS))] = draw(_JSON_VALUES)
    elif kind == "delete":
        data.pop(draw(st.sampled_from(_KEYS)), None)
    elif kind == "coefficient":
        row = data["an"][draw(st.integers(0, len(data["an"]) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(_BAD_RATIONALS)
    else:
        _set_module_entry(draw(_BAD_RATIONALS))(data)
    return data


@settings(max_examples=150, deadline=None)
@given(_mutated_level23a())
def test_load_newform_raises_only_heckeaf_errors(data):
    try:
        hecke.load_newform(json.dumps(data))
    except HeckeafError:
        pass


def test_af_short_fixture_writes_the_full_report(tmp_path, capsys):
    """The schema and load_newform accept 20 coefficients, and af checks
    the Hecke relations on load only: a 100-coefficient table runs the
    pipeline and gives the full table's report apart from its count."""
    from importlib import resources

    data = json.loads(
        resources.files("heckeaf.fixtures").joinpath("level23a.json").read_text()
    )
    reports = []
    for count in (len(data["an"]), 100):
        source = tmp_path / f"level23a_{count}.json"
        source.write_text(json.dumps(dict(data, an=data["an"][:count])))
        target = tmp_path / f"report_{count}.json"
        code, _, _ = run(capsys, "af", str(source), "--report", str(target))
        assert code == 0
        report = json.loads(target.read_text())
        assert report["coefficient_count"] == count
        for key in ("coefficient_count", "timings"):
            del report[key]
        reports.append(report)
    assert reports[0] == reports[1]


def test_af_unknown_fixture(capsys):
    code, _, err = run(capsys, "af", "level9999z")
    assert code == 2


def _latin1_fixture(tmp):
    path = tmp / "latin1.json"
    path.write_bytes(b'{"label": "\xe9"}')
    return path


@pytest.mark.parametrize("make, stage", [
    (lambda tmp: tmp / "missing.json", "InputError"),
    (lambda tmp: tmp, "IsADirectoryError"),
    (_latin1_fixture, "SchemaError"),
])
def test_af_fixture_that_cannot_be_read_writes_a_rejection_report(tmp_path, capsys, make, stage):
    """A missing path, a directory and bytes that are not UTF-8 are input
    errors like a malformed fixture: exit 2 and a report naming the error's
    class, the fixture and the message."""
    path = make(tmp_path)
    report_path = tmp_path / "report.json"
    code, _, err = run(capsys, "af", str(path), "--report", str(report_path))
    assert code == 2
    assert "fixture rejected" in err
    report = json.loads(report_path.read_text())
    assert report["error"]["stage"] == stage
    assert report["error"]["message"]
    assert report["fixture"] == str(path)


def test_report_determinism(tmp_path, capsys):
    paths = []
    for i in range(2):
        p = tmp_path / f"r{i}.json"
        code, _, _ = run(capsys, "af", "level23a", "--conjugates", "--report", str(p))
        assert code == 0
        paths.append(p)
    docs = []
    for p in paths:
        d = json.loads(p.read_text())
        d.pop("timings", None)
        docs.append(json.dumps(d, sort_keys=True))
    assert docs[0] == docs[1]


def test_version_flag(capsys):
    code = cli.main(["--version"])
    assert code == 0


def test_main_builds_its_parser_at_the_first_call_only(monkeypatch, capsys):
    """cli.main builds the argument parser (and its four subparsers) during
    its first call in a process; later calls reuse it and construct no
    ArgumentParser."""
    import argparse

    cli.build_parser.cache_clear()
    built = [0]
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    per_call = []
    for argv in (["cf", "355/113"], ["--version"], ["af", "level11a"]):
        before = built[0]
        assert cli.main(argv) == 0
        per_call.append(built[0] - before)
    capsys.readouterr()
    assert per_call[0] > 0 and per_call[1:] == [0, 0]


def test_calls_of_main_share_no_arguments(tmp_path, capsys):
    """A usage error, --version, a rejected export and an af run with
    --conjugates leave nothing behind in the shared parser: a following
    `af level23a --report` writes the golden report of level23a at its
    default embedding, apart from timings, with no conjugates block."""
    assert cli.main(["af"]) == 2
    assert cli.main(["--version"]) == 0
    assert cli.main(["jpa", "--poly", "x^2-x-1", "--theta", "0,1", "--root", "1",
                     "--export", "png", str(tmp_path / "out.png")]) == 2
    assert cli.main(["af", "level71a", "--conjugates"]) == 0
    capsys.readouterr()
    path = tmp_path / "report.json"
    assert cli.main(["af", "level23a", "--report", str(path)]) == 0
    assert capsys.readouterr().out == f"report written to {path}\n"
    report = json.loads(path.read_text())
    report.pop("timings")
    golden = json.loads((GOLDEN / "level23a@1.json").read_text())
    assert golden["exit_code"] == 0
    assert report == golden["report"]
    assert "companion" not in report


def test_stage_times_prints_one_row_of_medians(capsys):
    """tools/stage_times.py runs load, af and report on a fixture, and the
    whole in-process `heckeaf af` command, and prints a header and one row:
    the fixture and eight non-negative medians (ms), load, the af stage
    split into order, expand, unit, form and rest, report and main, then
    the af stage's calls of RealRootInterval.refined and _scaled_value in
    one run, as non-negative integers."""
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "tools" / "stage_times.py"
    spec = importlib.util.spec_from_file_location("stage_times", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["level23a@0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    fields = lines[1].split()
    assert lines[0].split()[1:16:2] == ["load", "order", "expand", "unit", "form", "rest",
                                        "report", "main"]
    assert lines[0].split()[17:19] == ["refined", "scaled"]
    assert fields[0] == "level23a@0" and len(fields) == 11
    assert all(float(ms) >= 0 for ms in fields[1:9])
    assert all(count.isdigit() for count in fields[9:])
    # a fixture that does not load is a usage error before anything is timed
    for spec in ("level23a@7", "level23a@x", "nofixture"):
        assert tool.main(["level23a@0", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"cannot load {spec}" in captured.err
