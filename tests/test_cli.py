import json

import pytest

from heckeaf import cli
from heckeaf.errors import DegenerateSpectrum, NotEndomorphism, ReducibleCharPoly
from heckeaf.exactnum import IntPolynomial


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
    with pytest.raises(cli.InputError):
        cli.parse_poly("x^2 + spam")


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


def test_factor_accepts_integer_strings(capsys):
    # arbitrary precision survives JSON when entries are strings
    code, out, _ = run(capsys, "factor", '[["2","5"],["5","12"]]')
    assert code == 0 and out.strip() == "[2, 2, 2]"


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
