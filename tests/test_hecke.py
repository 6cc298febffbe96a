import json
import random
import re
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from heckeaf import afalg, cli, hecke, mcf
from heckeaf.errors import (
    HeckeRelationViolated,
    InsufficientCoefficients,
    ModuleNotStable,
    NotNormalized,
    NotTotallyReal,
    ReduciblePolynomial,
    SchemaError,
)
from heckeaf.exactnum import IntPolynomial, eval_embedding, make_field, module_from_generators
from heckeaf.exactnum.lattice import endomorphism_ring

from util import cone_contains, random_unimodular

LEVEL47A = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "level47a.json"


@pytest.fixture(scope="module")
def f11():
    return hecke.load_fixture("level11a")


@pytest.fixture(scope="module")
def f23():
    return hecke.load_fixture("level23a")


@pytest.fixture(scope="module")
def f71a():
    return hecke.load_fixture("level71a")


@pytest.fixture(scope="module")
def f71b():
    return hecke.load_fixture("level71b")


def fixture_dict(f):
    from importlib import resources

    text = resources.files("heckeaf.fixtures").joinpath(f + ".json").read_text()
    return json.loads(text)


def test_bundled_fixture_names():
    assert hecke.bundled_fixture_names() == [
        "level11a", "level23a", "level71a", "level71b",
    ]


def test_level11_fixture_values(f11):
    assert f11.level == 11 and f11.field.degree == 1
    assert f11.c(1) == 1
    assert f11.c(2) == -2
    assert f11.c(3) == -1
    assert f11.c(5) == 1
    assert f11.count >= 169


def test_level23_fixture_values(f23):
    assert f23.level == 23 and f23.field.degree == 2
    assert f23.field.minpoly == IntPolynomial((-1, 1, 1))  # x^2 + x - 1
    assert f23.c(2) == f23.field.gen  # c(2) is a root of the field polynomial


def test_load_rejects_corruption(f23):
    data = fixture_dict("level23a")
    bad = dict(data)
    bad["an"] = [list(row) for row in data["an"]]
    bad["an"][5] = ["1", "1"]  # c(6) != c(2) c(3)
    with pytest.raises(HeckeRelationViolated) as info:
        hecke.load_newform(bad)
    assert (info.value.m, info.value.n) == (2, 3)


def test_load_rejects_bad_weight_and_schema():
    data = fixture_dict("level11a")
    bad = dict(data)
    bad["weight"] = 4
    with pytest.raises(SchemaError):
        hecke.load_newform(bad)

    bad = dict(data)
    del bad["field_poly"]
    with pytest.raises(SchemaError):
        hecke.load_newform(bad)

    with pytest.raises(SchemaError):
        hecke.load_newform("not json at all {")

    bad = dict(data)
    bad["an"] = [list(row) for row in data["an"]]
    bad["an"][0] = ["5"]
    with pytest.raises(NotNormalized):
        hecke.load_newform(bad)

    bad = dict(data)
    bad["field_poly"] = [-4, 0, 1]
    with pytest.raises(ReduciblePolynomial):
        hecke.load_newform(bad)


def _schema_coordinate_pattern():
    from importlib import resources

    schema = json.loads(
        resources.files("heckeaf.schemas").joinpath("newform_fixture.schema.json").read_text()
    )
    return schema["properties"]["an"]["items"]["items"]["pattern"]


# matched with re.fullmatch, so its ^ and $ add nothing and a trailing
# newline does not match
SCHEMA_PATTERN = _schema_coordinate_pattern()

_DIGIT_RUNS = st.text(alphabet="0123456789", min_size=1, max_size=60)
_GRAMMAR_STRINGS = st.builds(
    lambda sign, num, den: sign + num + ("" if den is None else "/" + den),
    st.sampled_from(["", "-"]),
    _DIGIT_RUNS | st.sampled_from(["0", "00", "007"]),
    st.none() | _DIGIT_RUNS | st.sampled_from(["0", "000", "1", "01"]),
)


def _fraction_or_none(s):
    try:
        return Fraction(s).as_integer_ratio()
    except (ValueError, ZeroDivisionError):
        return None


def _parsed_or_none(s):
    try:
        return hecke._parse_rational(s)
    except SchemaError:
        return None


@settings(max_examples=400, deadline=None)
@given(_GRAMMAR_STRINGS | st.integers() | st.integers(-10 ** 80, 10 ** 80))
def test_parse_rational_matches_fraction_on_the_grammar(s):
    """On the schema grammar and on JSON integers the coordinate parser
    gives Fraction's (numerator, denominator), or both refuse (a zero
    denominator)."""
    assert _parsed_or_none(s) == _fraction_or_none(s)


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="0123456789-/ +_.e\n٣１", max_size=8))
def test_parse_rational_rejects_every_string_outside_the_grammar(s):
    if re.fullmatch(SCHEMA_PATTERN, s):
        assert _parsed_or_none(s) == _fraction_or_none(s)
    else:
        with pytest.raises(SchemaError):
            hecke._parse_rational(s)


# spellings that Fraction, and so the loader before it parsed the schema
# grammar, accepted
@pytest.mark.parametrize("s", [
    " 3", "3 ", "3\n", "\t3", "+3", "+1/2", "1_000", "1/2_0", "1.5", ".5", "1.",
    "1e3", "1E3", "-1.5e-3", "٣", "１",
])
def test_spellings_outside_the_grammar_are_schema_errors(s):
    assert _fraction_or_none(s) is not None
    with pytest.raises(SchemaError):
        hecke._parse_rational(s)


def test_coordinates_up_to_the_digit_bound_load_under_any_int_limit():
    """The loader's digit bound is its own: with int()'s process-wide limit
    at its least, 640, a coordinate and a JSON integer of MAX_DIGITS digits
    still parse, and one more digit is a SchemaError."""
    n = hecke.MAX_DIGITS
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        parsed = hecke._parse_rational("7" * n + "/" + "3" * n)
        token = hecke._json_int("-" + "1" * n)
        with pytest.raises(SchemaError):
            hecke._json_int("1" * (n + 1))
    finally:
        sys.set_int_max_str_digits(limit)
    assert parsed == (7, 3)  # 7 (10^n - 1) / 9 over 3 (10^n - 1) / 9
    assert token == -(10 ** n - 1) // 9


def _parent_parse_rational(s) -> tuple:
    """The coordinate parser as it was, one (p, q) pair in lowest terms a
    coordinate: the reference for reading rows into numerators."""
    if type(s) is int:
        return s, 1
    if type(s) is not str:
        raise SchemaError(f"expected a rational string, got {type(s).__name__}")
    m = hecke._RATIONAL.fullmatch(s)
    if m is None:
        shown = repr(s) if len(s) <= 40 else f"of {len(s)} characters"
        raise SchemaError(f"cannot parse rational {shown}: not of the form -?[0-9]+(/[0-9]+)?"
                          f" with at most {hecke.MAX_DIGITS} digits a part")
    num = hecke._bounded_int(m[1])
    den = 1 if m[2] is None else hecke._bounded_int(m[2])
    if den == 0:
        raise SchemaError(f"cannot parse rational {s!r}: zero denominator")
    g = gcd(num, den)
    return num // g, den // g


def _parent_row(degree, row):
    """(numerators, denominator) of a row by the parent parser and the
    field's from_ratios as it was, or the SchemaError's message."""
    try:
        pairs = [_parent_parse_rational(x) for x in row]
    except SchemaError as exc:
        return str(exc)
    den = lcm(*(q for _, q in pairs))
    num = tuple(p * (den // q) for p, q in pairs)
    return num + (0,) * (degree - len(num)), den


def _big_part(digits, first):
    return first + "0" * (digits - 1)


_PART = st.one_of(
    st.text(alphabet="0123456789", min_size=1, max_size=8),
    st.builds(_big_part, st.sampled_from([639, 640, 641, 4299, 4300, 4301]),
              st.sampled_from("1379")),
)
_COORDINATE = st.one_of(
    st.integers(-10 ** 30, 10 ** 30),
    st.builds(lambda sign, num, den: sign + num + ("" if den is None else "/" + den),
              st.sampled_from(["", "-"]), _PART, st.none() | _PART | st.sampled_from(["0", "00"])),
    # p/q not in lowest terms
    st.builds(lambda p, q, k: f"{p * k}/{q * k}",
              st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6), st.integers(2, 10 ** 6)),
    st.sampled_from(["٣", "１", "1/٣", "+1", " 1", "1 ", "1.5", "1e3", "1_0", "", "-", "/2"]),
    st.booleans(),
    st.floats(allow_nan=False),
    st.none(),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["level23a", "level71a"]), st.data())
def test_rows_read_into_numerators_match_the_pair_parse(name, data):
    """Each drawn row gives the element of the parent parse, one (p, q)
    pair a coordinate and the lcm of the q, or the same SchemaError
    message, read alone or after other rows through one shared dict of
    parsed strings: JSON integers, p/q not in lowest terms, negatives,
    parts of 640/641 and 4300/4301 digits, zero denominators, non-ASCII
    digits, bools and floats."""
    field = hecke.load_fixture(name).field
    rows = data.draw(st.lists(st.lists(_COORDINATE, max_size=field.degree), min_size=1,
                              max_size=3), label="rows")

    def element_or_message(row, parsed):
        try:
            element = hecke._row_element(field, row, parsed)
            return element.num, element.den
        except SchemaError as exc:
            return str(exc)

    # alone, and in sequence through one dict of parsed strings, as a load reads them
    parsed = {}
    for row in rows:
        expected = _parent_row(field.degree, row)
        assert element_or_message(row, {}) == expected
        assert element_or_message(row, parsed) == expected


def _reference_coefficients(data):
    """(num, den) of each an row by Fraction: numerators over the lcm of the
    coordinate denominators, zero-padded to the degree."""
    degree = len(data["field_poly"]) - 1
    out = []
    for row in data["an"]:
        coords = [Fraction(x) for x in row]
        den = lcm(*(c.denominator for c in coords))
        num = tuple(c.numerator * (den // c.denominator) for c in coords)
        out.append((num + (0,) * (degree - len(num)), den))
    return out


@pytest.mark.parametrize("name", ["level11a", "level23a", "level71a", "level71b", "level47a"])
def test_loaded_coefficients_equal_the_fraction_parse(name):
    if name == "level47a":
        data = json.loads(LEVEL47A.read_text())
    else:
        data = fixture_dict(name)
    f = hecke.load_newform(data)
    assert [(c.num, c.den) for c in f.coeffs] == _reference_coefficients(data)


def _count_coordinate_parses(monkeypatch):
    """Wrap hecke._coordinate with a call counter; returns a one-item list
    holding the count."""
    calls = [0]
    original = hecke._coordinate

    def counted(s):
        calls[0] += 1
        return original(s)

    monkeypatch.setattr(hecke, "_coordinate", counted)
    return calls


def _expected_parses(data):
    """One parse per distinct coordinate string of the an and module rows,
    and one per coordinate that is not a string."""
    entries = [s for row in data["an"] + data.get("module", []) for s in row]
    return len({s for s in entries if type(s) is str}) + sum(type(s) is not str for s in entries)


@pytest.mark.parametrize("name", ["level11a", "level23a", "level71a", "level71b", "level47a"])
def test_load_parses_each_distinct_coordinate_string_once(monkeypatch, name):
    """A load parses each distinct coordinate string once, however often
    it repeats; module rows share the parses of the an rows, so a module
    spelled in strings the an rows hold adds none."""
    if name == "level47a":
        data = json.loads(LEVEL47A.read_text())
    else:
        data = fixture_dict(name)
    calls = _count_coordinate_parses(monkeypatch)
    hecke.load_newform(data)
    assert 0 < calls[0] == _expected_parses(data) < sum(len(row) for row in data["an"])
    degree = len(data["field_poly"]) - 1
    identity = [["1" if i == j else "0" for j in range(degree)] for i in range(degree)]
    with_module = dict(data, module=identity)
    calls[0] = 0
    f = hecke.load_newform(with_module)
    assert calls[0] == _expected_parses(with_module) == _expected_parses(data)
    assert f.module_rows == tuple(f.field.element([int(x) for x in row]) for row in identity)


@pytest.mark.parametrize("entry", [[1], ["1"], {"a": "1"}, 1.5, True, None])
@pytest.mark.parametrize("rows", ["an", "module"])
def test_coordinates_that_are_not_integers_or_strings_are_schema_errors(entry, rows):
    """A row entry of another JSON type is a SchemaError in an an row and
    in a module row, also when it repeats, not the TypeError an unhashable
    value raises as a dict key."""
    data = fixture_dict("level23a")
    bad = [entry, entry]
    if rows == "an":
        data = dict(data, an=[list(row) for row in data["an"]])
        data["an"][2] = bad
    else:
        data = dict(data, module=[["1", "0"], bad])
    with pytest.raises(SchemaError, match=f"expected a rational string, got {type(entry).__name__}"):
        hecke.load_newform(data)


@pytest.mark.parametrize("text", ["1/0", "+1", "1.5"])
def test_a_repeated_bad_string_fails_at_its_first_row(monkeypatch, text):
    """A bad coordinate string in an rows 3 and 10 raises its own
    SchemaError at row 3, before row 6, which is longer than the degree,
    is reached: a failed parse is not stored, and nothing is deferred."""
    data = fixture_dict("level23a")
    data = dict(data, an=[list(row) for row in data["an"]])
    data["an"][2] = [text, "0"]
    data["an"][5] = ["1", "0", "0"]
    data["an"][9] = ["0", text]
    calls = _count_coordinate_parses(monkeypatch)
    with pytest.raises(SchemaError) as info:
        hecke.load_newform(data)
    # the distinct strings of rows 1 and 2, then the bad one
    assert calls[0] == len({s for row in data["an"][:2] for s in row}) + 1
    with pytest.raises(SchemaError) as alone:
        hecke._coordinate(text)
    assert str(info.value) == str(alone.value)


def test_hecke_apply_examples(f11):
    table = f11.coeffs
    identity = hecke.hecke_apply(1, table, f11.level)
    assert list(identity) == list(table)

    gamma = hecke.hecke_apply(2, table, f11.level)
    for m in range(1, len(gamma) + 1):
        assert gamma[m - 1] == f11.c(2) * f11.c(m)

    gamma4 = hecke.hecke_apply(4, table, f11.level)
    assert gamma4[0] == f11.c(4)

    with pytest.raises(InsufficientCoefficients):
        hecke.hecke_apply(f11.count + 1, table, f11.level)


def test_gamma_one_equals_cn(f23):
    for n in (2, 3, 5, 6, 10, 23, 46):
        gamma = hecke.hecke_apply(n, f23.coeffs, f23.level)
        assert gamma[0] == f23.c(n)


def test_verify_eigenform_all_fixtures(f11, f23, f71a, f71b):
    for f in (f11, f23, f71a, f71b):
        report = hecke.verify_eigenform(f)
        assert report.all_ok
        assert [ch.p for ch in report.checks] == [2, 3, 5, 7, 11, 13]
        assert all(ch.checked_range >= 15 for ch in report.checks)


def test_verify_eigenform_names_failure(f23):
    # corrupt a coefficient after loading: verify reports the first (p, m)
    coeffs = list(f23.coeffs)
    coeffs[12] = coeffs[12] + 1  # c(13)
    broken = hecke.NewformData(
        label="broken", level=23, weight=2, field=f23.field, coeffs=tuple(coeffs)
    )
    report = hecke.verify_eigenform(broken)
    assert not report.all_ok
    p, m = report.first_failure()
    assert (p, m) == (2, 13)  # gamma(13) = c(26) no longer matches c(2) c(13)


def test_verify_eigenform_needs_enough_coefficients(f23):
    short = hecke.NewformData(
        label="short", level=23, weight=2, field=f23.field, coeffs=f23.coeffs[:100]
    )
    with pytest.raises(InsufficientCoefficients):
        hecke.verify_eigenform(short)


def test_load_rejects_every_table_verify_rejects(f11):
    """Load's multiplicativity and prime-power checks imply the T_p check:
    for each m in 2..200, c(m) of level11a raised by 1 fails verify only
    if it fails load."""
    data = fixture_dict("level11a")
    caught = 0
    for m in range(2, f11.count + 1):
        coeffs = list(f11.coeffs)
        coeffs[m - 1] = coeffs[m - 1] + 1
        broken = hecke.NewformData(
            label="broken", level=11, weight=2, field=f11.field, coeffs=tuple(coeffs)
        )
        if hecke.verify_eigenform(broken).all_ok:
            continue
        caught += 1
        an = [list(row) for row in data["an"]]
        an[m - 1] = [str(coeffs[m - 1].as_rational())]
        with pytest.raises(HeckeRelationViolated):
            hecke.load_newform(dict(data, an=an))
    assert caught > 100


def reference_coefficient_check(coeffs, level):
    """The reference for load_newform's coefficient checks: every coprime
    pair, then the prime-power recursion."""
    count = len(coeffs)

    def c(m):
        return coeffs[m - 1]

    for m in range(2, count + 1):
        for n in range(2, count // m + 1):
            if gcd(m, n) == 1 and c(m) * c(n) != c(m * n):
                raise HeckeRelationViolated(f"c({m})c({n}) != c({m * n})", m=m, n=n)
    for p in hecke._primes_up_to(count):
        r = 1
        while p ** (r + 1) <= count:
            if level % p == 0:
                expected = c(p) * c(p ** r)
            else:
                expected = c(p) * c(p ** r) - p * c(p ** (r - 1))
            if c(p ** (r + 1)) != expected:
                raise HeckeRelationViolated(
                    f"prime power recursion fails at c({p ** (r + 1)})", m=p, n=p ** r
                )
            r += 1


def _verdict(check):
    try:
        check()
    except HeckeRelationViolated as exc:
        return exc.m, exc.n, str(exc)
    return None


def _fixture_and_data(label):
    """A loaded fixture and its decoded JSON: a bundled one by name, or
    level47a from perfbench/data."""
    if label == "level47a":
        data = json.loads(LEVEL47A.read_text())
        return hecke.load_newform(data), data
    return hecke.load_fixture(label), fixture_dict(label)


def _count_reference_verdicts(f, data, changes):
    """Load the fixture with each change (a dict m -> new c(m)) written into
    its an rows, assert load_newform's verdict is reference_coefficient_check's
    (None, or the same (m, n) and message), and return how many raised."""
    raised = 0
    for change in changes:
        coeffs = list(f.coeffs)
        an = [list(row) for row in data["an"]]
        for m, value in change.items():
            coeffs[m - 1] = value
            an[m - 1] = [str(x) for x in value.coords]
        expected = _verdict(lambda: reference_coefficient_check(coeffs, f.level))
        got = _verdict(lambda: hecke.load_newform(dict(data, an=an)))
        assert got == expected, sorted(change)
        raised += expected is not None
    return raised


@pytest.mark.parametrize("label", ["level11a", "level23a", "level71a", "level47a"])
def test_load_names_the_failure_the_pairwise_scan_names(label):
    """Each c(m), m = 2..200, raised by 1, and seeded pairs of changed
    coefficients: load_newform fails exactly when the pairwise scan plus
    the prime-power recursion fails, with the same (m, n) and message."""
    f, data = _fixture_and_data(label)
    rng = random.Random(4711)
    changes = [{m: f.c(m) + 1} for m in range(2, f.count + 1)]
    for _ in range(60):
        m1, m2 = rng.sample(range(2, f.count + 1), 2)
        changes.append({m1: f.c(m1) + rng.choice((-2, -1, 1, 2)),
                        m2: f.c(m2) + rng.choice((-2, -1, 1, 2))})
    assert _count_reference_verdicts(f, data, changes) > 150


@pytest.mark.parametrize("label", ["level23a", "level71a", "level71b", "level47a"])
def test_load_names_the_adversarial_failure_the_reference_names(label):
    """Changes aimed at the packed relation test give the reference verdict:
    a carry, 2^j at coordinate i and -1 at i + 1, which at X = 2^j leaves
    the packed image of c(m) as it was (j = k - 1, k, k + 1 for the
    unchanged table's width k); changed denominators, alone and in a pair
    c(2)/2, 2 c(3) that keeps c(6) = c(2) c(3); and one coordinate of 4300
    digits, which takes the product kernel."""
    f, data = _fixture_and_data(label)
    field, n = f.field, f.field.degree
    k = hecke._pack_width(field, f.coeffs)
    changes = []
    for m in (2, 3, 30, 97, 128, 200):
        for i in range(n - 1):
            for j in (k - 1, k, k + 1):
                carry = [0] * n
                carry[i], carry[i + 1] = 2 ** j, -1
                changes.append({m: f.c(m) + field.element(carry)})
        for d in (2, 3, 7):
            changes.append({m: field.from_integers(f.c(m).num, d)})
            changes.append({m: f.c(m) + Fraction(1, d)})
    changes.append({2: f.c(2) * Fraction(1, 2), 3: f.c(3) * 2})
    huge = [10 ** 4299 + 7] + [0] * (n - 1)
    for m in (2, 200):
        change = {m: f.c(m) + field.element(huge)}
        assert hecke._pack_width(field, [*f.coeffs, *change.values()]) > hecke._MAX_PACK_BITS
        changes.append(change)
    assert _count_reference_verdicts(f, data, changes) == len(changes)


def test_coefficient_field(f11, f23):
    assert f11.field.degree == 1
    field = f23.field
    assert field.degree == 2
    order = endomorphism_ring(hecke.module_of_eigenform(f23))
    # Z[c(2)] for the root c(2) of x^2 + x - 1: the maximal order, disc 5
    assert order.module == module_from_generators(field, [field.one, field.gen])


def test_c2_at_the_two_embeddings(f23):
    # c(2) lands on the two roots of x^2 + x - 1 at the two embeddings
    c2 = f23.c(2)
    vals = sorted(float(sum(eval_embedding(c2, root, Fraction(1, 10 ** 8))) / 2)
                  for root in f23.field.real_roots)
    assert abs(vals[0] - (-1.618)) < 0.01
    assert abs(vals[1] - 0.618) < 0.01


def test_module_of_eigenform(f23, f11):
    m = hecke.module_of_eigenform(f23)
    expected = module_from_generators(f23.field, [f23.field.one, f23.c(2)])
    assert m == expected

    m11 = hecke.module_of_eigenform(f11)
    assert m11.rows == ((1,),)

    # explicit module override
    data = fixture_dict("level23a")
    data["module"] = [["2", "0"], ["0", "2"]]
    f_override = hecke.load_newform(data)
    m_override = hecke.module_of_eigenform(f_override)
    assert m_override == module_from_generators(
        f23.field, [f23.field.from_rational(2), 2 * f23.field.gen]
    )


def test_hecke_action_on_module(f23):
    m = hecke.module_of_eigenform(f23)
    assert hecke.hecke_action_on_module(f23, m, 2) == f23.c(2)
    assert hecke.hecke_action_on_module(f23, m, 1) == f23.field.one

    shrunken = module_from_generators(
        f23.field, [f23.field.one, 2 * f23.c(2)]
    )
    with pytest.raises(ModuleNotStable) as info:
        hecke.hecke_action_on_module(f23, shrunken, 2)
    assert info.value.witness is not None


def test_af_of_eigenform_dichotomy(f11, f23, f71a, f71b):
    r11 = hecke.af_of_eigenform(f11)
    assert isinstance(r11.af, afalg.TrivialAF)
    assert r11.group.rank == 1
    assert cone_contains(r11.group, (3,))
    assert not cone_contains(r11.group, (-1,))
    for f in (f23, f71a, f71b):
        r = hecke.af_of_eigenform(f)
        assert isinstance(r.af, afalg.StationaryAF)


def test_af_of_eigenform_level23(f23):
    r = hecke.af_of_eigenform(f23)
    assert r.realization.matrix == ((0, 1), (1, 1))
    assert r.af.char_poly == IntPolynomial((-1, -1, 1))
    # char poly of the period matrix equals the field polynomial of u^k
    assert r.af.char_poly == (r.unit.element ** r.realization.power).min_poly()
    assert r.unit.norm == -1
    expansion = r.realization.roundtrip.expansion
    assert expansion.preperiod == ()
    assert expansion.period * (len(r.af.digits) // len(expansion.period)) == r.af.digits
    assert r.group is not None and r.group.rank == 2


def test_af_results_record_unit_power_polynomial(f71a, f71b):
    for f in (f71a, f71b):
        r = hecke.af_of_eigenform(f)
        assert r.af.char_poly == (r.unit.element ** r.realization.power).min_poly()
        assert mcf.convergent_matrix(r.af.digits, 3) == r.realization.matrix
        # every conjugate entry of the report carries the common char poly,
        # and the working embedding is an expanding one
        report = cli.build_report(f, result=r)
        assert len(report["per_conjugate"]) == f.field.degree
        char_poly = [str(c) for c in r.af.char_poly.coeffs]
        assert report["char_poly"] == char_poly
        assert all(entry["char_poly"] == char_poly for entry in report["per_conjugate"])
        working = [cs for cs in r.per_conjugate
                   if cs.embedding_index == r.embedding_index]
        assert working and working[0].expanding


def test_pipeline_determinism(f23):
    r1 = hecke.af_of_eigenform(f23)
    r2 = hecke.af_of_eigenform(f23)
    assert r1.af.digits == r2.af.digits
    assert r1.realization.matrix == r2.realization.matrix
    assert r1.matrix_a == r2.matrix_a
    assert r1.unit.element == r2.unit.element
    assert r1.module == r2.module


def test_companion_of_conjugates(f11, f23, f71a, f71b):
    rep = hecke.companion_of_conjugates(f11, hecke.af_of_eigenform(f11))
    assert rep.conjugates == 0 and rep.char_polys == ()

    for f in (f23, f71a, f71b):
        rep = hecke.companion_of_conjugates(f, hecke.af_of_eigenform(f))
        assert rep.conjugates == f.field.degree
        assert rep.all_equal
        assert rep.module_galois_stable
        for _, _, verdict in rep.pairwise_verdicts:
            assert verdict != afalg.VERDICT_DISTINCT


def test_distinct_orbits_have_distinct_char_polys(f71a, f71b):
    ra = hecke.af_of_eigenform(f71a)
    rb = hecke.af_of_eigenform(f71b)
    verdict = afalg.companion_check(ra.af.period_matrix, rb.af.period_matrix)
    assert verdict == afalg.VERDICT_DISTINCT


def test_pipeline_invariant_under_module_basis_change(f23):
    rng = random.Random(67)
    base = hecke.af_of_eigenform(f23)
    field = f23.field
    gens = [field.one, f23.c(2)]
    data = fixture_dict("level23a")
    for _ in range(12):
        u = random_unimodular(2, rng)
        new_rows = []
        for row in u:
            acc = field.zero
            for c, g in zip(row, gens):
                acc = acc + c * g
            new_rows.append([str(x) for x in acc.coords])
        data2 = dict(data)
        data2["module"] = new_rows
        f2 = hecke.load_newform(data2)
        r2 = hecke.af_of_eigenform(f2)
        assert r2.module == base.module
        assert r2.af.digits == base.af.digits
        assert r2.realization.matrix == base.realization.matrix


def test_embedding_index_override(f23):
    # run the pipeline at the other embedding: the quadratic conjugate
    # symmetry still lands on the same characteristic polynomial
    data = fixture_dict("level23a")
    data["embedding_index"] = 0
    f_alt = hecke.load_newform(data)
    assert f_alt.working_embedding_index() == 0
    r_alt = hecke.af_of_eigenform(f_alt)
    base = hecke.af_of_eigenform(f23)
    assert r_alt.embedding_index == 0 and base.embedding_index == 1
    assert r_alt.af.char_poly == base.af.char_poly
    assert r_alt.unit.element != base.unit.element

    data["embedding_index"] = 5
    with pytest.raises(SchemaError):
        hecke.load_newform(data)


def test_not_totally_real_guard():
    # synthetic NewformData never load from real fixtures, so exercise the
    # guards directly: a field with no real root has no working embedding,
    # and one with a single real root of three has too few conjugates
    field = make_field(IntPolynomial((1, 0, 1)))
    fake = hecke.NewformData(
        label="fake", level=1, weight=2, field=field,
        coeffs=(field.one, field.gen) + (field.one,) * 18,
    )
    with pytest.raises(NotTotallyReal):
        hecke.af_of_eigenform(fake)

    field = make_field(IntPolynomial((-1, -1, 0, 1)))
    fake = hecke.NewformData(
        label="fake", level=1, weight=2, field=field,
        coeffs=(field.one, field.gen) + (field.one,) * 18,
    )
    result = hecke.af_of_eigenform(fake)
    assert result.per_conjugate == ()
    with pytest.raises(NotTotallyReal, match="1 real roots for degree 3"):
        hecke.companion_of_conjugates(fake, result)
