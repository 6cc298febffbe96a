"""One af_of_eigenform run computes each intermediate fact once.

The functions are wrapped with counters from the test, so nothing in the
library carries instrumentation.
"""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest

from heckeaf import afalg, cli, hecke, mcf
from heckeaf.errors import HeckeRelationViolated, NonnegativeFormNotFound
from heckeaf.exactnum import field, intmat, polynomial, units
from heckeaf.exactnum.field import FieldElement, RealRootInterval, make_field
from heckeaf.exactnum.lattice import endomorphism_ring, module_from_generators
from heckeaf.exactnum.polynomial import IntPolynomial
from heckeaf.hecke import load_newform

LEVEL47A = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "level47a.json"


def _count(monkeypatch, name, *modules):
    """Wrap the function `name` with a call counter in every module that
    binds it; returns a one-item list holding the count."""
    calls = [0]
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for module in modules:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


def _count_steps(monkeypatch):
    """Wrap the Jacobi-Perron expansion engine; returns a list holding its
    number of runs and the number of steps (digits) they took."""
    counts = [0, 0]
    original = mcf._expand_states

    def counted(*args):
        result = original(*args)
        counts[0] += 1
        counts[1] += len(result[0])
        return result

    monkeypatch.setattr(mcf, "_expand_states", counted)
    return counts


def _count_fields(monkeypatch):
    """Wrap NumberField.__init__ with a counter; returns a one-item list
    holding the number of fields built."""
    built = [0]
    original = field.NumberField.__init__

    def counted(self, *args):
        built[0] += 1
        original(self, *args)

    monkeypatch.setattr(field.NumberField, "__init__", counted)
    return built


@pytest.mark.parametrize("label", ["level71a", "level23a"])
def test_af_of_eigenform_computes_each_fact_once(monkeypatch, label):
    """A cycling run reads its unit, form, digits and round trip off the
    module's one expansion: it searches for no unit or form, forms no
    candidate, and neither factorizes nor expands again."""
    f = hecke.load_fixture(label)
    attractor = _count(monkeypatch, "_attractor_data", units, hecke)
    roundtrip = _count(monkeypatch, "roundtrip_record", mcf, units, hecke)
    eigenvector = _count(monkeypatch, "satz12_eigenvector", mcf, units, hecke, afalg)
    factorize = _count(monkeypatch, "bauer_factorize", mcf, units, hecke, afalg)
    period = _count(monkeypatch, "check_period", mcf, units, hecke)
    searches = {name: _count(monkeypatch, name, units, hecke)
                for name in ("find_unit", "make_nonnegative", "_nonnegative_conjugates",
                             "_is_top_real_root", "_lll_transform")}
    inverse = _count(monkeypatch, "mat_inverse_fraction", intmat, units, hecke)
    char_poly = _count(monkeypatch, "charpoly", intmat, units, mcf, hecke)
    make = _count(monkeypatch, "make_field", field, mcf, hecke)
    isolate = _count(monkeypatch, "_isolate", field)
    fields = _count_fields(monkeypatch)
    result = hecke.af_of_eigenform(f)
    assert isinstance(result.af, hecke.StationaryAF)
    assert attractor[0] == 1
    # the round trip takes the Perron data from the unit and the module
    # basis: no matrix is certified again, and no second field is built
    assert roundtrip[0] == 0
    assert eigenvector[0] == 0
    assert factorize[0] == 0
    assert period[0] == 0
    assert {name: calls[0] for name, calls in searches.items()} == dict.fromkeys(searches, 0)
    # no matrix inverse: the attractor expansion carries its basis
    # change's inverse as an integer matrix
    assert inverse[0] == 0
    # the accepted candidate's char poly, for the report; the Perron test
    # walks the unit's images instead
    assert char_poly[0] == 1
    assert make[0] == 0
    assert isolate[0] == 0
    assert fields[0] == 0


_EMBEDDINGS = ["level11a@0", "level23a@0", "level23a@1", "level71a@0", "level71a@1",
               "level71a@2", "level71b@0", "level71b@1", "level71b@2", "level47a@0",
               "level47a@1", "level47a@2", "level47a@3"]


@pytest.mark.parametrize("spec", _EMBEDDINGS)
def test_af_of_eigenform_builds_no_number_field(monkeypatch, spec):
    """The fixture's field is the only field of an af run: the pipeline,
    failing or not, builds none, at every embedding of every bundled
    fixture and of level47a."""
    name, index = spec.split("@")
    f = load_newform(LEVEL47A.read_text()) if name == "level47a" else hecke.load_fixture(name)
    f = dataclasses.replace(f, embedding_index=int(index))
    fields = _count_fields(monkeypatch)
    try:
        hecke.af_of_eigenform(f)
    except NonnegativeFormNotFound:
        pass
    assert fields[0] == 0


def test_af_conjugates_runs_the_pipeline_once(monkeypatch, tmp_path, capsys):
    """`af --conjugates` compares the conjugates on the one pipeline result,
    and checks the Hecke relations only when it loads the fixture."""
    pipeline = _count(monkeypatch, "af_of_eigenform", hecke, cli)
    verify = _count(monkeypatch, "verify_eigenform", hecke, cli)
    report = tmp_path / "report.json"
    assert cli.main(["af", "level71a", "--conjugates", "--report", str(report)]) == 0
    assert pipeline[0] == 1
    assert verify[0] == 0


def test_quadratic_unit_comes_from_the_shared_expansion(monkeypatch):
    """level23a's unit is the return unit of the one attractor expansion:
    the run calls no unit search, and expands once, as the round trip is
    that expansion's cycle."""
    f = hecke.load_fixture("level23a")
    root = f.field.real_roots[f.working_embedding_index()]
    v, _ = units._attractor_data(hecke.module_of_eigenform(f), root)
    attractor = _count(monkeypatch, "_attractor_data", units, hecke)
    search = _count(monkeypatch, "find_unit", units, hecke)
    counts = _count_steps(monkeypatch)
    result = hecke.af_of_eigenform(f)
    assert isinstance(result.af, hecke.StationaryAF)
    assert result.unit.element == v
    assert attractor[0] == 1
    assert counts[0] == 1 and counts[1] > 0
    assert search[0] == 0


def test_attractor_expansion_makes_no_field_step_or_division(monkeypatch):
    """level47a's 512-state expansion runs on integer row operations with
    digits read from basis enclosures: one engine run of 511 steps, and no
    field inverse."""
    f = load_newform(LEVEL47A.read_text())
    module = hecke.module_of_eigenform(f)
    root = f.field.real_roots[f.working_embedding_index()]
    counts = _count_steps(monkeypatch)
    inverse = [0]
    original = FieldElement.inverse

    def counted(self):
        inverse[0] += 1
        return original(self)

    monkeypatch.setattr(FieldElement, "inverse", counted)
    assert units._attractor_data(module, root) is None
    assert counts == [1, 511]
    assert inverse[0] == 0


def test_af_of_module_expands_a_module_that_is_not_a_ring_once(monkeypatch):
    """Z + Z a + 2Z a^2 in Q(a), a^3 - 4a^2 - 3a + 1 = 0, is not its own
    multiplier ring.  One run at embedding 0 expands that module once, and
    its unit and realization are that expansion's closed form, the unit
    one of End(m)."""
    k = make_field(IntPolynomial((1, -3, -4, 1)))
    a = k.element([0, 1, 0])
    module = module_from_generators(k, [k.one, a, 2 * a * a])
    assert endomorphism_ring(module).module != module
    returned = []
    original = units._attractor_data

    def recorded(m, root, *args):
        returned.append(original(m, root, *args))
        return returned[-1]

    monkeypatch.setattr(units, "_attractor_data", recorded)
    monkeypatch.setattr(hecke, "_attractor_data", recorded)
    result = hecke.af_of_module(module, 0)
    assert len(returned) == 1
    assert (result.unit.element, result.realization) == returned[0]
    assert result.unit.order == endomorphism_ring(module)


def test_level47a_forms_no_signed_conjugate(monkeypatch):
    """No power of level47a's action matrix, in any of its bases, has an
    admissible sign class, so the form search builds none of the 24 x 384
    signed conjugates and still ends in NonnegativeFormNotFound."""
    f = load_newform(LEVEL47A.read_text())
    calls, yielded = [0], [0]
    original = units._signed_conjugates

    def tally(items):
        for item in items:
            yielded[0] += 1
            yield item

    def counted(*args):
        calls[0] += 1
        return tally(original(*args))

    monkeypatch.setattr(units, "_signed_conjugates", counted)
    with pytest.raises(NonnegativeFormNotFound):
        hecke.af_of_eigenform(f)
    assert calls[0] == 0
    assert yielded[0] == 0


def _count_relations(monkeypatch):
    """Wrap each relation test that load_newform builds with a counter;
    returns a one-item list holding the number of relations tested."""
    tested = [0]
    original = hecke._relation_test

    def counted_test(*args):
        holds = original(*args)

        def counted(*relation):
            tested[0] += 1
            return holds(*relation)

        return counted

    monkeypatch.setattr(hecke, "_relation_test", counted_test)
    return tested


def test_load_checks_multiplicativity_once_per_coefficient(monkeypatch):
    """Loading level71a (200 coefficients) tests one relation per
    coefficient that is not a prime power (139), plus the prime-power
    recursion at the 14 prime powers p^(r+1), r >= 1: 153 relations, where
    the pairwise coprime scan tested 416.  The table's bound is narrow, so
    every relation is the packed test, which calls the field's product
    kernel not once."""
    text = (Path(hecke.__file__).parent / "fixtures" / "level71a.json").read_text()
    tested = _count_relations(monkeypatch)
    products = _count(monkeypatch, "mul_numerators", field.NumberField)
    load_newform(text)
    assert tested[0] == 153
    assert products[0] == 0


def test_fixtures_take_the_packed_test_and_a_wide_table_the_kernel(monkeypatch):
    """Every bundled fixture and level47a loads through the packed relation
    test, with no call of the product kernel; level71a with a coordinate of
    4300 digits in c(200) is past the packing width, and its relations take
    the kernel (and fail at c(8) c(25))."""
    products = _count(monkeypatch, "mul_numerators", field.NumberField)
    for name in hecke.bundled_fixture_names():
        hecke.load_fixture(name)
    load_newform(LEVEL47A.read_text())
    assert products[0] == 0
    data = json.loads((Path(hecke.__file__).parent / "fixtures" / "level71a.json").read_text())
    data["an"][199] = [str(10 ** 4299 + 7), "0", "0"]
    with pytest.raises(HeckeRelationViolated, match=r"c\(8\)c\(25\)"):
        load_newform(data)
    assert products[0] > 0


def test_level47a_walks_each_enclosure_once(monkeypatch):
    """Every certified embedding question walks the root's shared
    refinement ladder, with no eps-restart from the coarse root interval,
    and the unit search finds each candidate's degree once: a level47a run
    makes 17 root refinements (487 with the restarts) and 18 degree
    computations (50)."""
    f = load_newform(LEVEL47A.read_text())
    counts = {"refined": 0, "degree_over_q": 0}
    for cls, name in ((RealRootInterval, "refined"), (FieldElement, "degree_over_q")):
        original = getattr(cls, name)

        def counted(*args, _original=original, _name=name):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(cls, name, counted)
    with pytest.raises(NonnegativeFormNotFound):
        hecke.af_of_eigenform(f)
    assert 0 < counts["refined"] <= 17
    assert 0 < counts["degree_over_q"] <= 18


def test_conjugate_unit_images_jump_to_their_level(monkeypatch):
    """Each of level71a's three per-conjugate unit images, the first
    enclosure narrower than 10^-8, lies 10 or 11 quarter steps down its
    root's refinement ladder; eval_embedding reaches it with at most three
    root refinements, where walking the ladder made one a step.  The unit
    comes from one load and is counted on the roots of another, whose
    ladders no pipeline run has filled."""
    unit = hecke.af_of_eigenform(hecke.load_fixture("level71a")).unit.element
    f = hecke.load_fixture("level71a")
    unit = f.field.from_integers(unit.num, unit.den)
    counts = []
    original = RealRootInterval.refined

    def counted(self, max_width):
        counts[-1] += 1
        return original(self, max_width)

    monkeypatch.setattr(RealRootInterval, "refined", counted)
    for root in f.field.real_roots:
        counts.append(0)
        hecke._image_and_expanding(unit, root)
    assert len(counts) == 3
    assert all(0 < c <= 3 for c in counts)


def test_level47a_dominance_walks_share_their_ladders(monkeypatch):
    """find_unit's dominance walks (_exceeds_other_images) step the
    enclosures of each candidate at all four real roots of level47a's
    field, and every walk reads 2 to 4 levels of the roots' ladders.  Each
    level is refined once and kept on its root, so one level47a@3 run
    makes at most 20 root refinements (57 when every walk refined from the
    coarse root interval), and the walks compare integer enclosures, so
    they build no Fraction outside the ladder (_level), which builds a new
    level's width and endpoints."""
    f = load_newform(LEVEL47A.read_text())
    assert f.working_embedding_index() == 3
    refinements = _count(monkeypatch, "refined", RealRootInterval)
    state = {"walking": False, "laddering": False, "built": 0}
    level, walk, new = field._level, units._exceeds_other_images, Fraction.__new__

    def within(key, function):
        def wrapper(*args):
            outer, state[key] = state[key], True
            try:
                return function(*args)
            finally:
                state[key] = outer
        return wrapper

    def counted_new(cls, *args, **kwargs):
        if state["walking"] and not state["laddering"]:
            state["built"] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(field, "_level", within("laddering", level))
    monkeypatch.setattr(units, "_exceeds_other_images", within("walking", walk))
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    with pytest.raises(NonnegativeFormNotFound):
        hecke.af_of_eigenform(f)
    assert 0 < refinements[0] <= 20
    assert state["built"] == 0


def test_level47a_refines_its_root_by_newton_jumps(monkeypatch):
    """The expansion's basis enclosures refine level47a's root in five
    steps, to a width under 2^-104 and, doubling the bits, on to under
    2^-1544: at one sign per halving, 1550 of the run's 2542 evaluations of
    the scaled polynomial (_scaled_value).  Newton jumps take each doubling
    with a few signs, and each level of the root's ladder is refined once,
    so the run, at its default embedding 3, makes 112."""
    f = load_newform(LEVEL47A.read_text())
    assert f.working_embedding_index() == 3
    evaluations = _count(monkeypatch, "_scaled_value", field)
    with pytest.raises(NonnegativeFormNotFound):
        hecke.af_of_eigenform(f)
    assert 0 < evaluations[0] <= 112


def test_level47a_builds_few_fractions(monkeypatch):
    """Field elements are integer numerators over one denominator, and
    interval Horner sums run on scaled integers: one level47a run of
    af_of_eigenform builds under 20 000 Fractions (40 039 with Fraction
    coordinates), counted by wrapping Fraction.__new__."""
    f = load_newform(LEVEL47A.read_text())
    built = [0]
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built[0] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    with pytest.raises(NonnegativeFormNotFound):
        hecke.af_of_eigenform(f)
    assert built[0] < 20_000


def test_field_construction_builds_few_fractions(monkeypatch):
    """The char poly, the Sturm chain, its signs at the bisection cuts and
    the irreducibility checks run on integers: building the Perron field of
    the 4x4 block product of the digits (0,1,3), (4,0,5), (1,1,2) makes
    under 100 Fractions (726 with Fraction polynomials), counted by
    wrapping Fraction.__new__."""
    a = _BLOCK_PRODUCT
    built = [0]
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built[0] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    field.make_field(intmat.charpoly(a))
    assert built[0] < 100


_BLOCK_PRODUCT = mcf.convergent_matrix(((0, 1, 3), (4, 0, 5), (1, 1, 2)))


def test_field_construction_builds_one_sturm_chain(monkeypatch):
    """The Sturm chain that certifies the Perron field's polynomial
    squarefree also isolates its real roots: one chain per field, where
    checking and isolating separately built two."""
    chains = _count(monkeypatch, "sturm_chain", polynomial, field)
    field.make_field(intmat.charpoly(_BLOCK_PRODUCT))
    assert chains[0] == 1


def test_perron_eigenvector_makes_one_field_inverse(monkeypatch):
    """The eigenvector is column 0 of adj(uI - A), an integer recurrence
    in A and the char poly's coefficients; the one field inverse scales
    lam_1 to 1, where Gauss-Jordan over the field made one per pivot."""
    inverse = [0]
    original = FieldElement.inverse

    def counted(self):
        inverse[0] += 1
        return original(self)

    monkeypatch.setattr(FieldElement, "inverse", counted)
    mcf.satz12_eigenvector(_BLOCK_PRODUCT)
    assert inverse[0] == 1


@pytest.mark.parametrize("name", ["level11a", "level23a", "level71a", "level71b", "level47a"])
def test_loading_a_fixture_builds_no_fraction_per_coefficient(monkeypatch, name):
    """The coordinates of the schema grammar parse straight to integers: a
    load makes a few Fractions (the field's real-root isolation), not one
    per coordinate (405 to 1620 when each went through Fraction(str))."""
    if name == "level47a":
        text = LEVEL47A.read_text()
    else:
        from importlib import resources

        text = resources.files("heckeaf.fixtures").joinpath(f"{name}.json").read_text()
    calls = [0]
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        calls[0] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    load_newform(text)
    assert calls[0] < 50


def test_level47a_carries_its_row_enclosures(monkeypatch):
    """The attractor expansion carries each state's row enclosures from the
    step that made it, and encloses rows from the basis bounds only when
    the carried ones fail to separate: one level47a run makes 58 _enclose
    calls (2058 when every row of every state was enclosed), with the same
    5 sharpenings, and still ends in NonnegativeFormNotFound."""
    f = load_newform(LEVEL47A.read_text())
    assert f.working_embedding_index() == 3
    counts = {"_enclose": 0, "_sharpen": 0}
    for name in counts:
        original = getattr(mcf._BasisEnclosure, name)

        def counted(*args, _original=original, _name=name):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(mcf._BasisEnclosure, name, counted)
    with pytest.raises(NonnegativeFormNotFound):
        hecke.af_of_eigenform(f)
    assert 0 < counts["_enclose"] <= 58
    assert counts["_sharpen"] == 5


def test_level47a_form_search_carries_its_powers(monkeypatch):
    """level47a@3's form search forms C_B = B^-1 A B once for each of its
    two bases (the identity's is A) and steps B^-1 A^k B by one product
    with it per power: 24 integer matrix products in the whole run, where
    A^k by repeated squaring at every power (12 mat_pow calls) and both
    base-change products at every (power, base) made 107."""
    f = load_newform(LEVEL47A.read_text())
    assert f.working_embedding_index() == 3
    products = _count(monkeypatch, "mat_mul", intmat, units)
    with pytest.raises(NonnegativeFormNotFound):
        hecke.af_of_eigenform(f)
    assert 0 < products[0] <= 26


_STATIONARY = ["level23a@0", "level23a@1", "level71a@0", "level71a@1", "level71a@2",
               "level71b@0", "level71b@1", "level71b@2"]


@pytest.mark.parametrize("spec", _STATIONARY)
def test_stationary_runs_compute_no_lll_base(monkeypatch, spec):
    """Every bundled stationary run cycles and reads its form off the
    cycle, so none computes the LLL transform, forms a signed conjugate,
    asks the Perron test, factorizes or expands a round trip."""
    name, index = spec.split("@")
    f = dataclasses.replace(hecke.load_fixture(name), embedding_index=int(index))
    calls = {name: _count(monkeypatch, name, units, hecke)
             for name in ("_lll_transform", "_nonnegative_conjugates", "_is_top_real_root")}
    calls.update((name, _count(monkeypatch, name, mcf)) for name in ("bauer_factorize", "check_period"))
    assert isinstance(hecke.af_of_eigenform(f).af, hecke.StationaryAF)
    assert {name: c[0] for name, c in calls.items()} == dict.fromkeys(calls, 0)


@pytest.mark.parametrize("spec", _STATIONARY)
def test_round_trip_expansion_reads_the_ladder_it_finds(monkeypatch, spec):
    """The round trip of every bundled stationary run is the module's own
    expansion's cycle (_attractor_data, claim 3): the run expands once and
    never calls mcf.check_period, whose second expansion would only repeat
    the period, so the round trip refines the root no further."""
    name, index = spec.split("@")
    f = dataclasses.replace(hecke.load_fixture(name), embedding_index=int(index))
    check = _count(monkeypatch, "check_period", mcf)
    counts = _count_steps(monkeypatch)
    result = hecke.af_of_eigenform(f)
    assert isinstance(result.af, hecke.StationaryAF)
    assert check[0] == 0
    assert counts[0] == 1
    assert result.realization.roundtrip.expansion.period == result.af.digits


def test_level47a_expansion_recomputes_the_same_states(capsys):
    """tools/expand_times.py counts the states whose row enclosures are
    enclosed again from the basis bounds: with the carried step taken
    inline, level47a@3's 512-state expansion still encloses 12 of them
    again, as many as when the enclosure object carried the step."""
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "tools" / "expand_times.py"
    spec = importlib.util.spec_from_file_location("expand_times", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main([f"{LEVEL47A}@3", "--steps", "512"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[:3] == ["3", "511", "no"]
    assert row[-3:-1] == ["1536", "12"]
