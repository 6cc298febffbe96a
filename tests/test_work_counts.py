"""One af_of_eigenform run computes each intermediate fact once.

The functions are wrapped with counters from the test, so nothing in the
library carries instrumentation.
"""

import dataclasses
from fractions import Fraction
from pathlib import Path

import pytest

from heckeaf import afalg, cli, hecke, mcf
from heckeaf.errors import NonnegativeFormNotFound
from heckeaf.exactnum import field, intmat, polynomial, units
from heckeaf.exactnum.field import FieldElement, RealRootInterval
from heckeaf.exactnum.lattice import endomorphism_ring
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
    f = hecke.load_fixture(label)
    attractor = _count(monkeypatch, "_attractor_data", units, hecke)
    roundtrip = _count(monkeypatch, "roundtrip_record", mcf, units, hecke)
    eigenvector = _count(monkeypatch, "satz12_eigenvector", mcf, units, hecke, afalg)
    factorize = _count(monkeypatch, "bauer_factorize", mcf, units, hecke, afalg)
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
    assert factorize[0] == 1
    # no matrix inverse: the attractor expansion and the LLL step carry
    # their basis changes' inverses as integer matrices
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
    the unit search runs no Jacobi-Perron expansion of its own, and the
    run expands twice, the attractor and the round trip."""
    f = hecke.load_fixture("level23a")
    attractor = _count(monkeypatch, "_attractor_data", units, hecke)
    counts = _count_steps(monkeypatch)
    in_find_unit = [0, 0]
    original = units.find_unit

    def counted(*args, **kwargs):
        before = list(counts)
        unit = original(*args, **kwargs)
        in_find_unit[0] += counts[0] - before[0]
        in_find_unit[1] += counts[1] - before[1]
        return unit

    monkeypatch.setattr(hecke, "find_unit", counted)
    result = hecke.af_of_eigenform(f)
    assert isinstance(result.af, hecke.StationaryAF)
    assert attractor[0] == 1
    assert counts[0] == 2 and counts[1] > 0
    assert in_find_unit == [0, 0]


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


def test_find_unit_expands_its_own_module_when_it_differs(monkeypatch):
    """A module that is not a ring has End(m) != m; the unit search then
    expands the order's module, not the one shared with the form search."""
    rows = ((1, 0, 0), (0, 1, 0), (0, 0, 2))
    f = dataclasses.replace(
        hecke.load_fixture("level71a"),
        module_rows=tuple(tuple(Fraction(x) for x in row) for row in rows),
    )
    module = hecke.module_of_eigenform(f)
    order_module = endomorphism_ring(module).module
    assert order_module != module
    expanded = []
    original = units._attractor_data

    def recorded(m, root, *args):
        expanded.append(m)
        return original(m, root, *args)

    class Stop(Exception):
        pass

    def stop(*args, **kwargs):
        raise Stop

    monkeypatch.setattr(units, "_attractor_data", recorded)
    monkeypatch.setattr(hecke, "_attractor_data", recorded)
    monkeypatch.setattr(hecke, "make_nonnegative", stop)
    with pytest.raises(Stop):
        hecke.af_of_eigenform(f)
    assert expanded == [module, order_module]


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


def test_load_checks_multiplicativity_once_per_coefficient(monkeypatch):
    """Loading level71a (200 coefficients) makes one field product per
    coefficient that is not a prime power, plus the prime-power recursion:
    153 products, where the pairwise coprime scan made 416.  The checks
    run on integer numerators through the product kernel that
    FieldElement.__mul__ also calls, so the kernel is what is counted, and
    a count of 0 would mean that nothing was checked."""
    text = (Path(hecke.__file__).parent / "fixtures" / "level71a.json").read_text()
    products = [0]
    original = field.NumberField.mul_numerators

    def counted(self, a, b):
        products[0] += 1
        return original(self, a, b)

    monkeypatch.setattr(field.NumberField, "mul_numerators", counted)
    load_newform(text)
    assert 0 < products[0] < 200


def test_level47a_walks_each_enclosure_once(monkeypatch):
    """Every certified embedding question walks one refinement sequence,
    with no eps-restart from the coarse root interval, and the unit search
    finds each candidate's degree once: a level47a run makes 253 root
    refinements (487 with the restarts) and 34 degree computations (50)."""
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
    assert counts["refined"] < 300
    assert counts["degree_over_q"] <= 34


def test_conjugate_unit_images_jump_to_their_level(monkeypatch):
    """Each of level71a's three per-conjugate unit images, the first
    enclosure narrower than 10^-8, lies 10 or 11 quarter steps down its
    root's refinement ladder; eval_embedding reaches it with at most three
    root refinements, where walking the ladder made one a step."""
    f = hecke.load_fixture("level71a")
    unit = hecke.af_of_eigenform(f).unit.element
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


def test_level47a_refines_its_root_by_newton_jumps(monkeypatch):
    """The expansion's basis enclosures refine level47a's root in five
    steps, to a width under 2^-104 and, doubling the bits, on to under
    2^-1544: at one sign per halving, 1550 of the run's 2542 evaluations of
    the scaled polynomial (_scaled_value).  Newton jumps take each doubling
    with a few signs, so the run, at its default embedding 3, makes under
    1300."""
    f = load_newform(LEVEL47A.read_text())
    assert f.working_embedding_index() == 3
    evaluations = _count(monkeypatch, "_scaled_value", field)
    with pytest.raises(NonnegativeFormNotFound):
        hecke.af_of_eigenform(f)
    assert evaluations[0] < 1300


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
    the carried ones fail to separate: one level47a run makes under 300
    _enclose calls (2058 when every row of every state was enclosed), with
    the same 5 sharpenings, and still ends in NonnegativeFormNotFound."""
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
    assert counts["_enclose"] < 300
    assert counts["_sharpen"] == 5
