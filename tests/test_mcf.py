import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from heckeaf import hecke, mcf
from heckeaf.errors import (
    DegenerateSpectrum,
    HeckeafError,
    NotFactorizable,
    ReducibleCharPoly,
    RoundTripMismatch,
)
from heckeaf.exactnum import IntPolynomial, eval_embedding, make_field, sign_at
from heckeaf.exactnum.intmat import charpoly, mat_identity

from util import admissible_digits

LEVEL47A = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "level47a.json"


def test_euclid_examples():
    assert mcf.euclid_gcd(48, 18) == (6, [2, 1, 2])
    assert mcf.euclid_gcd(7, 7) == (7, [1])
    assert mcf.euclid_gcd(355, 113) == (1, [3, 7, 16])
    with pytest.raises(ValueError):
        mcf.euclid_gcd(3, 5)


def test_regular_cf_rational():
    e = mcf.regular_cf(Fraction(355, 113))
    assert e.terminated
    assert e.digits == ((3,), (7,), (16,))
    e = mcf.regular_cf(Fraction(2))
    assert e.terminated and e.digits == ((2,),)
    with pytest.raises(ValueError):
        mcf.regular_cf(Fraction(0))


def test_regular_cf_matches_euclid_quotients():
    rng = random.Random(5)
    for _ in range(60):
        a = rng.randint(2, 10 ** 6)
        b = rng.randint(1, a)
        _, quotients = mcf.euclid_gcd(a, b)
        e = mcf.regular_cf(Fraction(a, b))
        assert e.terminated
        assert [d[0] for d in e.digits] == quotients


def ref_regular_cf(x: Fraction, max_terms: int):
    """The rational branch of regular_cf as a Fraction loop: digit, then
    the reciprocal of the fractional part, until it vanishes or the
    budget runs out."""
    digits = []
    cur = x
    for _ in range(max_terms):
        a = cur.numerator // cur.denominator
        digits.append((a,))
        frac = cur - a
        if frac == 0:
            return tuple(digits), True
        cur = 1 / frac
    return tuple(digits), False


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10 ** 40), st.integers(1, 10 ** 40), st.integers(0, 120))
def test_regular_cf_matches_the_fraction_loop(p, q, max_terms):
    """Euclid's quotient ladder, cut to the budget, gives the digits and the
    termination flag of the Fraction loop, on either side of 1."""
    x = Fraction(p, q)
    e = mcf.regular_cf(x, max_terms=max_terms)
    assert (e.digits, e.terminated) == ref_regular_cf(x, max_terms)
    assert e.period == ()


def test_regular_cf_sqrt2():
    field = make_field(IntPolynomial((-2, 0, 1)))
    e = mcf.regular_cf(field.gen, field.real_roots[-1])
    assert e.preperiod == ((1,),)
    assert e.period == ((2,),)


def test_regular_cf_golden():
    field = make_field(IntPolynomial((-1, -1, 1)))
    e = mcf.regular_cf(field.gen, field.real_roots[-1])
    assert e.is_purely_periodic()
    assert e.period == ((1,),)


def test_jpa_step_examples():
    field = make_field(IntPolynomial((-2, 0, 1)))
    root = field.real_roots[-1]
    d, nxt = mcf.jpa_step((field.gen,), root)
    assert d == (1,)
    assert nxt[0] == field.one + field.gen  # 1/(sqrt2 - 1) = 1 + sqrt2

    d, nxt = mcf.jpa_step((field.from_rational(2),), root)
    assert d == (2,) and nxt is None


def test_jpa_step_cubic_with_float_shadow():
    import mpmath

    mpmath.mp.dps = 50
    field = make_field(IntPolynomial((-1, -1, 0, 1)))
    root = field.real_roots[-1]
    t = field.gen
    d, nxt = mcf.jpa_step((t, t * t), root)
    assert d == (1, 1)
    # 50-digit shadow of the same step
    tv = mpmath.findroot(lambda x: x ** 3 - x - 1, 1.3247)
    x = tv - 1
    shadow = ((tv * tv - 1) / x, 1 / x)
    for elem, target in zip(nxt, shadow):
        lo, hi = eval_embedding(elem, root, Fraction(1, 10 ** 30))
        assert lo <= Fraction(str(mpmath.nstr(target, 25))) <= hi or abs(
            Fraction((lo + hi) / 2) - Fraction(str(mpmath.nstr(target, 25)))
        ) < Fraction(1, 10 ** 20)


def test_step_soundness_symbolic():
    # (1, theta)^T is proportional to B(d) (1, theta')^T, exactly
    cases = []
    f1 = make_field(IntPolynomial((-1, -1, 0, 1)))
    cases.append(((f1.gen, f1.gen * f1.gen), f1.real_roots[-1]))
    f2 = make_field(IntPolynomial((-5, 0, 1)))
    phi = f2.element((Fraction(1, 2), Fraction(1, 2)))
    cases.append(((phi,), f2.real_roots[-1]))
    for theta, root in cases:
        field = theta[0].field
        state = theta
        for _ in range(6):
            d, nxt = mcf.jpa_step(state, root)
            if nxt is None:
                break
            n = len(state) + 1
            block = mcf.jpa_block(d, n)
            vec_new = (field.one,) + nxt
            image = []
            for row in block:
                acc = field.zero
                for coef, comp in zip(row, vec_new):
                    if coef:
                        acc = acc + coef * comp
                image.append(acc)
            # image must be c * (1, state) with c = image[0]
            c = image[0]
            vec_old = (field.one,) + state
            for img, old in zip(image, vec_old):
                assert img == c * old
            state = nxt


def test_jpa_expand_examples():
    f2 = make_field(IntPolynomial((-5, 0, 1)))
    phi = f2.element((Fraction(1, 2), Fraction(1, 2)))
    e = mcf.jpa_expand((phi,), f2.real_roots[-1])
    assert e.is_purely_periodic() and e.period == ((1,),)

    e = mcf.regular_cf(Fraction(3, 2))
    assert e.terminated and e.digits == ((1,), (2,))

    with pytest.raises(ValueError):
        mcf.jpa_expand((f2.from_rational(-1),), f2.real_roots[-1])


def test_jpa_budget_exhaustion_is_not_an_error():
    field = make_field(IntPolynomial((-1, 5, -5, -1, 1)))
    t = field.gen
    e = mcf.jpa_expand((t, t * t, t * t * t), field.real_roots[-1], max_steps=25)
    assert not e.terminated and not e.is_periodic()
    assert len(e.digits) == 25


def test_convergent_matrix_examples():
    assert mcf.convergent_matrix([], 2) == ((1, 0), (0, 1))
    assert mcf.convergent_matrix([(1,)]) == ((0, 1), (1, 1))
    assert mcf.convergent_matrix([(2,), (2,), (2,)]) == ((2, 5), (5, 12))
    with pytest.raises(ValueError):
        mcf.convergent_matrix([])


def test_bauer_examples():
    assert mcf.bauer_factorize(((0, 1), (1, 1))) == [(1,)]
    assert mcf.bauer_factorize(((2, 5), (5, 12))) == [(2,), (2,), (2,)]
    with pytest.raises(ValueError):
        mcf.bauer_factorize(((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        mcf.bauer_factorize(((1, 1), (1, 1)))  # determinant 0
    with pytest.raises(ValueError):
        mcf.bauer_factorize(((1, -1), (0, 1)))  # negative entry


def test_bauer_stall_reports_partial():
    # the 2-cycle permutation on 3 vertices loops under the peel rule
    stalled = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    with pytest.raises(NotFactorizable) as info:
        mcf.bauer_factorize(stalled)
    assert isinstance(info.value.partial, list)


def test_block_identity_and_digit_recovery():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.choice([2, 3, 4])
        digits = admissible_digits(rng, n, rng.randint(1, 8))
        a = mcf.convergent_matrix(digits, n)
        recovered = mcf.bauer_factorize(a)
        assert list(recovered) == list(digits)
        assert mcf.convergent_matrix(recovered, n) == a


def test_satz12_examples():
    u, lam = mcf.satz12_eigenvector(((0, 1), (1, 1)))
    assert u.min_poly() == IntPolynomial((-1, -1, 1))
    assert lam[0] == 1
    assert lam[1] == u  # theta equals the golden ratio

    u2, lam2 = mcf.satz12_eigenvector(((1, 1), (1, 2)))
    assert u2.min_poly() == IntPolynomial((1, -3, 1))
    # lambda_2 = (1 + sqrt5)/2: it satisfies x^2 - x - 1 = 0
    assert (lam2[1] * lam2[1] - lam2[1] - 1).is_zero()

    with pytest.raises(DegenerateSpectrum):
        mcf.satz12_eigenvector(((1, 0), (0, 1)))


def test_satz12_eigen_residual_and_positivity():
    rng = random.Random(17)
    field_checks = 0
    while field_checks < 8:
        n = rng.choice([2, 3])
        digits = admissible_digits(rng, n, rng.randint(1, 5))
        a = mcf.convergent_matrix(digits, n)
        try:
            u, lam = mcf.satz12_eigenvector(a)
        except (ReducibleCharPoly, DegenerateSpectrum):
            continue
        field_checks += 1
        field = u.field
        root = mcf.perron_embedding(field)
        for i in range(n):
            acc = field.zero
            for j in range(n):
                acc = acc + a[i][j] * lam[j]
            assert acc == u * lam[i]
        for v in lam:
            assert sign_at(v, root) > 0


def ref_perron_vector(a, u):
    """The kernel vector of A - uI by Gauss-Jordan over the field, scaled
    to lam_1 = 1: the elimination the adjugate column replaced."""
    n = len(a)
    field = u.field
    rows = [[field.from_rational(a[i][j]) - (u if i == j else 0) for j in range(n)]
            for i in range(n)]
    pivot_row = {}
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [v * inv for v in rows[r]]
        for i in range(n):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivot_row[c] = r
        r += 1
    free = next(c for c in range(n) if c not in pivot_row)
    vec = [field.zero] * n
    vec[free] = field.one
    for c, pr in pivot_row.items():
        vec[c] = -rows[pr][free]
    inv = vec[0].inverse()
    return tuple(v * inv for v in vec)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(1, 4), st.integers(0, 10 ** 6))
def test_satz12_matches_the_field_elimination(n, length, seed):
    """The adjugate column is the Gauss-Jordan kernel vector exactly, it is
    positive at the Perron embedding, and A lam = x lam holds modulo the
    char poly in sympy's Q[x]."""
    a = mcf.convergent_matrix(admissible_digits(random.Random(seed), n, length), n)
    try:
        u, lam = mcf.satz12_eigenvector(a)
    except ReducibleCharPoly:
        assume(False)
    assert lam == ref_perron_vector(a, u)
    root = mcf.perron_embedding(u.field)
    assert all(sign_at(v, root) > 0 for v in lam)
    x = sympy.symbols("x")
    chi = sympy.Poly(list(reversed(charpoly(a).coeffs)), x)
    polys = [sympy.Poly(list(reversed([sympy.Rational(c.numerator, c.denominator)
                                       for c in v.coords])), x, domain="QQ") for v in lam]
    for i in range(n):
        lhs = sum((a[i][j] * polys[j] for j in range(n)), sympy.Poly(0, x, domain="QQ"))
        assert (lhs - x * polys[i]).rem(chi).is_zero


def test_satz12_rejects_imprimitive():
    with pytest.raises(DegenerateSpectrum):
        mcf.satz12_eigenvector(((0, 1), (1, 0)))


def test_satz12_rejects_reducible_charpoly():
    # primitive, unimodular, char poly (x+1)(x^2-x-1)
    a = ((0, 0, 1), (1, 0, 1), (1, 1, 0))
    from heckeaf.exactnum.intmat import charpoly, is_primitive

    assert is_primitive(a)
    assert charpoly(a) == IntPolynomial((-1, -2, 0, 1))
    with pytest.raises(ReducibleCharPoly):
        mcf.satz12_eigenvector(a)


def _outcome(function, a):
    """function(a), or the type of the HeckeafError or ValueError it raises."""
    try:
        return function(a)
    except (HeckeafError, ValueError) as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(1, 5), st.integers(0, 10 ** 6))
def test_perron_charpoly_is_the_eigenvector_fields_minpoly(n, length, seed):
    """perron_charpoly reads the minimal polynomial of satz12_eigenvector's
    field, or raises the same error type, on drawn cycle products."""
    a = mcf.convergent_matrix(admissible_digits(random.Random(seed), n, length), n)
    expected = _outcome(lambda b: mcf.satz12_eigenvector(b)[0].field.minpoly, a)
    assert _outcome(mcf.perron_charpoly, a) == expected


def test_perron_charpoly_raises_as_satz12_eigenvector(monkeypatch):
    """The identity, an imprimitive permutation, a reducible char poly
    ((x+1)(x^2-x-1)), a negative entry and determinant 2 raise the same
    types from perron_charpoly as from satz12_eigenvector; a field-free
    call builds no NumberField."""
    cases = {
        ((1, 0), (0, 1)): DegenerateSpectrum,
        ((0, 1), (1, 0)): DegenerateSpectrum,
        ((0, 0, 1), (1, 0, 1), (1, 1, 0)): ReducibleCharPoly,
        ((1, -1), (1, 0)): ValueError,
        ((1, 1), (1, 3)): ValueError,
    }
    for a, error in cases.items():
        assert _outcome(mcf.satz12_eigenvector, a) is error
        assert _outcome(mcf.perron_charpoly, a) is error
    built = []
    monkeypatch.setattr(mcf, "make_field", lambda poly: built.append(poly))
    assert mcf.perron_charpoly(((1, 1), (1, 2))) == IntPolynomial((1, -3, 1))
    assert built == []


def test_periodicity_roundtrip_examples():
    e = mcf.periodicity_roundtrip(((0, 1), (1, 1)))
    assert e.is_purely_periodic() and e.period == ((1,),)

    e = mcf.periodicity_roundtrip(((2, 5), (5, 12)))
    assert e.preperiod == () and e.period == ((2,),)

    a = mcf.convergent_matrix([(1, 1), (1, 2)])
    e = mcf.periodicity_roundtrip(a)
    assert e.preperiod == () and e.period == ((1, 1), (1, 2))


@pytest.mark.parametrize("a", [((0, 1), (1, 1)), ((2, 5), (5, 12)),
                               mcf.convergent_matrix([(1, 1), (1, 2)])])
def test_roundtrip_record_carries_what_it_computed(a):
    record = mcf.roundtrip_record(a)
    assert record.digits == tuple(mcf.bauer_factorize(a))
    assert (record.perron_value, record.eigenvector) == mcf.satz12_eigenvector(a)
    assert record.perron_value.field.minpoly == charpoly(a)
    assert record.expansion == mcf.periodicity_roundtrip(a)


def test_check_period_rejects_a_negative_leading_coordinate():
    """The expansion needs sigma(lam_0) > 0; a negated Perron vector ends in
    the error jpa_expand gives a non-positive coordinate, instead of
    sharpening the enclosure of lam_0 forever."""
    u, lam = mcf.satz12_eigenvector(((0, 1), (1, 1)))
    root = mcf.perron_embedding(u.field)
    with pytest.raises(ValueError, match="positive"):
        mcf.check_period(((1,),), u, tuple(-v for v in lam), root)


# -- the field-state expansion, as it was ----------------------------------

def ref_jpa_expand(theta, root, max_steps):
    """Exact field-element states stepped by mcf.jpa_step, with repeats
    found by hashing their coordinates."""
    theta = tuple(theta)
    if not theta:
        return mcf.JpaExpansion(1, (), (), True)
    n = len(theta) + 1
    for t in theta:
        if sign_at(t, root) <= 0:
            raise ValueError("jpa_expand needs strictly positive coordinates")
    seen = {tuple(t.coords for t in theta): 0}
    digits = []
    state = theta
    for step in range(max_steps):
        digit, nxt = mcf.jpa_step(state, root)
        digits.append(digit)
        if nxt is None:
            return mcf.JpaExpansion(n, tuple(digits), (), True)
        key = tuple(t.coords for t in nxt)
        if key in seen:
            j = seen[key]
            return mcf.JpaExpansion(n, tuple(digits[:j]), tuple(digits[j:]), False)
        seen[key] = step + 1
        state = nxt
    return mcf.JpaExpansion(n, tuple(digits), (), False)


_EXPAND_FIELDS = [make_field(IntPolynomial(c)) for c in (
    (-2, 0, 1), (-1, -1, 1), (-7, 0, 1),            # degree 2
    (-1, -1, 0, 1), (1, -3, 0, 1), (-2, 0, 0, 1),   # degree 3
    (1, 0, -10, 0, 1), (-2, 0, 0, 0, 1), (-1, 5, -5, -1, 1),  # degree 4
)]
_SMALL = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


@st.composite
def _expansion_inputs(draw):
    """theta of 1-3 coordinates, each rational, a rational affine image of
    an earlier coordinate (Q-dependent), or a generic element, turned
    positive at a drawn real root when its image is negative."""
    field = draw(st.sampled_from(_EXPAND_FIELDS))
    root = draw(st.sampled_from(field.real_roots))
    theta = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("rational", "dependent", "generic")))
        if kind == "rational" or (kind == "dependent" and not theta):
            t = field.from_rational(draw(_SMALL))
        elif kind == "dependent":
            t = draw(_SMALL) * draw(st.sampled_from(theta)) + draw(_SMALL)
        else:
            t = field.element([draw(_SMALL) for _ in range(field.degree)])
        theta.append(-t if sign_at(t, root) < 0 else t)
    return tuple(theta), root, draw(st.sampled_from((5, 20, 60)))


def _expansion_outcome(expand, theta, root, max_steps):
    try:
        return expand(theta, root, max_steps)
    except ValueError:
        return ValueError


@settings(max_examples=150, deadline=None)
@given(_expansion_inputs())
def test_jpa_expand_matches_the_field_state_loop(case):
    theta, root, max_steps = case
    assert (_expansion_outcome(mcf.jpa_expand, theta, root, max_steps)
            == _expansion_outcome(ref_jpa_expand, theta, root, max_steps))


class RefEnclosure:
    """The expansion's basis enclosures as they were before row enclosures
    were carried: every row of every state is enclosed from the basis
    bounds.  Records the precisions it sharpens to."""

    def __init__(self, basis, root, prec):
        self.basis, self.root, self.precisions = basis, root, []
        self.sharpen(prec)

    def sharpen(self, prec):
        self.root = self.root.refined(Fraction(1, 1 << (prec + 8)))
        self.precisions.append(prec)
        self.prec = prec
        self.bounds = []
        for g in self.basis:
            lo, hi = eval_embedding(g, self.root, Fraction(1, 1 << prec))
            self.bounds.append((lo.numerator * (1 << prec) // lo.denominator,
                                -(-hi.numerator * (1 << prec) // hi.denominator)))

    def enclose(self, row):
        lo = sum(c * (a if c > 0 else b) for c, (a, b) in zip(row, self.bounds))
        hi = sum(c * (b if c > 0 else a) for c, (a, b) in zip(row, self.bounds))
        return lo, hi

    def is_zero(self, row):
        return mcf._combination(row, self.basis, self.basis[0].field).is_zero()

    def ratio_floors(self, w, bits):
        while True:
            lo0, hi0 = self.enclose(w[0])
            if lo0 > 0:
                key = []
                for row in w[1:]:
                    lo, hi = self.enclose(row)
                    floor_lo = (lo << bits) // (hi0 if lo >= 0 else lo0)
                    floor_hi = (hi << bits) // (lo0 if hi >= 0 else hi0)
                    if floor_lo != floor_hi and not self.is_zero(
                            [(x << bits) - floor_hi * y for x, y in zip(row, w[0])]):
                        break
                    key.append(floor_hi)
                else:
                    return tuple(key)
            elif hi0 < 0:
                raise ValueError("the expansion needs a positive leading coordinate")
            elif self.is_zero(w[0]):
                return None
            self.sharpen(2 * self.prec)


def ref_expand_states(basis, root, w, max_states):
    """mcf._expand_states as it was, on RefEnclosure: the outcome, or
    ValueError, and the precisions sharpened to."""
    n = len(basis)
    bits = mcf._FINGERPRINT_BITS
    enclosure = RefEnclosure(basis, root, bits + 32)
    seen, states, digits = {}, [], []
    try:
        for step in range(max_states):
            key = enclosure.ratio_floors(w, bits)
            if key is None:
                return (digits, states, None, True), enclosure.precisions
            for start in seen.get(key, ()):
                if mcf._same_direction(states[start], w, basis, basis[0].field):
                    return (digits, states, start, False), enclosure.precisions
            if step == max_states - 1:
                break
            seen.setdefault(key, []).append(step)
            states.append(w)
            digit = tuple(f >> bits for f in key)
            digits.append(digit)
            w = tuple(tuple(x - d * y for x, y in zip(w[j], w[0]))
                      for j, d in zip(range(1, n), digit)) + (w[0],)
    except ValueError:
        return ValueError, enclosure.precisions
    return (digits, states, None, False), enclosure.precisions


def _engine_run(basis, root, w, max_states):
    """mcf._expand_states's outcome, or ValueError, and the precisions its
    enclosure sharpened to."""
    precisions = []
    sharpen = mcf._BasisEnclosure._sharpen

    def recorded(self, prec):
        precisions.append(prec)
        sharpen(self, prec)

    mcf._BasisEnclosure._sharpen = recorded
    try:
        return mcf._expand_states(basis, root, w, max_states), precisions
    except ValueError:
        return ValueError, precisions
    finally:
        mcf._BasisEnclosure._sharpen = sharpen


@settings(max_examples=150, deadline=None)
@given(_expansion_inputs(), st.booleans())
def test_expand_states_matches_the_recomputing_engine(case, negate):
    """Carrying the row enclosures through each step changes no digit,
    state, repeat, termination or error, and no sharpened precision; a
    negated first basis element gives the negative-leading-coordinate
    error on both."""
    theta, root, max_steps = case
    basis = (-theta[0].field.one if negate else theta[0].field.one,) + theta
    w = mat_identity(len(basis))
    assert (_engine_run(basis, root, w, max_steps + 1)
            == ref_expand_states(basis, root, w, max_steps + 1))


@pytest.mark.parametrize("index", range(4))
def test_expand_states_matches_the_recomputing_engine_on_level47a(index):
    """level47a's 512-state attractor expansions, which sharpen up to 1536
    bits and do not repeat, at each of the four embeddings."""
    f = hecke.load_newform(LEVEL47A.read_text())
    basis = hecke.module_of_eigenform(f).basis_elements()
    root = f.field.real_roots[index]
    signs = [sign_at(g, root) for g in basis]
    s_diag = tuple(tuple(signs[i] if i == j else 0 for j in range(4)) for i in range(4))
    got = _engine_run(basis, root, s_diag, 512)
    assert got == ref_expand_states(basis, root, s_diag, 512)
    (digits, _, start, terminated), precisions = got
    assert (len(digits), start, terminated) == (511, None, False)
    assert len(precisions) > 3


def ref_cycles_agree(p, d) -> bool:
    """Whether two digit cycles generate the same bi-infinite sequence up
    to phase (cyclic rotation after extending to a common length)."""
    if not p or not d:
        return False
    if len(p[0]) != len(d[0]):
        return False
    length = lcm(len(p), len(d))
    pp = tuple(p) * (length // len(p))
    dd = tuple(d) * (length // len(d))
    return any(dd[r:] + dd[:r] == pp for r in range(length))


def ref_roundtrip_record(a):
    """The round trip as an open-ended expansion: expand the Perron vector
    until a state repeats and compare the detected cycle with the Bauer
    digits up to rotation and repetition."""
    digits = tuple(mcf.bauer_factorize(a))
    u, lam = mcf.satz12_eigenvector(a)
    root = mcf.perron_embedding(u.field)
    exp = ref_jpa_expand(lam[1:], root, max(64, 2 * len(digits)))
    if not exp.is_periodic() or not ref_cycles_agree(exp.period, digits):
        raise RoundTripMismatch(f"{exp} against {digits}")
    return mcf.RoundTrip(digits, u, lam, exp)


def _outcome(roundtrip, a):
    try:
        return roundtrip(a)
    except (HeckeafError, ValueError) as exc:
        return type(exc)


@st.composite
def _block_words(draw):
    """P^T B(d_1)...B(d_k) P for up to six digits with entries 0..3 and a
    permutation matrix P."""
    n = draw(st.integers(2, 4))
    digit = st.tuples(*[st.integers(0, 3)] * (n - 1))
    a = mcf.convergent_matrix(draw(st.lists(digit, min_size=1, max_size=6)), n)
    q = draw(st.permutations(range(n)))
    return tuple(tuple(a[q[i]][q[j]] for j in range(n)) for i in range(n))


@settings(max_examples=80, deadline=None)
@given(_block_words())
def test_roundtrip_matches_the_open_ended_expansion(a):
    assert _outcome(mcf.roundtrip_record, a) == _outcome(ref_roundtrip_record, a)


def test_roundtrip_rejects_in_one_digit_period(monkeypatch):
    """A candidate of the form search on x^3 - x^2 - 2x + 1 with module rows
    (1,0,0), (0,1,0), (0,0,2): 13 Bauer digits, and an expansion that the
    open-ended loop ran for thousands of steps without a repeat."""
    runs, steps = [0], [0]
    original = mcf._expand_states

    def counted(*args):
        result = original(*args)
        runs[0] += 1
        steps[0] += len(result[0])
        return result

    monkeypatch.setattr(mcf, "_expand_states", counted)
    a = ((19, 26, 10), (34, 47, 18), (32, 44, 17))
    assert len(mcf.bauer_factorize(a)) == 13
    with pytest.raises(RoundTripMismatch):
        mcf.roundtrip_record(a)
    assert runs[0] == 1
    assert 0 < steps[0] <= 13


def test_periodicity_roundtrip_mismatch_is_detected():
    # B(1)B(2)B(1)B(0) = [[3,2],[4,3]] factorizes fine, but its digit cycle
    # is not the canonical expansion of its Perron vector
    with pytest.raises(RoundTripMismatch):
        mcf.periodicity_roundtrip(((3, 2), (4, 3)))


def test_convergents_approach_the_limit():
    import mpmath

    mpmath.mp.dps = 50
    field = make_field(IntPolynomial((-1, -1, 1)))
    e = mcf.regular_cf(field.gen, field.real_roots[-1], max_terms=40)
    digits = (e.preperiod + e.period * 40)[:34]
    convs = mcf.convergents_from_digits(digits)
    target = (1 + mpmath.sqrt(5)) / 2
    errors = [abs(mpmath.mpf(p) / q - target) for p, q in convs]
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    assert errors[-1] < mpmath.mpf(10) ** -12


def test_jpa_convergent_columns_approach_theta():
    # last-column ratios of prefix block products tend to (1, theta)
    import mpmath

    mpmath.mp.dps = 50
    a = mcf.convergent_matrix([(1, 1), (1, 2)])
    u, lam = mcf.satz12_eigenvector(a)
    root = mcf.perron_embedding(u.field)
    eps = Fraction(1, 10 ** 40)
    targets = []
    for v in lam[1:]:
        lo, hi = eval_embedding(v, root, eps)
        targets.append(mpmath.mpf(str((lo + hi) / 2)))
    expansion = mcf.periodicity_roundtrip(a)
    digits = list(expansion.period) * 14
    errors = []
    for k in range(2, len(digits) + 1):
        m = mcf.convergent_matrix(digits[:k], 3)
        col = [mpmath.mpf(m[i][2]) for i in range(3)]
        err = max(abs(col[i + 1] / col[0] - t) for i, t in enumerate(targets))
        errors.append(err)
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    assert errors[-1] < mpmath.mpf(10) ** -12
