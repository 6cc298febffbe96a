"""One enclosure walk answers every certified embedding question.

The eps-restart loops that the walk replaced are kept here as references:
each question must get the same answer from the walk as from its loop,
on drawn elements of the level23a, level71a and level47a fields and of
x^3 - 2 (one real root), at every real root.  The Perron test, which now
walks the images of the value at every real root, keeps the Sturm
isolation of the char poly as its reference.  The interval Horner sum,
which now runs on integers scaled by the endpoints' common denominator,
keeps its Fraction version as its reference, and the loops run on it.

The walks now read integer triples (lo, hi, scale) off a refinement
ladder kept on each root.  The Fraction walks they replaced, which
refined every walk from the coarse root interval in quarter steps and
compared Fractions from a Horner sum that built them, are kept here as
references too (walk_*): the integer walks must give the same signs,
floors, dominance verdicts and representatives, on the bundled fields
and on drawn totally real cubics, whatever the ladders already hold.
"""

from fractions import Fraction
from functools import cache
from itertools import islice
from math import gcd
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from heckeaf import hecke
from heckeaf.exactnum import IntPolynomial, eval_embedding, exact_floor, make_field, sign_at
from heckeaf.exactnum.field import (
    RealRootInterval,
    _interval_horner,
    _level,
    enclosures,
    isolate_real_roots,
)
from heckeaf.errors import HeckeafError, NotSquarefree
from heckeaf.exactnum.intmat import charpoly
from heckeaf.exactnum.units import (
    _exceeds_other_images,
    _expanding_representative,
    _is_top_real_root,
    is_dominant_at,
)

LEVEL47A = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "level47a.json"
FIELDS = ("level23a", "level71a", "level47a", "x^3-2")


@cache
def _field(name):
    if name == "x^3-2":
        return make_field(IntPolynomial((-2, 0, 0, 1)))
    if name == "level47a":
        return hecke.load_newform(LEVEL47A.read_text()).field
    return hecke.load_fixture(name).field


# -- the eps-restart loops, as they were ------------------------------------

def ref_interval_horner(coords, lo, hi):
    """Evaluate sum coords[i] * t^i over t in [lo, hi] on Fractions."""
    cur_lo, cur_hi = Fraction(0), Fraction(0)
    for c in reversed(coords):
        cands = (cur_lo * lo, cur_lo * hi, cur_hi * lo, cur_hi * hi)
        cur_lo, cur_hi = min(cands) + c, max(cands) + c
    return cur_lo, cur_hi


def ref_eval_embedding(a, root, eps):
    eps = Fraction(eps)
    if a.is_rational():
        v = a.coords[0]
        return (v, v)
    iv = root
    while True:
        lo, hi = ref_interval_horner(a.coords, iv.lo, iv.hi)
        if hi - lo < eps:
            return (lo, hi)
        iv = iv.refined(iv.width / 4)


def ref_sign_at(a, root):
    if a.is_zero():
        return 0
    iv = root
    while True:
        lo, hi = ref_interval_horner(a.coords, iv.lo, iv.hi)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        iv = iv.refined(iv.width / 4)


def ref_exact_floor(a, root):
    if a.is_rational():
        v = a.coords[0]
        return v.numerator // v.denominator
    iv = root
    while True:
        lo, hi = ref_interval_horner(a.coords, iv.lo, iv.hi)
        flo = lo.numerator // lo.denominator
        fhi = hi.numerator // hi.denominator
        if flo == fhi:
            return flo
        iv = iv.refined(iv.width / 4)


def ref_is_dominant_at(u, root):
    field = u.field
    roots = field.real_roots
    if len(roots) <= 1:
        return True
    if u.degree_over_q() < field.degree:
        return False
    sq = u * u
    if sq.degree_over_q() < field.degree:
        return False
    idx = roots.index(root)
    eps = Fraction(1, 1000)
    while True:
        vals = [ref_eval_embedding(sq, r, eps) for r in roots]
        lo_e, hi_e = vals[idx]
        others = [v for j, v in enumerate(vals) if j != idx]
        if all(hi < lo_e for lo, hi in others):
            return True
        if any(lo > hi_e for lo, hi in others):
            return False
        eps /= 64


def ref_is_perron_image(value, root, poly):
    intervals = isolate_real_roots(poly)
    if not intervals:
        return False
    eps = Fraction(1, 1000)
    while True:
        lo, hi = ref_eval_embedding(value, root, eps)
        inside = [iv for iv in intervals if iv.lo < lo and hi < iv.hi]
        if len(inside) == 1:
            return inside[0] is intervals[-1]
        eps /= 64


def ref_abs_exceeds_one(elem, root):
    eps = Fraction(1, 100)
    while True:
        lo, hi = ref_eval_embedding(elem * elem, root, eps)
        if lo > 1:
            return True
        if hi < 1:
            return False
        eps /= 64


def ref_expanding_representative(alpha, root):
    field = alpha.field
    s = ref_sign_at(alpha, root)
    cand = alpha if s > 0 else -alpha
    cmp_one = ref_sign_at(cand - field.one, root)
    if cmp_one > 0:
        return cand
    if cmp_one == 0:
        return None
    inv = cand.inverse()
    if ref_sign_at(inv - field.one, root) > 0:
        return inv
    return None


# -- the Fraction walks, as they were -----------------------------------------

def fraction_interval_horner(num, den, lo, hi):
    """The interval Horner sum on integers that returned its two ends as
    Fractions: the accumulator after j steps kept times D^j over the
    endpoints' common denominator D, min and max of the four products."""
    dl, dh = lo.denominator, hi.denominator
    d = dl * dh // gcd(dl, dh)
    a = lo.numerator * (d // dl)
    b = hi.numerator * (d // dh)
    cur_lo = cur_hi = num[-1]
    scale = 1
    for c in num[-2::-1]:
        scale *= d
        cands = (cur_lo * a, cur_lo * b, cur_hi * a, cur_hi * b)
        c *= scale
        cur_lo, cur_hi = min(cands) + c, max(cands) + c
    scale *= den
    return Fraction(cur_lo, scale), Fraction(cur_hi, scale)


def walk_enclosures(a, root):
    """The Fraction enclosures of sigma(a) over root and its successive
    quarter-width refinements, each refined from the one before."""
    iv = root
    while True:
        yield fraction_interval_horner(a.num, a.den, iv.lo, iv.hi)
        iv = iv.refined(iv.width / 4)


def walk_sign_at(a, root):
    if a.is_zero():
        return 0
    for lo, hi in walk_enclosures(a, root):
        if lo > 0:
            return 1
        if hi < 0:
            return -1


def walk_exact_floor(a, root):
    if a.is_rational():
        return a.num[0] // a.den
    for lo, hi in walk_enclosures(a, root):
        if lo.numerator // lo.denominator == hi.numerator // hi.denominator:
            return lo.numerator // lo.denominator


def walk_exceeds_other_images(v, root):
    roots = v.field.real_roots
    idx = roots.index(root)
    for vals in zip(*(walk_enclosures(v, r) for r in roots)):
        lo_e, hi_e = vals[idx]
        others = [w for j, w in enumerate(vals) if j != idx]
        if all(hi < lo_e for lo, hi in others):
            return True
        if any(lo > hi_e for lo, hi in others):
            return False


def walk_expanding_representative(alpha, root):
    for lo, hi in walk_enclosures(alpha, root):
        if lo > 1:
            return alpha
        if hi < -1:
            return -alpha
        if 0 < lo and hi < 1:
            return alpha.inverse()
        if -1 < lo and hi < 0:
            return -alpha.inverse()


# -- drawn elements at drawn roots ---------------------------------------------

_RATIONALS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 6))


@st.composite
def _element_at_root(draw, fields=FIELDS, coords=_RATIONALS):
    field = _field(draw(st.sampled_from(fields)))
    root = draw(st.sampled_from(field.real_roots))
    element = field.element([draw(coords) for _ in range(field.degree)])
    return element, root


@settings(max_examples=60, deadline=None)
@given(_element_at_root())
def test_sign_floor_and_interval_match_the_loops(case):
    a, root = case
    assert sign_at(a, root) == ref_sign_at(a, root)
    assert exact_floor(a, root) == ref_exact_floor(a, root)
    for eps in (Fraction(1, 10), Fraction(1, 1000), Fraction(1, 10 ** 8), Fraction(1, 10 ** 12)):
        assert eval_embedding(a, root, eps) == ref_eval_embedding(a, root, eps)


_ENDPOINTS = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4))


@settings(max_examples=200, deadline=None)
@given(_element_at_root(), _ENDPOINTS, _ENDPOINTS)
def test_integer_horner_matches_the_fraction_horner(case, p, q):
    """The integer triple (lo, hi, scale) is the Fraction Horner's pair
    over scale > 0, on drawn elements and drawn intervals (a point
    interval included, and intervals on either side of 0 and across it),
    not only on root intervals."""
    a, _ = case
    lo, hi = min(p, q), max(p, q)
    low, high, scale = _interval_horner(a.num, a.den, lo, hi)
    assert scale > 0
    assert ((Fraction(low, scale), Fraction(high, scale)) == ref_interval_horner(a.coords, lo, hi)
            == fraction_interval_horner(a.num, a.den, lo, hi))


@settings(max_examples=40, deadline=None)
@given(_element_at_root())
def test_dominance_matches_the_loop(case):
    u, root = case
    assert is_dominant_at(u, root) == ref_is_dominant_at(u, root)


def test_dominance_is_vacuous_at_a_single_real_root():
    field = _field("x^3-2")
    (root,) = field.real_roots
    for u in (field.gen, field.from_rational(3), field.element((1, -1, 2))):
        assert is_dominant_at(u, root) and ref_is_dominant_at(u, root)


def _perron_verdicts(value, root):
    """(_is_top_real_root, ref_is_perron_image) on value and its integer
    multiplication matrix A, as make_nonnegative's power of the unit is on
    A^k; NotSquarefree stands for the verdict of a call that raised it."""
    a = value.field.mult_rows(value.num)
    verdicts = []
    for test in (lambda: _is_top_real_root(value, a, root),
                 lambda: ref_is_perron_image(value, root, charpoly(a))):
        try:
            verdicts.append(test())
        except NotSquarefree:
            verdicts.append(NotSquarefree)
    return verdicts


@settings(max_examples=40, deadline=None)
@given(_element_at_root(coords=st.integers(-20, 20)))
def test_perron_image_matches_the_loop(case):
    """value has integer coordinates, so A is an integer matrix with char
    poly prod_j (x - sigma_j(value))."""
    value, root = case
    new, ref = _perron_verdicts(value, root)
    assert new == ref


def test_perron_image_of_a_lower_degree_value_is_not_squarefree():
    """A value of lower degree repeats its images, so A's char poly is not
    squarefree: 3 in level71a's field, and alpha^2 = 5 + 2 sqrt(6) for
    alpha = sqrt(2) + sqrt(3), a root of x^4 - 10 x^2 + 1."""
    cubic = _field("level71a")
    quartic = make_field(IntPolynomial((1, 0, -10, 0, 1)))
    cases = [(cubic.from_rational(3), root) for root in cubic.real_roots]
    cases += [(quartic.gen * quartic.gen, root) for root in quartic.real_roots]
    for value, root in cases:
        assert _perron_verdicts(value, root) == [NotSquarefree, NotSquarefree]


@settings(max_examples=40, deadline=None)
@given(_element_at_root())
def test_expanding_questions_match_the_loops(case):
    alpha, root = case
    assume(not alpha.is_rational())
    assert hecke._image_and_expanding(alpha, root) == (
        ref_eval_embedding(alpha, root, Fraction(1, 10 ** 8)), ref_abs_exceeds_one(alpha, root))
    rep = _expanding_representative(alpha, root)
    assert rep == ref_expanding_representative(alpha, root)
    assert sign_at(rep - alpha.field.one, root) > 0


def test_expanding_representative_in_each_region():
    """level23a's generator, a root of x^2 + x - 1, has images 0.618 and
    -1.618: it and its negative at both roots put sigma(alpha) in each of
    (-inf, -1), (-1, 0), (0, 1) and (1, inf)."""
    field = _field("level23a")
    for alpha in (field.gen, -field.gen):
        for root in field.real_roots:
            rep = _expanding_representative(alpha, root)
            assert rep == ref_expanding_representative(alpha, root)
            assert hecke._image_and_expanding(alpha, root)[1] == ref_abs_exceeds_one(alpha, root)


@settings(max_examples=30, deadline=None)
@given(_element_at_root())
def test_enclosures_are_nested_and_contain_the_value(case):
    a, root = case
    walk = ((Fraction(lo, scale), Fraction(hi, scale)) for lo, hi, scale in enclosures(a, root))
    lo, hi = next(walk)
    for _ in range(6):
        inner_lo, inner_hi = next(walk)
        assert lo <= inner_lo <= inner_hi <= hi
        lo, hi = inner_lo, inner_hi
    assert lo <= ref_eval_embedding(a, root, Fraction(1, 10 ** 20))[0]
    assert ref_eval_embedding(a, root, Fraction(1, 10 ** 20))[1] <= hi


# -- the ladder: eval_embedding jumps to the level a width needs ---------------

@st.composite
def _irreducible_field(draw):
    """The field of a drawn monic irreducible polynomial of degree 2 to 6
    with a real root: each real root isolates an irrational number."""
    degree = draw(st.integers(2, 6))
    coeffs = [draw(st.integers(-30, 30)) for _ in range(degree)] + [1]
    try:
        field = make_field(IntPolynomial(tuple(coeffs)))
    except HeckeafError:  # reducible, or not squarefree
        assume(False)
    assume(field.real_roots)
    return field


_COORDS_WITH_DENOMINATORS = st.builds(
    Fraction, st.integers(-10 ** 6, 10 ** 6), st.sampled_from([1, 1, 2, 7, 360, 10 ** 9]))


@settings(max_examples=60, deadline=None)
@given(_irreducible_field(), st.data())
def test_quarter_steps_equal_one_refinement_to_the_level(field, data):
    """Level j of the walk, the root interval after j quarter steps, is
    the interval of one refined call to width w / 2^(3j-1), at every real
    root: no halving meets the irrational root."""
    for root in field.real_roots:
        j = data.draw(st.integers(1, 140), label="j")
        iv = root
        for _ in range(j):
            iv = iv.refined(iv.width / 4)
        jumped = root.refined(root.width / 2 ** (3 * j - 1))
        assert (jumped.lo, jumped.hi) == (iv.lo, iv.hi)


@settings(max_examples=60, deadline=None)
@given(_irreducible_field(), st.data())
def test_eval_embedding_is_the_first_narrow_enclosure_of_the_walk(field, data):
    """The enclosure eval_embedding returns is the walk's first narrower
    than eps, on elements with denominators at every real root, for eps
    from 2^-2 to 2^-400."""
    for root in field.real_roots:
        a = field.element([data.draw(_COORDS_WITH_DENOMINATORS) for _ in range(field.degree)])
        eps = Fraction(1, 2 ** data.draw(st.integers(2, 400), label="bits"))
        assert eval_embedding(a, root, eps) == ref_eval_embedding(a, root, eps)


# -- the ladder: one refinement per level and root, shared by every walk -------

@settings(max_examples=60, deadline=None)
@given(_irreducible_field(), st.data())
def test_a_ladder_level_does_not_depend_on_the_levels_before_it(field, data):
    """_level(root, j) is the interval of one refined call to width
    2 w / 8^j from a fresh copy of the root, whichever levels were made
    before it and in whatever order; it is made once and kept, and the
    ladder changes neither equality nor hash of the root."""
    for root in field.real_roots:
        for k in data.draw(st.lists(st.integers(1, 60), max_size=4), label="earlier"):
            _level(root, k)
        j = data.draw(st.integers(0, 60), label="j")
        fresh = RealRootInterval(root.poly, root.lo, root.hi)
        assert not fresh._ladder
        level = _level(root, j)
        assert level == fresh.refined(2 * root.width / 8 ** j)
        assert _level(root, j) is level
        assert fresh == root and hash(fresh) == hash(root)


def test_a_later_walk_refines_only_the_levels_it_adds(monkeypatch):
    """Two walks at one root of a fresh field: the first, over levels 0
    to 5, refines five levels; the second, over levels 0 to 7, only the
    two the first did not reach."""
    field = make_field(IntPolynomial((-1, -1, 1)))
    root = field.real_roots[-1]
    calls = [0]
    original = RealRootInterval.refined

    def counted(self, max_width):
        calls[0] += 1
        return original(self, max_width)

    monkeypatch.setattr(RealRootInterval, "refined", counted)
    first = list(islice(enclosures(field.gen, root), 6))
    assert calls == [5]
    second = list(islice(enclosures(field.gen, root), 8))
    assert calls == [7]
    assert second[:6] == first


# -- the integer walks against the Fraction walks ------------------------------

# the bundled fields of degree >= 2, and level47a's
_BUNDLED = ("level23a", "level71a", "level71b", "level47a")


@st.composite
def _totally_real_cubic(draw):
    """The field of a drawn monic irreducible cubic with three real roots."""
    coeffs = [draw(st.integers(-12, 12)) for _ in range(3)] + [1]
    try:
        field = make_field(IntPolynomial(tuple(coeffs)))
    except HeckeafError:  # reducible
        assume(False)
    assume(len(field.real_roots) == 3)
    return field


@st.composite
def _walk_case(draw):
    """A drawn element at a drawn real root of a bundled field, whose
    ladders earlier examples may have filled, or of a fresh drawn totally
    real cubic, whose ladders start empty."""
    if draw(st.booleans()):
        field = _field(draw(st.sampled_from(_BUNDLED)))
    else:
        field = draw(_totally_real_cubic())
    root = draw(st.sampled_from(field.real_roots))
    return field.element([draw(_RATIONALS) for _ in range(field.degree)]), root


@settings(max_examples=80, deadline=None)
@given(_walk_case())
def test_integer_walks_match_the_fraction_walks(case):
    """Signs, floors and eval_embedding intervals, and for irrational
    elements the expanding representative, and for elements of the
    field's degree the dominance verdict, are those of the Fraction
    walks."""
    a, root = case
    assert sign_at(a, root) == walk_sign_at(a, root)
    assert exact_floor(a, root) == walk_exact_floor(a, root)
    for eps in (Fraction(1, 10), Fraction(1, 10 ** 8), Fraction(1, 10 ** 30)):
        assert eval_embedding(a, root, eps) == ref_eval_embedding(a, root, eps)
    if not a.is_rational():
        assert _expanding_representative(a, root) == walk_expanding_representative(a, root)
    if a.degree_over_q() == a.field.degree:
        assert _exceeds_other_images(a, root) == walk_exceeds_other_images(a, root)
