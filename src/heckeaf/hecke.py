"""Hecke eigenform data and the stationary AF pipeline.

Loads weight-2 eigenform fixtures (coefficients as exact elements of the
coefficient field), checks the Hecke relations on load, and drives the chain

    coefficient module -> endomorphism order -> expanding unit
    -> action matrix -> non-negative form -> block factorization
    -> stationary AF descriptor / dimension group,

with the degree-1 case collapsing to the trivial algebra.  The round trip
expands the non-negative form's Perron eigenvector T^-1 g in the fixture's
own field, the only number field a run builds.  Conjugate eigenforms share
their coordinate data: conjugation is a change of the working real
embedding, so the conjugate comparison reuses the base result (the action
matrix is coordinate-identical), making the equal char poly claim literal.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm

from .afalg import (
    DimensionGroup,
    StationaryAF,
    TrivialAF,
    companion_check,
    dimension_group,
)
from .errors import (
    HeckeRelationViolated,
    InsufficientCoefficients,
    ModuleNotStable,
    NotGenerated,
    NotNormalized,
    NotTotallyReal,
    SchemaError,
)
from .exactnum.field import FieldElement, NumberField, enclosures, eval_embedding, make_field
from .exactnum.intmat import charpoly
from .exactnum.lattice import OrderRing, ZModule, endomorphism_ring, module_from_generators
from .exactnum.polynomial import IntPolynomial
from .exactnum.units import (
    Realization,
    UnitElement,
    _attractor_data,
    find_unit,
    make_nonnegative,
    multiplication_matrix,
)

MIN_COEFFS = 20
HECKE_CHECK_BOUND = 13


@dataclass(frozen=True)
class NewformData:
    label: str
    level: int
    weight: int
    field: NumberField
    coeffs: tuple  # c(1) .. c(M) as FieldElements
    module_rows: tuple | None = None  # explicit module generators as FieldElements
    embedding_index: int | None = None

    @property
    def count(self) -> int:
        return len(self.coeffs)

    def c(self, m: int) -> FieldElement:
        if not 1 <= m <= self.count:
            raise InsufficientCoefficients(
                f"coefficient c({m}) beyond the stored range {self.count}",
                required=m,
            )
        return self.coeffs[m - 1]

    def working_embedding_index(self) -> int:
        if self.embedding_index is not None:
            return self.embedding_index
        return len(self.field.real_roots) - 1  # largest real root


# the loader's bound on the digits of one integer (a coordinate's numerator
# or denominator, or a JSON integer), Python's default int() digit limit; the
# fixture schema's coordinate pattern carries the same bound
MAX_DIGITS = 4300

# the coordinate grammar of the fixture schema, matched in full
_RATIONAL = re.compile(rf"(-?[0-9]{{1,{MAX_DIGITS}}})(?:/([0-9]{{1,{MAX_DIGITS}}}))?")


def _bounded_int(digits: str) -> int:
    """int() of -?[0-9]+ with at most MAX_DIGITS digits, read in pieces of
    640 digits, the lowest int() digit limit a process can set, so the
    process-wide limit plays no part."""
    if len(digits) <= 640:
        return int(digits)
    sign, digits = (-1, digits[1:]) if digits[0] == "-" else (1, digits)
    value = 0
    for i in range(0, len(digits), 640):
        piece = digits[i:i + 640]
        value = value * 10 ** len(piece) + int(piece)
    return sign * value


def _json_int(token: str) -> int:
    """json's parse_int for a fixture: a JSON integer of at most MAX_DIGITS
    digits, else a SchemaError."""
    if len(token.lstrip("-")) > MAX_DIGITS:
        raise SchemaError(f"a JSON integer of {len(token)} characters has more than {MAX_DIGITS} digits")
    return _bounded_int(token)


def _coordinates(row) -> tuple:
    """A fixture coordinate vector as integer numerators over one
    denominator > 0, in lowest terms (gcd(numerators..., denominator) = 1).
    Each coordinate is a JSON integer, or a string of the schema grammar
    -?[0-9]+(/[0-9]+)? in ASCII digits, at most MAX_DIGITS of them on each
    side of the slash.  Any other spelling (whitespace, a plus sign,
    underscores, decimals, exponents, non-ASCII digits, more digits) and a
    zero denominator are a SchemaError, for the first coordinate that has
    one.  Each coordinate is read straight into its numerator; only a row
    with a slash takes the lcm of its denominators and a gcd."""
    nums = []
    slashed = []  # (index, denominator) of the coordinates with a slash
    for s in row:
        if type(s) is int:  # bool is an int subclass, not a JSON integer
            nums.append(s)
            continue
        if type(s) is not str:
            raise SchemaError(f"expected a rational string, got {type(s).__name__}")
        m = _RATIONAL.fullmatch(s)
        if m is None:
            shown = repr(s) if len(s) <= 40 else f"of {len(s)} characters"
            raise SchemaError(f"cannot parse rational {shown}: not of the form -?[0-9]+(/[0-9]+)?"
                              f" with at most {MAX_DIGITS} digits a part")
        digits = m[1]
        nums.append(int(digits) if len(digits) <= 640 else _bounded_int(digits))
        if m[2] is not None:
            q = _bounded_int(m[2])
            if q == 0:
                raise SchemaError(f"cannot parse rational {s!r}: zero denominator")
            slashed.append((len(nums) - 1, q))
    if not slashed:
        return nums, 1
    den = lcm(*(q for _, q in slashed))
    nums = [c * den for c in nums]
    for i, q in slashed:
        nums[i] //= q
    g = gcd(den, *nums)
    return [c // g for c in nums], den // g


def _parse_rational(s) -> tuple:
    """One coordinate of _coordinates as (numerator, denominator)."""
    (num,), den = _coordinates([s])
    return num, den


def _row_element(field: NumberField, row) -> FieldElement:
    """The element of a coordinate vector of _coordinates, zero-padded to
    the degree, which the vector does not exceed."""
    nums, den = _coordinates(row)
    return FieldElement(field, tuple(nums) + (0,) * (field.degree - len(nums)), den)


def _primes_up_to(bound: int):
    sieve = [True] * (bound + 1)
    out = []
    for p in range(2, bound + 1):
        if sieve[p]:
            out.append(p)
            for k in range(p * p, bound + 1, p):
                sieve[k] = False
    return out


def _coprime_splits(count: int):
    """(m, q) for every m in 2..count that is not a prime power, with q the
    exact power of m's smallest prime that divides m."""
    smallest = list(range(count + 1))
    for p in range(2, isqrt(count) + 1):
        if smallest[p] == p:
            for k in range(p * p, count + 1, p):
                if smallest[k] == k:
                    smallest[k] = p
    for m in range(2, count + 1):
        p = q = smallest[m]
        while m % (q * p) == 0:
            q *= p
        if q != m:
            yield m, q


def load_newform(source) -> NewformData:
    """Parse and fully verify a newform fixture.

    Accepts a JSON string or bytes, or an already-decoded dict.  Checks
    the schema, normalization c(1) = 1, coprime multiplicativity, and the
    prime-power recursions up to the stored count before returning.

    Each coordinate row is read straight into integer numerators over one
    denominator (_coordinates), and the relations are checked on those
    numerators: a product c(a) c(b) is the field's product kernel
    (NumberField.mul_numerators, which FieldElement.__mul__ calls) over
    the product of the two denominators, compared with c(m) cross-
    multiplied, so rows with and without denominators take one path and
    no field element is built for a product.

    Coprime multiplicativity, c(a) c(b) = c(ab) for all coprime a, b >= 2
    with ab <= count, takes one product per coefficient: it holds exactly
    when c(m) = c(q) c(m/q) for every m <= count that is not a prime power,
    with q the exact power of the smallest prime p dividing m
    (_coprime_splits).  One way, (q, m/q) is a coprime pair.  The other is
    strong induction on ab for coprime a, b >= 2: let p be the smallest
    prime dividing ab and q its exact power; q divides a, say, as b is
    coprime to a.  The check at m = ab gives c(ab) = c(q) c(ab/q).  If
    a = q, that is c(a) c(b).  Otherwise a = q a' with a' >= 2 coprime to
    q and to b, and since a'b and a are less than ab, induction gives
    c(ab/q) = c(a'b) = c(a') c(b) and c(q) c(a') = c(a).  Only when the
    check fails does the pairwise scan over all coprime (m, n) run, to
    name the first pair that fails.

    So verify_eigenform cannot fail after load: for pm <= count and m = p^r m'
    with p not dividing m', multiplicativity gives (T_p f)(m) = (c(p^(r+1))
    + p c(p^(r-1))) c(m') (no p term if r = 0 or p divides the level), and
    the recursion makes that c(p) c(p^r) c(m') = c(p) c(m).
    """
    data = source
    if isinstance(source, (str, bytes)):
        try:
            data = json.loads(source, parse_int=_json_int)
        except ValueError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"a fixture is a JSON object, not a {type(data).__name__}")

    for key in ("label", "level", "weight", "field_poly", "an"):
        if key not in data:
            raise SchemaError(f"missing required field {key!r}")
    label = data["label"]
    level = data["level"]
    weight = data["weight"]
    if not isinstance(label, str):
        raise SchemaError("label must be a string")
    if type(level) is not int or level < 1:
        raise SchemaError("level must be a positive integer")
    if weight != 2:
        raise SchemaError(f"weight {weight} not supported; this tool is weight-2 only")
    field_poly = data["field_poly"]
    if not isinstance(field_poly, list) or not all(type(c) is int for c in field_poly):
        raise SchemaError("field_poly must be a list of integers, lowest degree first")
    field = make_field(IntPolynomial(tuple(field_poly)))

    an = data["an"]
    if not isinstance(an, list) or len(an) < MIN_COEFFS:
        raise SchemaError(f"an must be a list of at least {MIN_COEFFS} coordinate vectors")
    coeffs = []
    for idx, row in enumerate(an, start=1):
        if not isinstance(row, list) or len(row) > field.degree:
            raise SchemaError(f"coefficient {idx} has a bad coordinate vector")
        coeffs.append(_row_element(field, row))
    coeffs = tuple(coeffs)

    module_rows = data.get("module")
    if module_rows is not None:
        if not isinstance(module_rows, list) or not all(isinstance(r, list) for r in module_rows):
            raise SchemaError("module must be a list of rows")
        for idx, row in enumerate(module_rows, start=1):
            if len(row) > field.degree:
                raise SchemaError(
                    f"module row {idx} has {len(row)} coordinates, more than the degree {field.degree}"
                )
        module_rows = tuple(_row_element(field, row) for row in module_rows)
    embedding_index = data.get("embedding_index")
    if embedding_index is not None:
        if type(embedding_index) is not int or not (
            0 <= embedding_index < len(field.real_roots)
        ):
            raise SchemaError(f"embedding_index {embedding_index} out of range")

    if coeffs[0] != field.one:
        raise NotNormalized(f"c(1) = {coeffs[0]}, expected 1")

    count = len(coeffs)
    mul = field.mul_numerators

    def is_product(m, a, b):
        """c(m) = c(a) c(b), cross-multiplied on integer numerators."""
        x, y, z = coeffs[a - 1], coeffs[b - 1], coeffs[m - 1]
        d, e = x.den * y.den, z.den
        return [u * d for u in z.num] == [v * e for v in mul(x.num, y.num)]

    for m, q in _coprime_splits(count):
        if not is_product(m, q, m // q):
            # by the proof above some coprime pair fails: name the first one
            m, n = next((m, n) for m in range(2, count + 1) for n in range(2, count // m + 1)
                        if gcd(m, n) == 1 and not is_product(m * n, m, n))
            raise HeckeRelationViolated(f"c({m})c({n}) != c({m * n})", m=m, n=n)
    for p in _primes_up_to(count):
        t = 0 if level % p == 0 else p
        r = 1
        while p ** (r + 1) <= count:
            # c(p^(r+1)) = c(p) c(p^r) - t c(p^(r-1)), cross-multiplied
            x, y = coeffs[p - 1], coeffs[p ** r - 1]
            w, z = coeffs[p ** (r - 1) - 1], coeffs[p ** (r + 1) - 1]
            d = x.den * y.den
            rhs = [v * w.den - t * u * d for v, u in zip(mul(x.num, y.num), w.num)]
            d *= w.den
            if [u * d for u in z.num] != [v * z.den for v in rhs]:
                raise HeckeRelationViolated(
                    f"prime power recursion fails at c({p ** (r + 1)})",
                    m=p, n=p ** r,
                )
            r += 1

    return NewformData(
        label=label,
        level=level,
        weight=weight,
        field=field,
        coeffs=coeffs,
        module_rows=module_rows,
        embedding_index=embedding_index,
    )


def load_fixture(name: str) -> NewformData:
    """Load one of the fixtures bundled with the package (by file name)."""
    from importlib import resources

    if not name.endswith(".json"):
        name = f"{name}.json"
    text = resources.files("heckeaf.fixtures").joinpath(name).read_text()
    return load_newform(text)


def bundled_fixture_names():
    from importlib import resources

    return sorted(
        entry.name[: -len(".json")]
        for entry in resources.files("heckeaf.fixtures").iterdir()
        if entry.name.endswith(".json")
    )


# ---------------------------------------------------------------------------
# Hecke operators on coefficient tables

def hecke_apply(n: int, coeffs, level: int):
    """gamma table of T_n: gamma(m) = sum over a | gcd(m, n), coprime to
    the level, of a * c(m n / a^2).

    coeffs is the 1-based table c(1)..c(M) (any ring elements); the result
    covers m = 1 .. M // n so every needed index exists.
    """
    count = len(coeffs)
    if n < 1:
        raise ValueError("n must be positive")
    out_len = count // n
    if out_len < 1:
        raise InsufficientCoefficients(
            f"table of length {count} cannot support T_{n}", required=n
        )

    def c(m):
        return coeffs[m - 1]

    out = []
    for m in range(1, out_len + 1):
        g = gcd(m, n)
        acc = None
        for a in range(1, g + 1):
            if g % a or gcd(a, level) != 1:
                continue
            term = c(m * n // (a * a))
            term = term if a == 1 else a * term
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


@dataclass(frozen=True)
class PrimeCheck:
    p: int
    ok: bool
    checked_range: int
    first_failure: int | None = None


@dataclass(frozen=True)
class EigenReport:
    label: str
    checks: tuple

    @property
    def all_ok(self) -> bool:
        return all(ch.ok for ch in self.checks)

    def first_failure(self):
        for ch in self.checks:
            if not ch.ok:
                return (ch.p, ch.first_failure)
        return None


def verify_eigenform(f: NewformData, max_prime: int = HECKE_CHECK_BOUND) -> EigenReport:
    """Check T_p f = c(p) f on the comparable range for each prime p."""
    if f.count < max_prime ** 2:
        raise InsufficientCoefficients(
            f"need at least {max_prime ** 2} coefficients for primes up to {max_prime}",
            required=max_prime ** 2,
        )
    checks = []
    for p in _primes_up_to(max_prime):
        gamma = hecke_apply(p, f.coeffs, f.level)
        cp = f.c(p)
        failure = None
        for m in range(1, len(gamma) + 1):
            if gamma[m - 1] != cp * f.c(m):
                failure = m
                break
        checks.append(
            PrimeCheck(p=p, ok=failure is None, checked_range=len(gamma),
                       first_failure=failure)
        )
    return EigenReport(label=f.label, checks=tuple(checks))


# ---------------------------------------------------------------------------
# the module

def module_of_eigenform(f: NewformData) -> ZModule:
    """The coefficient order's module: the Z-span of powers of the first
    generating coefficient, unless the fixture supplies explicit
    generators.  This is the exact stand-in for the period module, which
    is well defined up to a field-element scaling."""
    field = f.field
    if f.module_rows is not None:
        return module_from_generators(field, f.module_rows)
    n = field.degree
    if n == 1:
        return module_from_generators(field, [field.one])
    gen = None
    for cm in f.coeffs:
        if cm.degree_over_q() == n:
            gen = cm
            break
    if gen is None:
        raise NotGenerated("no coefficient generates the field")
    gens = [field.one]
    for _ in range(n - 1):
        gens.append(gens[-1] * gen)
    return module_from_generators(field, gens)


def hecke_action_on_module(f: NewformData, m: ZModule, n: int) -> FieldElement:
    """Verify c(n) * m is contained in m and return c(n)."""
    cn = f.c(n)
    for g in m.basis_elements():
        if not m.contains(cn * g):
            raise ModuleNotStable(
                f"c({n}) * {g} leaves the module", witness=(n, g.coords)
            )
    return cn


# ---------------------------------------------------------------------------
# the full pipeline

@dataclass(frozen=True)
class ConjugateSummary:
    embedding_index: int
    embedding: tuple          # (lo, hi) strings for the root interval
    unit_image: tuple         # certified interval of sigma(u), strings
    expanding: bool           # |sigma(u)| > 1 at this embedding


@dataclass(frozen=True)
class EigenformAFResult:
    module: ZModule
    af: object                # StationaryAF or TrivialAF
    order: OrderRing | None = None
    unit: UnitElement | None = None
    matrix_a: tuple | None = None
    realization: Realization | None = None
    group: DimensionGroup | None = None
    embedding_index: int | None = None
    per_conjugate: tuple = ()


def _image_and_expanding(elem: FieldElement, root):
    """The first enclosure of sigma(elem) narrower than 10^-8, and the
    exact |sigma(elem)| > 1 test (units never have |image| exactly 1),
    which that enclosure settles unless it straddles -1 or 1.  Only then
    is the ladder walked, on to an enclosure that settles it; its levels
    down to the image's contain the image and settle nothing."""
    image = eval_embedding(elem, root, Fraction(1, 10 ** 8))
    for lo, hi in chain([image], enclosures(elem, root)):
        if lo > 1 or hi < -1 or -1 < lo and hi < 1:
            return image, lo > 1 or hi < -1


def af_of_eigenform(f: NewformData) -> EigenformAFResult:
    """Run the stationary pipeline on a loaded (hence verified) eigenform.

    Degree 1 is the rational case: the diagram is finite and
    one-dimensional, so the result is the trivial algebra.  Otherwise the
    module's endomorphism order supplies an expanding unit whose action
    matrix, made non-negative in a proper basis, factorizes into the
    period of the expansion; the expansion's first period is checked digit
    by digit against the factorization.

    Each intermediate fact is computed once and passed on: the module's
    attractor expansion feeds both the unit search (when the order's
    module is the module itself) and the non-negative form search, and
    the result keeps the realization make_nonnegative returns, with its
    round-trip record (digits, Perron value u^k and eigenvector in f's
    field, expansion).

    Conjugate data: the action of the conjugated unit on the conjugated
    module has the same integer matrix in coordinates, so per-conjugate
    characteristic polynomials agree by construction; the per-conjugate
    summaries record how the unit's image changes across embeddings.
    """
    field = f.field
    module = module_of_eigenform(f)
    if field.degree == 1:
        return EigenformAFResult(
            module=module, af=TrivialAF(),
            group=DimensionGroup(theta=(), root=None, order_unit=(1,)),
        )

    if not field.real_roots:
        raise NotTotallyReal(f"field {field.minpoly} has no real root")
    order = endomorphism_ring(module)
    emb_index = f.working_embedding_index()
    root = field.real_roots[emb_index]
    attractor = _attractor_data(module, root)
    if order.module == module:
        unit = find_unit(order, root, attractor=attractor)
    else:
        unit = find_unit(order, root)
    matrix_a = multiplication_matrix(unit.element, module)
    realization = make_nonnegative(matrix_a, unit, module, root, attractor=attractor)
    roundtrip = realization.roundtrip
    af = StationaryAF(realization.matrix, roundtrip.digits, charpoly(realization.matrix))
    group = dimension_group(roundtrip.eigenvector[1:], root)

    summaries = []
    if len(field.real_roots) == field.degree:
        for i, r in enumerate(field.real_roots):
            (lo, hi), expanding = _image_and_expanding(unit.element, r)
            summaries.append(
                ConjugateSummary(
                    embedding_index=i,
                    embedding=(str(r.lo), str(r.hi)),
                    unit_image=(str(lo), str(hi)),
                    expanding=expanding,
                )
            )

    return EigenformAFResult(
        module=module,
        af=af,
        order=order,
        unit=unit,
        matrix_a=matrix_a,
        realization=realization,
        group=group,
        embedding_index=emb_index,
        per_conjugate=tuple(summaries),
    )


@dataclass(frozen=True)
class CompanionReport:
    conjugates: int
    char_polys: tuple
    all_equal: bool
    pairwise_verdicts: tuple   # ((i, j, verdict), ...)
    module_galois_stable: bool


def companion_of_conjugates(f: NewformData, result: EigenformAFResult) -> CompanionReport:
    """Per-conjugate pipeline comparison on f's pipeline result.

    The conjugate pipeline is the base pipeline with the conjugated module
    and unit, which in coordinates are the very same objects; what changes
    is the embedding data.  The report records the (necessarily equal)
    characteristic polynomials, the pairwise companion_check verdicts, and
    Galois stability of the module, checked by canonical-form comparison.
    There is one conjugate per real embedding, so a field that is not
    totally real raises NotTotallyReal.
    """
    field = f.field
    if field.degree == 1:
        return CompanionReport(
            conjugates=0, char_polys=(), all_equal=True,
            pairwise_verdicts=(), module_galois_stable=True,
        )
    if len(field.real_roots) != field.degree:
        raise NotTotallyReal(
            f"field {field.minpoly} has {len(field.real_roots)} real roots "
            f"for degree {field.degree}"
        )
    # the conjugated module: built from the shared coordinate tables
    stable = module_of_eigenform(f) == result.module
    polys = [result.af.char_poly] * field.degree
    matrices = [result.af.period_matrix] * field.degree
    verdicts = []
    for i in range(len(matrices)):
        for j in range(i + 1, len(matrices)):
            verdicts.append((i, j, companion_check(matrices[i], matrices[j])))
    all_equal = len(set(polys)) <= 1
    return CompanionReport(
        conjugates=field.degree,
        char_polys=tuple(polys),
        all_equal=all_equal,
        pairwise_verdicts=tuple(verdicts),
        module_galois_stable=stable,
    )
