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
from .exactnum.field import FieldElement, NumberField, _first_narrow, enclosures, make_field
from .exactnum.intmat import charpoly
from .exactnum.lattice import ZModule, endomorphism_ring, module_from_generators
from .exactnum.polynomial import IntPolynomial
from .exactnum.units import (
    Realization,
    UnitElement,
    _attractor_data,
    check_cycle_form,
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


def _coordinate(s) -> tuple:
    """One fixture coordinate as (numerator, denominator or None): a JSON
    integer, or a string of the schema grammar -?[0-9]+(/[0-9]+)? in ASCII
    digits, at most MAX_DIGITS of them on each side of the slash, read
    straight into integers; the denominator is None without a slash.  Any
    other value or spelling (whitespace, a plus sign, underscores,
    decimals, exponents, non-ASCII digits, more digits) and a zero
    denominator are a SchemaError."""
    if type(s) is int:  # bool is an int subclass, not a JSON integer
        return s, None
    if type(s) is not str:
        raise SchemaError(f"expected a rational string, got {type(s).__name__}")
    m = _RATIONAL.fullmatch(s)
    if m is None:
        shown = repr(s) if len(s) <= 40 else f"of {len(s)} characters"
        raise SchemaError(f"cannot parse rational {shown}: not of the form -?[0-9]+(/[0-9]+)?"
                          f" with at most {MAX_DIGITS} digits a part")
    digits = m[1]
    num = int(digits) if len(digits) <= 640 else _bounded_int(digits)
    if m[2] is None:
        return num, None
    q = _bounded_int(m[2])
    if q == 0:
        raise SchemaError(f"cannot parse rational {s!r}: zero denominator")
    return num, q


def _coordinates(row, parsed: dict) -> tuple:
    """A fixture coordinate vector as integer numerators over one
    denominator > 0, in lowest terms (gcd(numerators..., denominator) = 1),
    each coordinate read by _coordinate; the first coordinate it refuses
    raises its SchemaError.  A string coordinate is looked up in the dict
    parsed first and its parse stored there, so a caller that passes one
    dict for many rows parses each distinct string once; only successful
    parses are stored, so a bad string fails wherever it occurs.  Only a
    row with a slash takes the lcm of its denominators and a gcd."""
    nums = []
    slashed = []  # (index, denominator) of the coordinates with a slash
    for s in row:
        if type(s) is str:
            c = parsed.get(s)
            if c is None:
                c = parsed[s] = _coordinate(s)
        else:
            c = _coordinate(s)
        num, q = c
        nums.append(num)
        if q is not None:
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
    (num,), den = _coordinates([s], {})
    return num, den


def _row_element(field: NumberField, row, parsed: dict) -> FieldElement:
    """The element of a coordinate vector of _coordinates (read through the
    dict parsed), zero-padded to the degree, which the vector does not
    exceed."""
    nums, den = _coordinates(row, parsed)
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


# the widest packing width k (bits a coordinate) of the packed relation
# test; a table whose bound needs more takes the field's product kernel.
# Forcing the width on level47a's table (degree 4; Python 3.11, 2 shared
# vCPUs), its 153 relations took 0.71 ms packed at 256 bits and 1.46 ms at
# 512, the kernel 1.24 ms; on level23a and level71a 256 bits took about
# half the kernel's time.
_MAX_PACK_BITS = 256


def _pack_width(field: NumberField, coeffs: tuple) -> int:
    """The width k of the packed relation test on the table coeffs: the
    bit length of B + F, so X = 2^k >= B + F + 1 (load_newform's
    docstring)."""
    n = field.degree
    a = max(max(map(abs, c.num)) for c in coeffs)
    delta = max(c.den for c in coeffs)
    rho = max([1, *(abs(r) for row in field._power_rows for r in row)])
    bound = n * n * rho * a * a * delta * delta + len(coeffs) * a * delta ** 3
    return (bound + max(map(abs, field.minpoly.coeffs[:n]))).bit_length()


def _relation_test(field: NumberField, coeffs: tuple):
    """The test holds(z, x, y, t=0, w=1) of one Hecke relation
    c(x) c(y) - t c(w) = c(z) on the table coeffs (indices from 1, and
    c(1) = 1, so t = 0 is the product c(x) c(y) = c(z)), cross-multiplied
    by the denominators.  The packed test of load_newform's docstring when
    its width k is at most _MAX_PACK_BITS, else the field's product kernel
    (NumberField.mul_numerators) on the numerators."""
    k = _pack_width(field, coeffs)
    if k > _MAX_PACK_BITS:
        mul = field.mul_numerators

        def holds(z, x, y, t=0, w=1):
            cx, cy, cw, cz = coeffs[x - 1], coeffs[y - 1], coeffs[w - 1], coeffs[z - 1]
            d = cx.den * cy.den
            rhs = mul(cx.num, cy.num)
            if t:
                rhs = [v * cw.den - t * u * d for v, u in zip(rhs, cw.num)]
                d *= cw.den
            return [u * d for u in cz.num] == [v * cz.den for v in rhs]

        return holds

    def packed(num):
        value = 0
        for c in reversed(num):
            value = (value << k) + c
        return value

    modulus = packed(field.minpoly.coeffs)
    images = [0, *(packed(c.num) for c in coeffs)]
    dens = [1, *(c.den for c in coeffs)]

    def holds(z, x, y, t=0, w=1):
        dx, dy, dz = dens[x], dens[y], dens[z]
        lhs, rhs = images[x] * images[y] * dz, images[z] * dx * dy
        if t:
            dw = dens[w]
            lhs, rhs = lhs * dw - t * images[w] * dx * dy * dz, rhs * dw
        return (lhs - rhs) % modulus == 0

    return holds


def load_newform(source) -> NewformData:
    """Parse and fully verify a newform fixture.

    Accepts a JSON string or bytes, or an already-decoded dict.  Checks
    the schema, normalization c(1) = 1, coprime multiplicativity, and the
    prime-power recursions up to the stored count before returning.

    Each coordinate row is read straight into integer numerators over one
    denominator (_coordinates).  The an and module rows share one dict of
    parsed coordinate strings, which lives for this call only, so each
    distinct string is parsed once per load: a fixture repeats a few dozen
    strings over hundreds of coordinates.

    Each relation c(x) c(y) - t c(w) = c(z) (t = 0 for a product) is
    checked cross-multiplied on those numerators I over denominators d:
    the integer vector D = I_z d_x d_y d_w - (I_x I_y d_w - t I_w d_x d_y) d_z,
    I_x I_y the product in Z[x]/(f), is zero (with t = 0, d_w drops out).
    The check packs it (_relation_test): the map Z[x]/(f) -> Z/NZ,
    x -> X = 2^k, N = f(X), is a ring homomorphism as f is monic, so each
    coefficient becomes one integer I(X), its numerators at width k, and a
    relation one cross-multiplied product tested mod N, with no reduction
    by f.  It is exact when k comes from the table itself (_pack_width).
    Let n be the degree, A the largest |numerator|, Delta the largest
    denominator, rho = max(1, the largest |entry| of the reduction rows of
    x^n .. x^(2n-2)), F the largest |f_i|, i < n.  A coordinate of I_x I_y
    is at most n A^2 before the reduction and n A^2 (1 + (n - 1) rho)
    <= n^2 rho A^2 after it, and 1 + t <= 1 + p <= p^2 <= count, so every
    |D_i| <= B = n^2 rho A^2 Delta^2 + count A Delta^3.  With X >= B + F + 1:
    |D(X)| <= B (X^n - 1)/(X - 1) < X^n - F (X^n - 1)/(X - 1) <= N, as
    (B + F)(X^n - 1) < (X - 1) X^n; and D != 0 gives D(X) != 0, as its top
    term D_j X^j, at least X^j in size, outweighs the terms below it, at
    most B (X^j - 1)/(X - 1) <= X^j - 1.  So N divides D(X) exactly when
    D = 0.  The failure scan that names a pair uses the same test.  When
    k exceeds _MAX_PACK_BITS (a coordinate of dozens of digits), every
    packed product would be as wide as the widest coordinate, so the check
    takes the field's product kernel (NumberField.mul_numerators, which
    FieldElement.__mul__ calls) on the vectors instead, each product as
    wide as its own factors.

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
    parsed = {}  # coordinate string -> _coordinate of it, for this load only
    coeffs = []
    for idx, row in enumerate(an, start=1):
        if not isinstance(row, list) or len(row) > field.degree:
            raise SchemaError(f"coefficient {idx} has a bad coordinate vector")
        coeffs.append(_row_element(field, row, parsed))
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
        module_rows = tuple(_row_element(field, row, parsed) for row in module_rows)
    embedding_index = data.get("embedding_index")
    if embedding_index is not None:
        if type(embedding_index) is not int or not (
            0 <= embedding_index < len(field.real_roots)
        ):
            raise SchemaError(f"embedding_index {embedding_index} out of range")

    if coeffs[0] != field.one:
        raise NotNormalized(f"c(1) = {coeffs[0]}, expected 1")

    count = len(coeffs)
    holds = _relation_test(field, coeffs)
    for m, q in _coprime_splits(count):
        if not holds(m, q, m // q):
            # by the proof above some coprime pair fails: name the first one
            m, n = next((m, n) for m in range(2, count + 1) for n in range(2, count // m + 1)
                        if gcd(m, n) == 1 and not holds(m * n, m, n))
            raise HeckeRelationViolated(f"c({m})c({n}) != c({m * n})", m=m, n=n)
    for p in _primes_up_to(count):
        t = 0 if level % p == 0 else p
        r = 1
        while p ** (r + 1) <= count:
            # c(p^(r+1)) = c(p) c(p^r) - t c(p^(r-1))
            if not holds(p ** (r + 1), p, p ** r, t, p ** (r - 1)):
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


def verify_eigenform(f: NewformData) -> EigenReport:
    """Check T_p f = c(p) f on the comparable range for each prime p <= HECKE_CHECK_BOUND."""
    if f.count < HECKE_CHECK_BOUND ** 2:
        raise InsufficientCoefficients(
            f"need at least {HECKE_CHECK_BOUND ** 2} coefficients for primes up to {HECKE_CHECK_BOUND}",
            required=HECKE_CHECK_BOUND ** 2,
        )
    checks = []
    for p in _primes_up_to(HECKE_CHECK_BOUND):
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
    unit: UnitElement | None = None
    matrix_a: tuple | None = None
    realization: Realization | None = None
    group: DimensionGroup | None = None
    embedding_index: int | None = None
    per_conjugate: tuple = ()


def _image_and_expanding(elem: FieldElement, root):
    """The first enclosure of sigma(elem) narrower than 10^-8, as the two
    Fractions eval_embedding gives, and the exact |sigma(elem)| > 1 test
    (units never have |image| exactly 1), which that enclosure settles
    unless it straddles -1 or 1.  Only then is the root's ladder walked,
    from the level below the image's, on to an enclosure that settles it:
    the levels above contain the image and settle nothing.  The walk
    compares the integer enclosures (lo, hi, scale) with -scale and scale,
    and reuses the levels the image's probes refined."""
    level, lo, hi, scale = _first_narrow(elem, root, 1, 10 ** 8)
    image = (Fraction(lo, scale), Fraction(hi, scale))
    for lo, hi, scale in chain([(lo, hi, scale)], enclosures(elem, root, level + 1)):
        if lo > scale or hi < -scale or -scale < lo and hi < scale:
            return image, lo > scale or hi < -scale


def af_of_eigenform(f: NewformData) -> EigenformAFResult:
    """Run the stationary pipeline on a loaded (hence verified) eigenform:
    af_of_module on its module at its working embedding."""
    return af_of_module(module_of_eigenform(f), f.working_embedding_index())


def af_of_module(module: ZModule, embedding_index: int) -> EigenformAFResult:
    """Run the stationary pipeline on a full module of a number field at
    the real embedding embedding_index (0..r-1 for r real roots).

    Degree 1 is the rational case: the diagram is finite and
    one-dimensional, so the result is the trivial algebra.  Otherwise,
    when the module's own Jacobi-Perron expansion cycles, the cycle gives
    the unit of End(module), its non-negative form and the round trip in
    closed form (_attractor_data), checked by check_cycle_form; when it
    does not, find_unit searches for the unit and make_nonnegative for the
    form.  Each fact is computed once and passed on: the unit keeps the
    order End(module), and the result keeps the realization with its
    round-trip record (digits, Perron value u and eigenvector in the
    module's field, expansion).

    Conjugate data: the action of the conjugated unit on the conjugated
    module has the same integer matrix in coordinates, so per-conjugate
    characteristic polynomials agree by construction; the per-conjugate
    summaries record how the unit's image changes across embeddings.
    """
    field = module.field
    if field.degree == 1:
        return EigenformAFResult(
            module=module, af=TrivialAF(),
            group=DimensionGroup(theta=(), root=None, order_unit=(1,)),
        )

    if not field.real_roots:
        raise NotTotallyReal(f"field {field.minpoly} has no real root")
    if not 0 <= embedding_index < len(field.real_roots):
        raise ValueError(f"embedding_index {embedding_index} not in 0..{len(field.real_roots) - 1}")
    root = field.real_roots[embedding_index]
    cycle = _attractor_data(module, root)
    order = endomorphism_ring(module)
    if cycle is None:
        unit = find_unit(order, root)
        matrix_a = multiplication_matrix(unit.element, module)
        realization = make_nonnegative(matrix_a, unit, module, root)
    else:
        v, realization = cycle
        unit = UnitElement(v, int(v.norm()), order)
        matrix_a = multiplication_matrix(v, module)
        check_cycle_form(matrix_a, realization)
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
        unit=unit,
        matrix_a=matrix_a,
        realization=realization,
        group=group,
        embedding_index=embedding_index,
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
