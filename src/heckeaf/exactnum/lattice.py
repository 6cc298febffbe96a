"""Full Z-modules in a number field, in canonical Hermite form.

A module is stored as a common denominator d plus an n x n integer matrix
in row HNF; the rows divided by d are the coordinates of the basis in the
field's power basis.  Canonical form makes module equality (and therefore
basis-change invariance) a plain data comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from ..errors import NotFullRank
from .field import FieldElement, NumberField
from .intmat import lattice_intersect, row_hnf_transform


@dataclass(frozen=True)
class ZModule:
    field: NumberField
    den: int
    rows: tuple  # n x n integer HNF rows

    @property
    def rank(self) -> int:
        return len(self.rows)

    def basis_elements(self) -> tuple:
        return tuple(self.field.from_integers(row, self.den) for row in self.rows)

    def contains(self, elem: FieldElement) -> bool:
        return elem.field == self.field and self.coordinates_of(elem) is not None

    def coordinates_of(self, elem: FieldElement):
        """Integer coordinates of elem in this basis, or None."""
        # elem = num / e in lowest terms: den * elem is integral iff e | den
        if self.den % elem.den:
            return None
        scale = self.den // elem.den
        rem = [c * scale for c in elem.num]
        coeffs = [0] * len(self.rows)
        for i, row in enumerate(self.rows):
            j = next(k for k, v in enumerate(row) if v != 0)
            if rem[j] % row[j] != 0:
                return None
            q = rem[j] // row[j]
            coeffs[i] = q
            rem = [r - q * v for r, v in zip(rem, row)]
        if any(rem):
            return None
        return tuple(coeffs)

    def scaled_by(self, elem: FieldElement) -> "ZModule":
        """The module elem * self."""
        gens = [b * elem for b in self.basis_elements()]
        return module_from_generators(self.field, gens)

    def __repr__(self):
        return f"ZModule(den={self.den}, rows={self.rows})"


def module_from_generators(field: NumberField, gens) -> ZModule:
    """Canonical full module spanned over Z by the generators.

    Generators may be FieldElements or coordinate rows.  Raises NotFullRank
    when the span has rank below the field degree.
    """
    n = field.degree
    gens = [g if isinstance(g, FieldElement) else field.element(g) for g in gens]
    if not gens:
        raise NotFullRank("no generators")
    den = lcm(*(g.den for g in gens))
    int_rows = [[c * (den // g.den) for c in g.num] for g in gens]
    h, _, rank = row_hnf_transform(int_rows)
    if rank < n:
        raise NotFullRank(f"generators span rank {rank} < {n}")
    # normalize out any common factor shared with the denominator
    g = den
    for row in h:
        for x in row:
            g = gcd(g, x)
    if g > 1:
        den //= g
        h = tuple(tuple(x // g for x in row) for row in h)
    return ZModule(field, den, h)


def module_intersect(m1: ZModule, m2: ZModule) -> ZModule:
    if m1.field != m2.field:
        raise ValueError("modules in different fields")
    d = lcm(m1.den, m2.den)
    a = tuple(tuple(x * (d // m1.den) for x in row) for row in m1.rows)
    b = tuple(tuple(x * (d // m2.den) for x in row) for row in m2.rows)
    inter = lattice_intersect(a, b)
    return module_from_generators(m1.field, [m1.field.from_integers(row, d) for row in inter])


@dataclass(frozen=True)
class OrderRing:
    """A full module that is a ring containing 1 (an order)."""

    module: ZModule

    def __post_init__(self):
        if not self.module.contains(self.module.field.one):
            raise ValueError("order does not contain 1")

    @property
    def field(self) -> NumberField:
        return self.module.field

    def basis_elements(self):
        return self.module.basis_elements()

    def contains(self, elem: FieldElement) -> bool:
        return self.module.contains(elem)


def endomorphism_ring(m: ZModule) -> OrderRing:
    """The coefficient order {alpha : alpha * m is contained in m}.

    When 1 lies in m and every product g_i g_j (i <= j) of m's HNF basis
    lies in m, the order is m itself: then m m is contained in m, so
    m is contained in End(m); and alpha in End(m) gives alpha = alpha * 1
    in m.  m is the same canonical HNF that the intersection below builds
    (module_from_generators makes every ZModule), so a ring module reads
    the same result with no inverse and no intersection.  Otherwise the
    order is computed as the intersection of the modules m * g^(-1) over
    the basis elements g of m.
    """
    basis = m.basis_elements()
    if m.contains(m.field.one) and all(
        m.contains(g * h) for i, g in enumerate(basis) for h in basis[i:]
    ):
        return OrderRing(m)
    result = None
    for g in basis:
        cand = m.scaled_by(g.inverse())
        result = cand if result is None else module_intersect(result, cand)
    return OrderRing(result)
