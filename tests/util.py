"""Shared helpers for the test suite."""

import json
from fractions import Fraction

from heckeaf import afalg
from heckeaf.errors import ShapeMismatch
from heckeaf.exactnum.field import sign_at
from heckeaf.exactnum.intmat import mat_identity, mat_mul
from heckeaf.mcf import convergent_matrix, perron_charpoly


def mat_pow(a, e: int):
    """A^e for e >= 0, by repeated squaring."""
    result = mat_identity(len(a))
    base = a
    while e:
        if e & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        e >>= 1
    return result


def cone_contains(group, x) -> bool:
    """Whether x lies in the positive cone of the dimension group: a
    symbolic zero test of the cone functional first, then its certified
    sign."""
    x = tuple(int(v) for v in x)
    if group.rank == 1:
        return x[0] >= 0
    value = group.functional(x)
    if value.is_zero():
        return True
    return sign_at(value, group.root) > 0


def random_unimodular(n, rng, steps=14):
    """A random element of GL_n(Z) as a product of elementary matrices."""
    m = [list(row) for row in mat_identity(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.randint(-3, 3)
            if c:
                for k in range(n):
                    m[i][k] += c * m[j][k]
        elif kind == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        elif kind == 2:
            for k in range(n):
                m[i][k] = -m[i][k]
    return tuple(tuple(row) for row in m)


def admissible_digits(rng, n, length, max_entry=5):
    """Random digit vectors forming a canonical periodic expansion.

    For n = 2 the entries are 1..max_entry; for larger n the last entry is
    1..max_entry and the others are strictly smaller than it, which keeps
    the infinite repetition inside the expansion map's image.
    """
    out = []
    for _ in range(length):
        last = rng.randint(1, max_entry)
        rest = [rng.randint(0, last - 1) for _ in range(n - 2)]
        out.append(tuple(rest + [last]))
    return out


def random_rational(rng, span=40):
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return Fraction(num, den)


def random_element(field, rng, span=12):
    return field.element([random_rational(rng, span) for _ in range(field.degree)])


def irreducible_totally_real(abc) -> bool:
    """x^3 + a x^2 + b x + c has no rational root (an integer root divides
    c) and a positive discriminant."""
    a, b, c = abc
    if any(r ** 3 + a * r * r + b * r + c == 0 for r in range(-abs(c), abs(c) + 1)):
        return False
    return 18 * a * b * c - 4 * a ** 3 * c + a * a * b * b - 4 * b ** 3 - 27 * c * c > 0


# Z[a], Z + Za + 2Za^2, 2Z + Za + Za^2 and Z + 3Za + Za^2, as generator
# coordinates in 1, a, a^2
CUBIC_FAMILIES = (
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 2)),
    ((2, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 3, 0), (0, 0, 1)),
)


def parse_bratteli_json(text: str):
    """The descriptor afalg.export_bratteli(obj, "json") wrote, the
    reference the export is read back against; ShapeMismatch for any text
    that is not such a payload."""
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past int()'s digit limit
        raise ShapeMismatch(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ShapeMismatch(f"a diagram is a JSON object, not a {type(data).__name__}")
    kind = data.get("type")
    if kind == "trivial":
        return afalg.TrivialAF()
    if kind == "stationary":
        b = afalg._integers(data.get("period_matrix"), 2, "period_matrix")
        digits = afalg._integers(data.get("digits"), 2, "digits")
        try:
            fits = convergent_matrix(digits, len(b)) == b
        except ValueError:  # a digit of the wrong length or sign
            fits = False
        if not fits:
            raise ShapeMismatch("digits do not multiply to the period matrix")
        return afalg.StationaryAF(b, digits, perron_charpoly(b))
    if kind == "finite":
        complete = data.get("complete", True)
        if type(complete) is not bool:
            raise ShapeMismatch(f"complete must be true or false, not {complete!r}")
        return afalg.BratteliDiagram(
            afalg._integers(data.get("vertex_counts"), 1, "vertex_counts"),
            afalg._integers(data.get("matrices"), 3, "matrices"),
            complete=complete,
        )
    raise ShapeMismatch(f"unknown diagram type {kind!r}")
