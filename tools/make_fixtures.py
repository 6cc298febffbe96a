#!/usr/bin/env python3
"""Regenerate the bundled newform fixtures from first principles.

For a prime level N with N + 1 divisible by 12, the eta quotient

    g_N(z) = (eta(z) * eta(N z))^2
           = q^((N+1)/12) * prod_{n>=1} (1 - q^n)^2 (1 - q^(Nn))^2

is a weight-2 cusp form on Gamma_0(N) with integer coefficients (Ligozat's
criteria; for N = 11 this is the classical discriminant-11 form).  Exact
linear algebra on q-expansions gives the matrix of T_2 on the span of the
Hecke translates T_2^j g_N, its characteristic polynomial, and from each
irreducible factor a normalized eigenform with coefficients in the
corresponding number field.  At the levels generated here, 11, 23, 47 and
71, that span is all of S_2(Gamma_0(N)), of dimension 1, 2, 4 and 6.  It
need not be at every such level: at N = 83 it has dimension 6, and
S_2(Gamma_0(83)) has dimension 7.

Every generated fixture is re-verified here (normalization, coprime
multiplicativity, prime-power recursions, T_p eigenvector property for
p <= 13) before being written; heckeaf.hecke.load_newform re-runs the
same checks on every load.

Usage: python3 tools/make_fixtures.py [--out DIR] [--with-47]

Level 47 (a single degree-4 orbit) is generated only on request: its
coefficient data is as sound as the rest, but the Jacobi-Perron expansion
of its coefficient-order module does not appear to be periodic, so the
stationary pipeline legitimately fails on it.  It is kept available as a
worked example of that failure mode rather than bundled.
"""

import argparse
import json
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from heckeaf.exactnum.field import make_field
from heckeaf.exactnum.polynomial import IntPolynomial, _divides_monic, is_irreducible

COEFF_COUNT = 200
PRIME_CHECK_BOUND = 13


def euler_product(limit):
    """Coefficients of prod (1 - q^n) via the pentagonal number theorem."""
    e = [0] * (limit + 1)
    k = 0
    while True:
        hit = False
        for kk in ((k, -k) if k else (0,)):
            idx = kk * (3 * kk - 1) // 2
            if 0 <= idx <= limit:
                e[idx] += -1 if k % 2 else 1
                hit = True
        if not hit and k > 0:
            break
        k += 1
    return e


def sparse_mul(a, b, limit):
    """Series product, iterating the nonzero entries of a."""
    out = [0] * (limit + 1)
    for i, x in enumerate(a):
        if x == 0 or i > limit:
            continue
        top = limit - i
        for j, y in enumerate(b[: top + 1]):
            if y:
                out[i + j] += x * y
    return out


def eta_quotient_squared(level, limit):
    """q-expansion of (eta(z) eta(level*z))^2 up to q^limit."""
    assert (level + 1) % 12 == 0
    shift = (level + 1) // 12
    e = euler_product(limit)
    e2 = sparse_mul(e, e, limit)
    e_n = [0] * (limit + 1)
    for i, x in enumerate(e):
        if i * level <= limit:
            e_n[i * level] = x
    en2 = sparse_mul(e_n, e_n, limit)
    prod = sparse_mul(en2, e2, limit)
    out = [0] * (limit + 1)
    for i, x in enumerate(prod):
        if i + shift <= limit:
            out[i + shift] = x
    return out


def hecke_tp(coeffs, p, limit):
    """T_p on an integer q-expansion, weight 2, good prime p."""
    out = [0] * (limit + 1)
    for m in range(1, limit + 1):
        v = coeffs[p * m]
        if m % p == 0:
            v += p * coeffs[m // p]
        out[m] = v
    return out


def hecke_span_relation(vectors, rows):
    """Monic dependency: coefficients a with v_d = sum a_j v_j, or None."""
    d = len(vectors) - 1
    mat = [[Fraction(vectors[j][m]) for j in range(d)] + [Fraction(vectors[d][m])]
           for m in rows]
    work = [row[:] for row in mat]
    nrows = len(work)
    piv = 0
    for c in range(d):
        pr = next((r for r in range(piv, nrows) if work[r][c] != 0), None)
        if pr is None:
            return None
        work[piv], work[pr] = work[pr], work[piv]
        inv = 1 / work[piv][c]
        work[piv] = [x * inv for x in work[piv]]
        for r in range(nrows):
            if r != piv and work[r][c] != 0:
                f = work[r][c]
                work[r] = [x - f * y for x, y in zip(work[r], work[piv])]
        piv += 1
    if piv < d:
        return None
    for r in range(piv, nrows):
        if work[r][d] != 0:
            return None
    return [work[i][d] for i in range(d)]


def t2_charpoly(g, limit):
    """(char poly of T_2 on the Hecke span of g, translate tables)."""
    vectors = [g]
    depth = 0
    while True:
        depth += 1
        vectors.append(hecke_tp(vectors[-1], 2, limit // 2 ** depth))
        rows = range(1, min(60, limit // 2 ** depth))
        sol = hecke_span_relation(vectors, rows)
        if sol is not None:
            # verify the relation on the whole computable range
            span = limit // 2 ** depth
            for m in range(1, span + 1):
                assert vectors[depth][m] == sum(
                    sol[j] * vectors[j][m] for j in range(depth)
                ), f"cyclic relation fails at coefficient {m}"
            coeffs = [-s for s in sol] + [Fraction(1)]
            assert all(c.denominator == 1 for c in coeffs)
            return IntPolynomial(tuple(int(c) for c in coeffs)), vectors[:depth]


# the largest |coefficient| _find_monic_factor tries below the constant term
_COEFF_BOUND = 25


def _find_monic_factor(poly):
    """A monic integer factor of degree <= deg/2 with coefficients of at
    most _COEFF_BOUND, or None.  The constant term must divide the
    polynomial's constant."""
    const = abs(poly.coeffs[0])
    divisors = [d for d in range(1, const + 1) if const % d == 0]
    for deg in range(1, poly.degree // 2 + 1):
        for c0 in divisors:
            for signed_c0 in (c0, -c0):
                for mid in product(range(-_COEFF_BOUND, _COEFF_BOUND + 1), repeat=deg - 1):
                    cand = (signed_c0,) + mid + (1,)
                    quo = _divides_monic(cand, poly.coeffs)
                    if quo is not None:
                        return IntPolynomial(cand), IntPolynomial(tuple(quo))
    return None


def factor_into_irreducibles(poly):
    """Factor a monic integer polynomial with small-coefficient factors.

    Splits greedily with a bounded divisor search; every emitted factor is
    certified irreducible by the library.  Sufficient for the Hecke
    characteristic polynomials handled here.
    """
    remaining = poly
    factors = []
    while remaining.degree > 0:
        split = _find_monic_factor(remaining)
        if split is None:
            assert is_irreducible(remaining), f"unfactored reducible: {remaining}"
            factors.append(remaining)
            break
        factor, remaining = split
        factors.extend(factor_into_irreducibles(factor))
    return factors


def eigenform_over_factor(field, full_charpoly, translates, count):
    """Normalized eigenform attached to one irreducible factor.

    With t the generator of the factor's field, synthetic division of the
    full characteristic polynomial h by (x - t) gives q(x) with
    h = (x - t) q(x); then q(T_2) g is a T_2 eigenvector for eigenvalue t,
    normalized to first coefficient 1.
    """
    t = field.gen
    h = full_charpoly.coeffs
    deg = len(h) - 1
    q = [field.zero] * deg
    q[deg - 1] = field.one
    for j in range(deg - 1, 0, -1):
        q[j - 1] = field.from_rational(h[j]) + t * q[j]
    assert (field.from_rational(h[0]) + t * q[0]).is_zero()  # remainder h(t) = 0
    raw = []
    for m in range(1, count + 1):
        acc = field.zero
        for j in range(min(deg, len(translates))):
            coef = translates[j][m]
            if coef:
                acc = acc + coef * q[j]
        raw.append(acc)
    lead = raw[0]
    assert not lead.is_zero(), "eigenvector vanishes at q^1"
    inv = lead.inverse()
    return [a * inv for a in raw]


def good_primes(bound, level):
    sieve = [True] * (bound + 1)
    out = []
    for p in range(2, bound + 1):
        if sieve[p]:
            if level % p:
                out.append(p)
            for k in range(p * p, bound + 1, p):
                sieve[k] = False
    return out


def verify_eigenform_tables(level, coeffs, field):
    """The generator's own verification pass (load_newform re-checks)."""
    count = len(coeffs)

    def c(m):
        return coeffs[m - 1]

    assert c(1) == field.one
    # coprime multiplicativity
    from math import gcd
    for m in range(2, count + 1):
        for n in range(2, count // m + 1):
            if gcd(m, n) == 1:
                assert c(m) * c(n) == c(m * n), (m, n)
    # prime power recursion at good primes
    for p in good_primes(count, level):
        r = 1
        while p ** (r + 1) <= count:
            lower = c(p ** (r - 1)) if r >= 1 else field.one
            assert c(p ** (r + 1)) == c(p) * c(p ** r) - p * lower, (p, r)
            r += 1
    # bad prime: c(p^(r+1)) = c(p) c(p^r)
    p = level
    r = 1
    while p ** (r + 1) <= count:
        assert c(p ** (r + 1)) == c(p) * c(p ** r)
        r += 1
    # T_p eigenvector property within range
    for p in good_primes(PRIME_CHECK_BOUND, level):
        for m in range(1, count // p + 1):
            gamma = c(p * m)
            if m % p == 0:
                gamma = gamma + p * c(m // p)
            assert gamma == c(p) * c(m), (p, m)


def fixture_dict(label, level, field_poly, coeffs, provenance):
    return {
        "label": label,
        "level": level,
        "weight": 2,
        "field_poly": list(field_poly.coeffs),
        "an": [[str(x) for x in elem.coords] for elem in coeffs],
        "_provenance": provenance,
    }


PROVENANCE = (
    "Generated by tools/make_fixtures.py: exact q-expansion of "
    "(eta(z)*eta({N}z))^2 on Gamma_0({N}) via the pentagonal number "
    "theorem, T_2 diagonalized on its Hecke span with exact rational "
    "linear algebra; coefficients verified against normalization, "
    "coprime multiplicativity, prime-power recursions, and the T_p "
    "eigenvector property for p <= 13 both here and at load time."
)


def generate_level(level, out_dir):
    limit = COEFF_COUNT * 2 ** {11: 0, 23: 1, 47: 3, 71: 5}[level] * 2
    g = eta_quotient_squared(level, limit)
    if level == 11:
        coeffs = g[1:COEFF_COUNT + 1]
        assert coeffs[0] == 1
        field = make_field(IntPolynomial((-1, 1)))
        elems = [field.from_rational(cm) for cm in coeffs]
        verify_eigenform_tables(level, elems, field)
        fixtures = [fixture_dict(
            "11a", 11, field.minpoly, elems, PROVENANCE.format(N=11))]
    else:
        charpoly, translates = t2_charpoly(g, limit)
        print(f"  level {level}: char poly of T_2 = {charpoly}")
        factors = factor_into_irreducibles(charpoly)
        print(f"  factors: {[str(f) for f in factors]}")
        fixtures = []
        for idx, fac in enumerate(sorted(factors, key=lambda f: f.coeffs)):
            field = make_field(fac)
            assert len(field.real_roots) == field.degree, "field not totally real"
            coeffs = eigenform_over_factor(field, charpoly, translates, COEFF_COUNT)
            verify_eigenform_tables(level, coeffs, field)
            label = f"{level}{'abcdef'[idx]}"
            fixtures.append(fixture_dict(
                label, level, fac, coeffs, PROVENANCE.format(N=level)))
    for fx in fixtures:
        path = out_dir / f"level{fx['label']}.json"
        path.write_text(json.dumps(fx, indent=1) + "\n")
        print(f"  wrote {path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--with-47", action="store_true",
                    help="also generate the level 47 degree-4 example")
    args = ap.parse_args()
    out_dir = Path(args.out) if args.out else (
        Path(__file__).resolve().parent.parent / "src" / "heckeaf" / "fixtures")
    out_dir.mkdir(parents=True, exist_ok=True)
    levels = [11, 23, 71] + ([47] if args.with_47 else [])
    for level in levels:
        print(f"level {level}:")
        generate_level(level, out_dir)


if __name__ == "__main__":
    main()
