"""Units of orders, unit action matrices, and non-negative realizations.

find_unit finds a unit dominant at a chosen real embedding, or raises
UnitNotFound.  It first takes the return unit of the Jacobi-Perron
expansion of the order's own basis ratios (in degree 2 the regular
continued fraction, whose period gives the fundamental unit of the
multiplier ring); when that expansion does not cycle within budget, it
enumerates coordinate vectors by max-norm shells under one budget.
multiplication_matrix writes the unit action on a full module as an
integer matrix, and make_nonnegative hunts for a power/basis change
making that matrix entrywise non-negative with a canonical digit cycle,
checked on the Perron data the unit and the module basis already give.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import TYPE_CHECKING

from ..errors import (
    NonnegativeFormNotFound,
    NotEndomorphism,
    NotFactorizable,
    NotSquarefree,
    RoundTripMismatch,
    UnitNotFound,
)
from .field import (
    FieldElement,
    RealRootInterval,
    enclosures,
    sign_at,
)
from .intmat import charpoly, is_primitive, mat_det, mat_identity, mat_mul, mat_pow
from .lattice import OrderRing, ZModule

if TYPE_CHECKING:
    from ..mcf import RoundTrip


@dataclass(frozen=True)
class UnitElement:
    element: FieldElement
    norm: int  # +1 or -1
    order: OrderRing


def trace_gram(basis):
    """Gram matrix of the trace form on a list of field elements."""
    n = len(basis)
    return [[(basis[i] * basis[j]).trace() for j in range(n)] for i in range(n)]


def is_dominant_at(u: FieldElement, root: RealRootInterval) -> bool:
    """Whether |sigma_e(u)| > |sigma(u)| at every other real embedding.

    Symbolic degree checks rule out exact ties (they force u^2 into a
    proper subfield); the rest is interval separation.
    """
    if len(u.field.real_roots) > 1 and u.degree_over_q() < u.field.degree:
        return False  # embedding values repeat
    return _dominant_of_full_degree(u, root)


def _dominant_of_full_degree(u: FieldElement, root: RealRootInterval) -> bool:
    """is_dominant_at for u of the field's degree: _exceeds_other_images
    of u^2, once u^2 has the field's degree too."""
    field = u.field
    if len(field.real_roots) <= 1:
        return True
    sq = u * u
    if sq.degree_over_q() < field.degree:
        return False  # |values| repeat
    return _exceeds_other_images(sq, root)


def _exceeds_other_images(v: FieldElement, root: RealRootInterval) -> bool:
    """Whether sigma(v) at root exceeds v's other real images, for v of the
    field's degree: one walk over the enclosures of v at every real root,
    in step, until root's interval lies above all the others or below one."""
    roots = v.field.real_roots
    idx = roots.index(root)
    for vals in zip(*(enclosures(v, r) for r in roots)):
        lo_e, hi_e = vals[idx]
        others = [w for j, w in enumerate(vals) if j != idx]
        if all(hi < lo_e for lo, hi in others):
            return True
        if any(lo > hi_e for lo, hi in others):
            return False


# ---------------------------------------------------------------------------
# the unit search: the attractor return unit, else a bounded enumeration

# the enumeration's budget of tested candidates: whole max-norm shells 1, 2,
# 3, ... while the next fits (up to 39, 12, 6, 3 at degree 3, 4, 5, 6)
_MAX_CANDIDATES = 500_000


def _norm_tester(order: OrderRing):
    """Fast exact |norm| == 1 test for integer combinations of the basis.

    Uses integer matrices: with d the basis denominator, N(sum c_i g_i) =
    det(sum c_i * d * M_{g_i}) / d^n, where d M_{g_i} is the integer
    multiplication matrix of the module's HNF row i.
    """
    m = order.module
    n = m.rank
    mats = [m.field.mult_rows(row) for row in m.rows]
    dn = m.den ** n

    def is_unit_norm(coords):
        acc = [[0] * n for _ in range(n)]
        for c, mat in zip(coords, mats):
            if c:
                for i in range(n):
                    row = mat[i]
                    arow = acc[i]
                    for j in range(n):
                        arow[j] += c * row[j]
        return abs(mat_det(acc)) == dn

    return is_unit_norm


def _shell(bound: int, n: int):
    """Integer vectors with max-norm exactly bound, deterministic order."""
    full = range(-bound, bound + 1)
    edge = (-bound, bound)
    for pos in range(n):
        # coordinate `pos` is the first coordinate hitting the bound
        inner = range(-(bound - 1), bound)
        pools = [inner] * pos + [edge] + [full] * (n - pos - 1)
        yield from product(*pools)


def _expanding_representative(alpha: FieldElement, root: RealRootInterval):
    """The member of {alpha, -alpha, alpha^-1, -alpha^-1} with image > 1.

    alpha must be irrational: then sigma(alpha) is none of -1, 0, 1, and
    one walk over its enclosures ends when an interval avoids all three.
    """
    for lo, hi in enclosures(alpha, root):
        if lo > 1:
            return alpha
        if hi < -1:
            return -alpha
        if 0 < lo and hi < 1:
            return alpha.inverse()
        if -1 < lo and hi < 0:
            return -alpha.inverse()


def _attractor_data(m: ZModule, root: RealRootInterval, max_steps: int | None = None):
    """Expand the module's own basis ratios to their periodic tail.

    Returns (T, W, period_digits, return_unit) where T is the basis change
    with T^-1 A T the action in the attractor basis, W = T^-1 (the
    attractor basis rows), the digits are the detected cycle, and the
    return unit v is the Perron value of one trip around it (v * L = L for
    the attractor-scaled module L, so v lies in End(m) and expands at
    root).  Returns None when the expansion does not cycle within the
    budget: the Jacobi-Perron expansion of a module direction is not
    periodic in general.  The default budget is set by the module's rank:
    4096 steps for rank 2, where the expansion is the regular continued
    fraction of a quadratic irrational and always cycles, with a period
    of length O(sqrt(D) log D) for discriminant D; 512 steps for
    rank >= 3, where an expansion need not cycle and has to be cut off.

    The expansion runs on the HNF basis g from W = S, the diagonal of the
    basis signs at root, and checks states 0..max_steps-1 for a repeat.
    After the digits of C = B(d_1)...B(d_k) the state is W = C^-1 S: at
    the start of the cycle W is the attractor basis, with no matrix to
    invert.  W stays unimodular, so the v_j are Q-linearly independent
    and every theta_j is irrational and positive.
    """
    from .. import mcf

    basis = m.basis_elements()
    n = len(basis)
    if n < 2:
        return None
    if max_steps is None:
        max_steps = 4096 if n == 2 else 512
    signs = [sign_at(g, root) for g in basis]
    s_diag = tuple(tuple((signs[i] if i == j else 0) for j in range(n)) for i in range(n))
    digits, states, start, _ = mcf._expand_states(basis, root, s_diag, max_steps)
    if start is None:
        return None
    t_mat = mat_mul(s_diag, mcf.convergent_matrix(digits[:start], n))  # (C^-1 S)^-1 = S C
    star = states[start]
    period = tuple(digits[start:])
    p_mat = mcf.convergent_matrix(period, n)
    star_elems = [mcf._combination(row, basis, m.field) for row in star]
    v = mcf._combination(p_mat[0], star_elems, m.field) / star_elems[0]
    return t_mat, star, period, v


# the attractor data of a module has not been computed yet
_NOT_COMPUTED = object()


def find_unit(order: OrderRing, root: RealRootInterval,
              attractor=_NOT_COMPUTED) -> UnitElement:
    """A unit u of the order, of the field's degree and dominant at root:
    sigma_e(u) > 1 exceeds |sigma_j(u)| at every other real embedding j.

    The order's own basis ratios are expanded first (_attractor_data):
    when that expansion cycles, the Perron value of one trip around the
    cycle is a unit of the order and is the one the downstream block
    factorization can realize (dominant, as the Perron root of a cycle
    product some power of which is positive; Perron 1907).  In degree 2
    the expansion is the regular continued fraction of a reduced
    quadratic irrational, and one period gives the fundamental unit of
    the order.  The return unit is verified exactly (unit norm, it and
    its inverse in the order, image > 1).  When the expansion does not
    cycle within budget, the shells of max-norm 1, 2, 3, ... are tested
    while the next whole shell fits in _MAX_CANDIDATES: the first one
    holding a dominant unit gives its one of least image, and else
    UnitNotFound names the candidates tested and the max-norm done.  A
    shell may hold a unit as any of +-alpha^+-1; each unit is tested once,
    as the member with image > 1, and images are ordered by the exact sign
    of their difference (distinct elements have distinct images).

    A non-dominant u with sigma_e(u) > 1 is never realized, so it is not
    returned.  If u has lower degree, so has every u^k: _is_top_real_root
    raises NotSquarefree.  If only u^2 has, so have even k, and at odd k
    the real images +-sigma_e(u)^k tie in modulus: no candidate is
    primitive with Perron root sigma_e(u^k).  Else some real |sigma_j(u)|
    > sigma_e(u): a u^k of lower degree raises NotSquarefree, and at full
    degree a non-negative candidate's Perron root is a real image of u^k
    above sigma_e(u^k), so _is_top_real_root is false.  Returning u would
    relabel a unit-stage failure as NonnegativeFormNotFound/NotSquarefree.

    attractor, when given, is _attractor_data(order.module, root) as the
    caller already computed it (None included: the expansion did not
    cycle), so that the expansion runs once per pipeline run.
    """
    from ..mcf import _combination

    field = order.field
    if field.degree < 2:
        raise UnitNotFound("degree-1 orders have only the torsion units +1, -1")
    if root not in field.real_roots:
        raise ValueError("embedding does not belong to the order's field")
    n = field.degree
    if attractor is _NOT_COMPUTED:
        attractor = _attractor_data(order.module, root)
    if attractor is not None:
        v = attractor[3]
        nrm = v.norm()
        if (
            nrm in (1, -1)
            and order.contains(v)
            and order.contains(v.inverse())
            and sign_at(v - field.one, root) > 0
        ):
            return UnitElement(v, int(nrm), order)

    basis = order.basis_elements()
    is_unit_norm = _norm_tester(order)
    tested = bound = 0
    while tested + (2 * bound + 3) ** n - (2 * bound + 1) ** n <= _MAX_CANDIDATES:
        bound += 1
        reps = {}  # each unit once, though the shell may hold all of +-alpha^+-1
        for coords in _shell(bound, n):
            tested += 1
            if not is_unit_norm(coords):
                continue
            alpha = _combination(coords, basis, field)
            if not alpha.is_rational():
                reps[_expanding_representative(alpha, root)] = None
        best = None
        for rep in reps:
            if rep.degree_over_q() == n and _dominant_of_full_degree(rep, root) and (
                    best is None or sign_at(rep - best, root) < 0):
                best = rep
        if best is not None:
            return UnitElement(best, int(best.norm()), order)
    raise UnitNotFound(f"no unit dominant at the embedding among {tested} candidates, "
                       f"every coordinate vector of max-norm <= {bound}")


# ---------------------------------------------------------------------------
# the action matrix and its non-negative realization

# largest power k of the action matrix that make_nonnegative tries
_K_MAX = 12

def multiplication_matrix(u: FieldElement, m: ZModule):
    """Integer matrix A with row i the coordinates of u * g_i in the basis
    g of m; raises NotEndomorphism when u does not preserve m."""
    if isinstance(u, UnitElement):
        u = u.element
    basis = m.basis_elements()
    rows = []
    for g in basis:
        coords = m.coordinates_of(u * g)
        if coords is None:
            raise NotEndomorphism(f"{u} * {g} leaves the module")
        rows.append(tuple(coords))
    return tuple(rows)


def _lll_transform(gram):
    """(U, U^-1) for the unimodular U size-reducing the lattice with the
    given Gram matrix (exact arithmetic, Lovasz condition with delta =
    3/4).

    The Gram matrix of the current basis, U G U^T, is kept up to date:
    a row operation or a swap of U is the same operation on its rows and
    then on its columns, O(n) each, so no inner product is recomputed.
    U^-1 takes the inverse of each operation as a column operation: when
    row k of U loses q times row j, column j of U^-1 gains q times column
    k, and a swap of rows is the same swap of columns.
    """
    n = len(gram)
    g = [[Fraction(x) for x in row] for row in gram]  # U G U^T
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # U^-1

    def gso():
        mu = [[Fraction(0)] * n for _ in range(n)]
        bstar = [Fraction(0)] * n
        for i in range(n):
            for j in range(i):
                if bstar[j] == 0:
                    continue
                mu[i][j] = (
                    g[i][j]
                    - sum(mu[i][t] * mu[j][t] * bstar[t] for t in range(j))
                ) / bstar[j]
            bstar[i] = g[i][i] - sum(mu[i][t] ** 2 * bstar[t] for t in range(i))
        return mu, bstar

    k = 1
    guard = 0
    while k < n and guard < 1000:
        guard += 1
        mu, bstar = gso()
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                u[k] = [a - q * b for a, b in zip(u[k], u[j])]
                for row in v:
                    row[j] += q * row[k]
                row = [a - q * b for a, b in zip(g[k], g[j])]
                row[k] -= q * row[j]
                g[k] = row
                for t in range(n):
                    g[t][k] = row[t]
                mu, bstar = gso()
        if bstar[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * bstar[k - 1]:
            k += 1
        else:
            u[k], u[k - 1] = u[k - 1], u[k]
            g[k], g[k - 1] = g[k - 1], g[k]
            for row in g:
                row[k], row[k - 1] = row[k - 1], row[k]
            for row in v:
                row[k], row[k - 1] = row[k - 1], row[k]
            k = max(k - 1, 1)
    return tuple(tuple(row) for row in u), tuple(tuple(row) for row in v)


def _is_top_real_root(value: FieldElement, a, root: RealRootInterval) -> bool:
    """Whether sigma(value) at root is the largest real root of a's char
    poly prod_j (x - sigma_j(value)), whose real roots are value's real
    images once value has the field's degree (it is not squarefree else)."""
    if value.degree_over_q() < value.field.degree:
        raise NotSquarefree(str(charpoly(a)))
    return _exceeds_other_images(value, root)


@dataclass(frozen=True)
class Realization:
    """A non-negative form matrix = T^-1 A^power T of a unit's action
    matrix A, with T = transform, and the record of the round trip that
    accepted it (Bauer digits, Perron value and eigenvector, expansion)."""

    matrix: tuple
    power: int
    transform: tuple
    roundtrip: RoundTrip


def _signed_conjugates(m, classes):
    """(P^T M P, q, signs) for every signed permutation matrix P whose sign
    class is in classes, in a fixed order; P has the entry signs[j] at row
    q[j], column j, and zeros elsewhere.  As P^-1 = P^T, each entry of the
    conjugate is an entry of M times two signs: (P^T M P)[i][j] = signs[i]
    signs[j] M[q[i]][q[j]].  P's sign class is the vector t with t[q[i]] =
    signs[i]; permutations run in the order of permutations(), and for each
    the signs in the order of product((1, -1))."""
    n = len(m)
    for perm in permutations(range(n)):
        q = [0] * n
        for i, j in enumerate(perm):
            q[j] = i
        for signs in sorted((tuple(t[q[i]] for i in range(n)) for t in classes),
                            reverse=True):
            yield tuple(
                tuple(signs[i] * signs[j] * m[q[i]][q[j]] for j in range(n))
                for i in range(n)
            ), q, signs


def _nonnegative_conjugates(m):
    """The entrywise non-negative P^T M P among _signed_conjugates, in the
    same order and with the same (q, signs).

    The entries of P^T M P are those of D_t M D_t for P's sign class t,
    permuted; so the conjugate is non-negative exactly when D_t M D_t is,
    whatever the permutation.  The 2^n sign classes are tested first (n^2
    entries each), and when none is admissible no conjugate is formed.
    """
    n = len(m)
    classes = [t for t in product((1, -1), repeat=n)
               if all(t[a] * t[b] * m[a][b] >= 0 for a in range(n) for b in range(n))]
    if classes:
        yield from _signed_conjugates(m, classes)


def _times_signed_permutation(base, q, signs):
    """base * P for the signed permutation P given as in _signed_conjugates."""
    n = len(base)
    return tuple(tuple(signs[j] * base[i][q[j]] for j in range(n)) for i in range(n))


def make_nonnegative(a, u: UnitElement, m: ZModule, root: RealRootInterval,
                     attractor=_NOT_COMPUTED) -> Realization:
    """Search for T and k with A' = T^-1 A^k T entrywise non-negative.

    T = B P ranges over base changes B (the module's attractor basis
    change, the identity and an LLL-derived basis change) times signed
    permutations P; k runs over 1.._K_MAX, even values only when the unit's
    image is negative so that the spectral radius of A' is sigma_e(u)^k
    (this is verified, not assumed).  The candidates at power k are all
    conjugate to A^k: _is_top_real_root decides at the first of them
    whether sigma_e(u^k) is their Perron root (and that u^k has full
    degree, so their char poly is irreducible).  A candidate is kept only
    if it is primitive and its Bauer digit cycle is the canonical
    expansion of its own Perron vector (mcf.check_period, returned in the
    Realization).  Its Perron data lie in the unit's field: A g = u g for
    the module basis g, so the candidate has the Perron root u^k at root
    and the eigenvector P^T B^-1 g, scaled to lam_0 = 1.

    No B is inverted here: the attractor expansion and the LLL step
    already hold each inverse.  Since P^-1 = P^T, the candidate
    P^T (B^-1 A^k B) P is read off M = B^-1 A^k B by index and sign,
    and T = B P is formed only for the candidate returned.  attractor,
    when given, is _attractor_data(m, root) as the caller computed it.

    Candidates are visited in the order of _signed_conjugates, but only
    those of an admissible sign class (_nonnegative_conjugates): a
    conjugate is non-negative exactly when D_t M D_t is for its sign
    vector t, so the sign classes of M are tested before any permutation,
    and an M with none forms no conjugate.  `seen` need hold non-negative
    candidates only: a matrix skipped for its signs is skipped wherever it
    recurs.
    """
    from .. import mcf

    n = len(a)
    s = sign_at(u.element, root)
    k_start, k_step = (1, 1) if s > 0 else (2, 2)

    # base changes B with their inverses, each of which is already known
    ident = mat_identity(n)
    bases = []
    if attractor is _NOT_COMPUTED:
        attractor = _attractor_data(m, root)
    if attractor is not None:
        bases.append(attractor[:2])
    bases.append((ident, ident))
    basis = m.basis_elements()  # g
    u_lll, inv = _lll_transform(trace_gram(basis))
    if u_lll != ident:
        bases.append((inv, u_lll))  # A in the LLL basis is T^-1 A T for T = U^-1

    seen = set()
    found_nonneg = False
    for k in range(k_start, _K_MAX + 1, k_step):
        ak = mat_pow(a, k)
        u_pow = u.element ** k
        perron = None  # the Perron verdict of power k, at its first candidate
        for base, base_inv in bases:
            conjugated = mat_mul(mat_mul(base_inv, ak), base)
            for cand, q, signs in _nonnegative_conjugates(conjugated):
                if cand in seen:
                    continue
                seen.add(cand)
                if cand == ident:
                    continue
                found_nonneg = True
                if perron is None:
                    perron = _is_top_real_root(u_pow, ak, root)
                if not perron:
                    continue
                try:
                    digits = tuple(mcf.bauer_factorize(cand))
                except NotFactorizable:
                    continue
                if not is_primitive(cand):
                    continue  # the Perron root may be non-simple
                lam = [sign * mcf._combination(base_inv[i], basis, m.field)
                       for sign, i in zip(signs, q)]  # P^T B^-1 g
                scale = lam[0].inverse()
                try:
                    roundtrip = mcf.check_period(digits, u_pow, tuple(v * scale for v in lam), root)
                except RoundTripMismatch:
                    continue  # the candidate's digit cycle is not canonical
                transform = _times_signed_permutation(base, q, signs)
                return Realization(cand, k, transform, roundtrip)
    if found_nonneg:
        raise NonnegativeFormNotFound(
            "non-negative forms exist but none passed the Perron/canonical "
            f"cycle checks within k <= {_K_MAX}"
        )
    raise NonnegativeFormNotFound(
        f"no non-negative conjugate of a power up to {_K_MAX} found"
    )
