"""Units of orders, unit action matrices, and non-negative realizations.

_attractor_data expands the module's own basis ratios by Jacobi-Perron
(in degree 2 the regular continued fraction).  When that expansion
cycles, the cycle gives the unit, its non-negative realization and the
round trip in closed form, and check_cycle_form checks that form on
integers.  Otherwise find_unit enumerates max-norm shells of coordinate
vectors under one budget for a unit dominant at the chosen real
embedding, or raises UnitNotFound, and make_nonnegative looks for a
signed permutation of the module's basis or of its LLL basis making its
integer action matrix (multiplication_matrix) entrywise non-negative
with a canonical digit cycle, checked on the Perron data the unit and
the module basis give.
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
from .intmat import charpoly, is_primitive, mat_det, mat_identity, mat_mul
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
    in step, until root's interval lies above all the others or below one.
    Enclosures at two roots have their own scales, so each comparison
    cross-multiplies them: hi / s < lo_e / s_e exactly when hi s_e < lo_e s.
    Each root's ladder keeps its levels, so a later candidate's walk
    refines only below the deepest level an earlier one reached."""
    roots = v.field.real_roots
    idx = roots.index(root)
    for vals in zip(*(enclosures(v, r) for r in roots)):
        lo_e, hi_e, s_e = vals[idx]
        others = [w for j, w in enumerate(vals) if j != idx]
        if all(hi * s_e < lo_e * s for lo, hi, s in others):
            return True
        if any(lo * s_e > hi_e * s for lo, hi, s in others):
            return False


# ---------------------------------------------------------------------------
# the closed form of a cycling expansion, else a bounded unit enumeration

# the enumeration's budget of tested candidates: whole max-norm shells 1, 2,
# 3, ... while the next fits (up to 39, 12, 6, 3 at degree 3, 4, 5, 6)
_MAX_CANDIDATES = 500_000


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
    one walk over its enclosures (lo, hi, scale) ends when an interval
    avoids all three, compared as lo and hi against -scale, 0 and scale.
    """
    for lo, hi, scale in enclosures(alpha, root):
        if lo > scale:
            return alpha
        if hi < -scale:
            return -alpha
        if 0 < lo and hi < scale:
            return alpha.inverse()
        if -scale < lo and hi < 0:
            return -alpha.inverse()


def _attractor_data(m: ZModule, root: RealRootInterval, max_steps: int | None = None):
    """(v, Realization) read off the cycle of the module's own expansion,
    or None when it does not cycle within the budget: 4096 steps at rank
    2, where it is a quadratic irrational's regular continued fraction,
    which cycles with a period O(sqrt(D) log D) for discriminant D; 512
    at rank >= 3, where it need not cycle.

    The expansion runs on the HNF basis g from W = S, the diagonal of the
    basis signs at root.  After the digits of C = B(d_1)...B(d_k) the
    state is W = C^-1 S, so at the start of the cycle W is the attractor
    basis, the inverse of T = S C(preperiod), and x = W g has positive
    images with irrational ratios (W stays unimodular).  With M =
    C(period), p its length and lam = x / x_0 (Perron 1907, Satz XII;
    Bernstein, The Jacobi-Perron Algorithm, LNM 207):

    1. v is a unit of End(m) and T^-1 A T = M for its action matrix A on g.
       Steps keep x = B(d) x', so x = M y for the state y after p steps,
       and the repeat is y = x / v: M x = v x, v = row_0(M) lam.  So
       v g = T M T^-1 g, and A = T M T^-1 is integral with det M = +-1.
    2. M's Bauer digits are the period.  For M_k = C(d_k..d_p) =
       B(d_k) M_(k+1), row i less d_k,i times r = row_0(M_k) is a row of
       M_(k+1) >= 0, so the peel's digit b_i >= d_k,i; and the state before
       step k is M_k y, y >= 0, whose ratio row_i(M_k) y / r y is at least
       min(M_k[i][c] / r_c : r_c > 0), of floor b_i, so d_k,i >= b_i.  No
       block is a permutation (theta_(n-1) > 1 after a step makes every
       cycle digit end in an entry >= 1), so the peel ends after p blocks.
    3. lam's expansion is purely periodic with the period: its ratios are
       x's, so it returns to itself after p steps and not before.  No
       shorter word e repeats to the period: C(e) would commute with M and
       map x to an eigenvector for v, by 4 a multiple of x, a repeat
       after fewer than p steps.  So mcf.check_period would only repeat
       this expansion, and the round trip is (period, v, lam, it).
    4. Once M is primitive, sigma(v) is its Perron root, the one eigenvalue
       with a positive eigenvector (x).  That root is simple and exceeds
       |sigma_j(v)| for v's other images (char A = char M), so v has full
       degree, is dominant at root, and sigma(v) > 1, as the images
       multiply to +-1.  check_cycle_form tests primitivity.
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
    period = tuple(digits[start:])
    p_mat = mcf.convergent_matrix(period, n)
    x = [mcf._combination(row, basis, m.field) for row in states[start]]
    scale = x[0].inverse()
    lam = tuple(e * scale for e in x)
    v = mcf._combination(p_mat[0], x, m.field) * scale
    roundtrip = mcf.RoundTrip(period, v, lam, mcf.JpaExpansion(n, (), period, False))
    return v, Realization(p_mat, 1, t_mat, roundtrip)


def check_cycle_form(a, realization: Realization) -> None:
    """Raise NonnegativeFormNotFound, naming the period, unless a cycle's
    form M is primitive (claim 4 of _attractor_data) and A T == T M for
    the unit's action matrix A and T = realization.transform, on integers.
    With M unimodular and non-negative, A T == T M gives what a unit check
    would: the norm det A = det M = +-1, v and v^-1 in End(m) as A and
    A^-1 are integral, and sigma(v) > 1, M's Perron root."""
    m, t = realization.matrix, realization.transform
    period = realization.roundtrip.digits
    if not is_primitive(m):
        raise NonnegativeFormNotFound(f"the block product of the cycle {period} is not primitive")
    if mat_mul(a, t) != mat_mul(t, m):
        raise NonnegativeFormNotFound(f"the block product of the cycle {period} is not T^-1 A T "
                                      "for the unit's action matrix A")


def find_unit(order: OrderRing, root: RealRootInterval) -> UnitElement:
    """A unit u of the order, of the field's degree and dominant at root:
    sigma_e(u) > 1 exceeds |sigma_j(u)| at every other real embedding j.

    The unit search of a module whose expansion does not cycle.  The shells
    of max-norm 1, 2, 3, ... are tested while the next whole shell fits in
    _MAX_CANDIDATES: the first one holding a dominant unit gives its one
    of least image, and else UnitNotFound names the candidates tested and
    the max-norm done.  A shell may hold a unit as any of +-alpha^+-1;
    each unit is tested once, as the member with image > 1, and images
    are ordered by the exact sign of their difference (distinct elements
    have distinct images).

    A non-dominant u with sigma_e(u) > 1 is never realized, so it is not
    returned.  If u has lower degree, _is_top_real_root raises
    NotSquarefree.  Else some real |sigma_j(u)| >= sigma_e(u).  If
    sigma_j(u) > sigma_e(u), _is_top_real_root is false.  Else a
    non-negative candidate's Perron root, a real eigenvalue and its
    spectral radius, is at most sigma_e(u), the top real root, and at
    least |sigma_j(u)|: so sigma_j(u) = -sigma_e(u) ties with it in
    modulus and the candidate is not primitive.  Returning u would
    relabel a unit-stage failure as NonnegativeFormNotFound/NotSquarefree.

    A shell candidate sum_i c_i g_i over the order's HNF basis is summed
    on integer numerators over the basis' common denominator d, and its
    norm tested as FieldElement.norm computes it: |det M| == d^n for the
    integer multiplication matrix M of the numerators.  A shell holds c
    and -c together, and they share one norm test and one representative:
    N(-alpha) = (-1)^n N(alpha), and -alpha lies in alpha's class
    +-alpha^+-1.  So only the vector whose first non-zero coordinate is
    positive is tested; the count of candidates tested, the budget and
    the unit returned count and see both.
    """
    field = order.field
    if field.degree < 2:
        raise UnitNotFound("degree-1 orders have only the torsion units +1, -1")
    if root not in field.real_roots:
        raise ValueError("embedding does not belong to the order's field")
    n = field.degree
    den = order.module.den
    cols = tuple(zip(*order.module.rows))  # the basis' numerators, coordinate by coordinate
    unit_det = den ** n
    zero = (0,) * n
    tested = bound = 0
    while tested + (2 * bound + 3) ** n - (2 * bound + 1) ** n <= _MAX_CANDIDATES:
        bound += 1
        reps = {}  # each unit once, though the shell may hold all of +-alpha^+-1
        for coords in _shell(bound, n):
            tested += 1
            if coords < zero:  # -coords, first non-zero coordinate positive, stands for it
                continue
            num = [sum(c * x for c, x in zip(coords, col)) for col in cols]
            if abs(mat_det(field.mult_rows(num))) != unit_det:
                continue
            alpha = field.from_integers(num, den)
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

    The Gram-Schmidt data mu, b* are not recomputed after a size
    reduction.  Row i of them is a function of the leading (i+1) x (i+1)
    block of U G U^T alone, so rows 0..k-1 stay current while row k is
    reduced, and a size reduction b_k -= q b_j leaves b*_k and every row
    of mu but row k unchanged, and there mu_kt -= q mu_jt for t < j and
    mu_kj -= q: the recurrence defining mu gives exactly that, b*_t = 0
    included (mu_kt = mu_jt = 0 there, and q != 0 needs b*_j != 0).  Rows
    are computed only as far as k, from the first one a swap changed.
    """
    n = len(gram)
    g = [[Fraction(x) for x in row] for row in gram]  # U G U^T
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # U^-1
    mu = [[Fraction(0)] * n for _ in range(n)]
    bstar = [Fraction(0)] * n

    def gso_row(i):
        mu_i = mu[i]
        for j in range(i):
            mu_i[j] = 0 if bstar[j] == 0 else (
                g[i][j] - sum(mu_i[t] * mu[j][t] * bstar[t] for t in range(j))
            ) / bstar[j]
        bstar[i] = g[i][i] - sum(mu_i[t] ** 2 * bstar[t] for t in range(i))

    k = 1
    current = 0  # rows 0..current-1 of mu and b* are those of U G U^T
    guard = 0
    while k < n and guard < 1000:
        guard += 1
        for i in range(current, k + 1):
            gso_row(i)
        current = k + 1
        mu_k = mu[k]
        for j in range(k - 1, -1, -1):
            q = round(mu_k[j])
            if q:
                u[k] = [a - q * b for a, b in zip(u[k], u[j])]
                for row in v:
                    row[j] += q * row[k]
                row = [a - q * b for a, b in zip(g[k], g[j])]
                row[k] -= q * row[j]
                g[k] = row
                for t in range(n):
                    g[t][k] = row[t]
                mu_j = mu[j]
                for t in range(j):
                    mu_k[t] -= q * mu_j[t]
                mu_k[j] -= q
        if bstar[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * bstar[k - 1]:
            k += 1
        else:
            u[k], u[k - 1] = u[k - 1], u[k]
            g[k], g[k - 1] = g[k - 1], g[k]
            for row in g:
                row[k], row[k - 1] = row[k - 1], row[k]
            for row in v:
                row[k], row[k - 1] = row[k - 1], row[k]
            current = k - 1
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
    whatever the permutation.  The sign classes are tested first, and when
    none is admissible no conjugate is formed.  t is admissible exactly
    when the diagonal is non-negative and t_a t_b is the sign of each
    non-zero off-diagonal entry M[a][b]; t and -t are admissible together,
    so only the t with t_0 = 1 are tested.
    """
    n = len(m)
    if any(m[a][a] < 0 for a in range(n)):
        return
    entries = [(a, b, m[a][b] > 0) for a in range(n) for b in range(n) if a != b and m[a][b]]
    half = [t for t in ((1, *rest) for rest in product((1, -1), repeat=n - 1))
            if all((t[a] == t[b]) == positive for a, b, positive in entries)]
    if half:
        yield from _signed_conjugates(m, half + [tuple(-x for x in t) for t in half])


def _times_signed_permutation(base, q, signs):
    """base * P for the signed permutation P given as in _signed_conjugates."""
    n = len(base)
    return tuple(tuple(signs[j] * base[i][q[j]] for j in range(n)) for i in range(n))


def make_nonnegative(a, u: UnitElement, m: ZModule, root: RealRootInterval) -> Realization:
    """A non-negative form T^-1 A T of the unit's action matrix A, with
    T = B P for a base change B of m's basis and a signed permutation P,
    or NonnegativeFormNotFound.

    The form search of a module whose expansion does not cycle.  B runs
    over the identity and the LLL base change, the inverse of the
    unimodular U that _lll_transform returns with it, so no matrix is
    inverted.  Both bases are needed: Z[a] at x^3 + 5x^2 + 2x - 6,
    embedding 2, realizes only in the module's own basis, and
    2Z + Za + Za^2 at x^3 - 5x^2 + 2x + 4, embedding 2, only in the LLL
    one.  No surveyed module realizes at a power A^k, k > 1, where the
    first power does not, so no power is tried.

    M = B^-1 A B is formed once per base.  Since P^-1 = P^T, each
    candidate P^T M P is read off M by index and sign, and T = B P is
    formed only for the candidate returned.  Candidates are visited in
    the order of _signed_conjugates, but only those of an admissible sign
    class (_nonnegative_conjugates): a conjugate is non-negative exactly
    when D_t M D_t is for its sign vector t, so an M with no admissible
    class forms no conjugate.  `seen` need hold non-negative candidates
    only, and a base LLL leaves as it is repeats the identity's.

    All candidates are conjugate to A: _is_top_real_root decides at the
    first of them whether sigma_e(u) is their Perron root (and that u has
    full degree, so their char poly is irreducible).  A candidate is kept
    only if it is primitive and its Bauer digit cycle is the canonical
    expansion of its own Perron vector (mcf.check_period, returned in the
    Realization).  Its Perron data lie in the unit's field: A g = u g for
    the module basis g, so the candidate has the Perron root u at root
    and the eigenvector P^T B^-1 g, scaled to lam_0 = 1.
    """
    from .. import mcf

    basis = m.basis_elements()  # g
    ident = mat_identity(len(a))
    u_lll, inv = _lll_transform(trace_gram(basis))
    # (B, B^-1, B^-1 A B): the module's basis, then the LLL one, T = U^-1
    bases = ((ident, ident, a), (inv, u_lll, mat_mul(mat_mul(u_lll, a), inv)))

    seen = set()  # the non-negative candidates tried, the identity aside
    perron = None  # the Perron verdict, at the first candidate
    for base, base_inv, form in bases:
        for cand, q, signs in _nonnegative_conjugates(form):
            if cand in seen or cand == ident:
                continue
            seen.add(cand)
            if perron is None:
                perron = _is_top_real_root(u.element, a, root)
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
                roundtrip = mcf.check_period(digits, u.element, tuple(v * scale for v in lam), root)
            except RoundTripMismatch:
                continue  # the candidate's digit cycle is not canonical
            return Realization(cand, 1, _times_signed_permutation(base, q, signs), roundtrip)
    if seen:
        raise NonnegativeFormNotFound(
            f"none of the {len(seen)} non-negative signed-permutation conjugates of the unit's "
            "action matrix in the module's basis and its LLL basis passed the Perron/canonical "
            "cycle checks")
    raise NonnegativeFormNotFound("the unit's action matrix has no non-negative signed-permutation "
                                  "conjugate in the module's basis or its LLL basis")
