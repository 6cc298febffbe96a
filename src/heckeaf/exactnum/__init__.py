"""Exact arithmetic in real algebraic number fields.

Elements, certified real embeddings, full Z-modules in Hermite canonical
form, endomorphism orders, and expanding units.
"""

from .field import (
    FieldElement,
    NumberField,
    RealRootInterval,
    eval_embedding,
    exact_floor,
    isolate_real_roots,
    make_field,
    sign_at,
)
from .lattice import (
    OrderRing,
    ZModule,
    endomorphism_ring,
    module_from_generators,
    module_intersect,
)
from .polynomial import IntPolynomial, is_irreducible, is_squarefree
from .units import (
    UnitElement,
    find_unit,
    is_dominant_at,
    make_nonnegative,
    multiplication_matrix,
    trace_gram,
)

__all__ = [
    "FieldElement",
    "IntPolynomial",
    "NumberField",
    "OrderRing",
    "RealRootInterval",
    "UnitElement",
    "ZModule",
    "endomorphism_ring",
    "eval_embedding",
    "exact_floor",
    "find_unit",
    "is_dominant_at",
    "is_irreducible",
    "is_squarefree",
    "isolate_real_roots",
    "make_field",
    "make_nonnegative",
    "module_from_generators",
    "module_intersect",
    "multiplication_matrix",
    "trace_gram",
]
