"""Reference operators the tests compare the package against: exact
brackets, the bracket form of the Nijenhuis tensor and Lie derivatives of
the structure, ``J`` applied to a vector field, and fields to and from
one :class:`PolyExpr` per component.
"""

import numpy as np

from qsg.errors import QsgError
from qsg.fields import PolyExpr, PolyTensorField, poly_einsum
from qsg.generate import random_poly_field
from qsg.structures import AlmostComplexStructure


def from_comps(dimension: int, valence, comps) -> PolyTensorField:
    """The field whose components are ``comps``, an object array of
    :class:`PolyExpr` of shape ``(d,) * (p + q)``, upper indices first."""
    shape = (dimension,) * (valence[0] + valence[1])
    polys = np.asarray(comps, dtype=object).reshape(shape).reshape(-1)
    onehot = np.eye(len(polys))
    exps = np.vstack([np.zeros((0, dimension), dtype=np.int64)] + [p.exps for p in polys])
    coefs = np.vstack([onehot[:0]] + [p.coefs[:, None] * onehot[s] for s, p in enumerate(polys)])
    return PolyTensorField(dimension, valence, exps=exps, coefs=coefs.reshape((-1,) + shape))


def comps(field: PolyTensorField) -> np.ndarray:
    """Read-only object array of per-component :class:`PolyExpr`, rebuilt
    from the coefficient tensor on every call."""
    out = np.empty(field.shape, dtype=object)
    for idx in np.ndindex(field.shape):
        out[idx] = PolyExpr(field.dimension, field.exps, field.coefs[(slice(None),) + idx])
    out.flags.writeable = False
    return out


def random_poly(rng, dimension: int, degree: int, bound: float) -> PolyExpr:
    """A dense random polynomial of degree <= ``degree``: the one component
    of a random scalar field, from the same draws."""
    return comps(random_poly_field(rng, dimension, (0, 0), degree, bound))[()]


def j_apply(J, X: PolyTensorField) -> PolyTensorField:
    """The (1,1) field ``J`` applied to a vector field: ``(J X)^k = J^k_j X^j``."""
    return poly_einsum("kj,j->k", J, X, valence=(1, 0))


def lie_bracket(X: PolyTensorField, Y: PolyTensorField) -> PolyTensorField:
    """[X, Y]^i = X^j d_j Y^i - Y^j d_j X^i, exact polynomial result."""
    if X.valence != (1, 0) or Y.valence != (1, 0):
        raise QsgError("lie_bracket expects two vector fields")
    if X.dimension != Y.dimension:
        raise QsgError("vector fields live on different charts")
    return (poly_einsum("j,ij->i", X, Y.gradient(), valence=(1, 0))
            - poly_einsum("j,ij->i", Y, X.gradient(), valence=(1, 0)))


def nijenhuis_on_fields(J: AlmostComplexStructure, X: PolyTensorField, Y: PolyTensorField) -> PolyTensorField:
    """Bracket-form evaluation on explicit polynomial vector fields."""
    JX = j_apply(J, X)
    JY = j_apply(J, Y)
    term1 = j_apply(J, j_apply(J, lie_bracket(X, Y)))
    term2 = j_apply(J, lie_bracket(X, JY))
    term3 = j_apply(J, lie_bracket(JX, Y))
    term4 = lie_bracket(JX, JY)
    return -term1 + term2 + term3 - term4


def lie_derivative_J_on_fields(J: AlmostComplexStructure, X: PolyTensorField, Y: PolyTensorField) -> PolyTensorField:
    """(L_X J) Y = [X, JY] - J [X, Y] for polynomial fields."""
    return lie_bracket(X, j_apply(J, Y)) - j_apply(J, lie_bracket(X, Y))
