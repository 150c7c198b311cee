"""The batched-matmul contraction helper against ``np.einsum`` on every
spec the package uses, and the guard that keeps it the only pointwise
contraction path and the one planner of field products."""

import ast
import zlib
from pathlib import Path

import numpy as np
import pytest

from qsg import calculus, fields
from qsg.calculus import PolyConnection, covd_values
from qsg.contraction import contract
from qsg.fields import PolyTensorField, poly_einsum
from qsg.generate import j_conjugate_poly, random_poly_field, torsion_project_poly
from qsg.sampling import rng
from qsg.structures import AlmostComplexStructure

SRC = Path(__file__).resolve().parents[1] / "src" / "qsg"


def _calls(tree):
    """(enclosing function name, call node) for every call in a module."""
    out = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn
            if isinstance(child, ast.Call):
                out.append((name, child))
            visit(child, name)

    visit(tree, None)
    return out


def _modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _literal_specs():
    """Every constant spec passed to ``contract`` in the package, and the
    functions that pass one built at run time."""
    specs, built = set(), set()
    for module, tree in _modules().items():
        for fn, call in _calls(tree):
            if isinstance(call.func, ast.Name) and call.func.id == "contract":
                spec = call.args[0]
                if isinstance(spec, ast.Constant):
                    specs.add(spec.value)
                else:
                    built.add((module, fn))
    return specs, built


def _recorded(module, calls):
    """The specs ``module.contract`` is called with while ``calls()`` runs."""
    seen = []

    def recording(spec, a, b):
        seen.append(spec)
        return contract(spec, a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "contract", recording)
        calls()
    return set(seen)


def _covd_specs():
    """The specs ``covd_values`` builds, one set per supported valence."""
    d, pts = 2, np.array([[0.1, 0.2]])
    conn = PolyConnection(random_poly_field(rng(1, 0), d, (1, 2), 1, 1.0))
    return _recorded(calculus, lambda: [covd_values(conn, PolyTensorField.zeros(d, valence), pts)
                                        for valence in ((1, 0), (1, 1), (0, 2), (0, 3))])


def _product_specs():
    """The specs ``fields._field_product`` builds for the field products of
    the package, with either factor the one with fewer basis rows."""
    d = 2

    def field(valence, degree, seed):
        return random_poly_field(rng(3, seed), d, valence, degree, 1.0)

    def products():
        for low, high in ((0, 2), (2, 0)):
            J = field((1, 1), low, 1)
            X, A, b = field((1, 0), high, 2), field((1, 1), high, 3), field((0, 2), high, 4)
            gamma = field((1, 2), high, 5)
            poly_einsum("kj,j->k", J, X, valence=(1, 0))
            poly_einsum("km,mj->kj", J, A, valence=(1, 1))
            poly_einsum("il,lj->ij", poly_einsum("ki,kj->ij", J, b, valence=(0, 2)), J,
                        valence=(0, 2))
            j_conjugate_poly(gamma, AlmostComplexStructure(J))
            torsion_project_poly(gamma, AlmostComplexStructure(J))

    return _recorded(fields, products)


def _all_specs():
    specs, built = _literal_specs()
    # a spec built at run time is covered only where this test rebuilds it
    assert built == {("calculus.py", "covd_values"), ("fields.py", "_field_product")}
    return sorted(specs | _covd_specs() | _product_specs())


# specs no kernel builds any more, kept as planner cases: in the first two
# the left factor is transposed and summed over its first matrix index; in
# the third it lacks a batch axis of the right one, and the product has
# both a row and a column axis
SPECS = sorted(set(_all_specs()) | {"nil,nlkj->njki", "njm,njki->nmki", "nklm,nmj->nkjl"})


def _operands(spec, n, make):
    """Operands of ``spec`` with ``n`` points; every other index gets its
    own extent, so a permuted axis cannot go unnoticed."""
    extent = {"n": n}
    for i in sorted(set(spec) - set("n,->")):
        extent[i] = 2 + len(extent) % 4
    a, b = spec.split("->")[0].split(",")
    return [make(tuple(extent[i] for i in term)) for term in (a, b)]


def test_package_specs_were_found():
    assert "nkm,nmij->nkij" in SPECS and "nmq,nm->nq" in SPECS
    assert "naim,nmb->naib" in SPECS  # from covd_values, upper slot of a (1,1) field
    # from _field_product: the (1,1) composition with either factor the shorter one
    assert "Akm,Bmj->ABjk" in SPECS and "Amj,Bkm->ABkj" in SPECS
    assert len(SPECS) > 30


def _check(spec, a, b):
    got = contract(spec, a, b)
    want = np.einsum(spec, a, b)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max(initial=1.0))
    assert got.flags.writeable
    assert not np.shares_memory(got, a) and not np.shares_memory(got, b)
    return got


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("n", [1, 7])
def test_contract_matches_einsum(spec, n):
    gen = np.random.default_rng(zlib.crc32(spec.encode()))
    _check(spec, *_operands(spec, n, gen.standard_normal))


@pytest.mark.parametrize("spec", SPECS)
def test_contract_takes_strided_and_read_only_operands(spec):
    gen = np.random.default_rng(3)

    def strided(shape):
        # every second point of a reversed Fortran-ordered array
        base = np.asfortranarray(gen.standard_normal((2 * shape[0],) + shape[1:]))
        return base[::-2]

    def read_only(shape):
        arr = gen.standard_normal(shape)
        arr.flags.writeable = False
        return arr

    a, b = _operands(spec, 5, strided)
    assert not a.flags.c_contiguous
    _check(spec, a, b)
    a, b = _operands(spec, 5, read_only)
    out = _check(spec, a, b)
    out += 1.0  # callers accumulate into the result


@pytest.mark.parametrize("spec", SPECS + ["km,nmj->nkj"])
def test_contract_with_a_zero_extent_axis(spec):
    # a product with an empty field has no basis rows, and an empty batch
    # axis stays empty when the other operand lacks it
    gen = np.random.default_rng(zlib.crc32(spec.encode()))
    a_term, b_term = spec.split("->")[0].split(",")
    for empty in sorted(set(a_term + b_term)):
        a, b = _operands(spec, 3, gen.standard_normal)
        a = np.take(a, [], axis=a_term.index(empty)) if empty in a_term else a
        b = np.take(b, [], axis=b_term.index(empty)) if empty in b_term else b
        _check(spec, a, b)


def test_contract_on_frozen_point_memo():
    d = 4
    J = random_poly_field(rng(2, 0), d, (1, 1), 2, 1.0)
    pts = np.random.default_rng(0).uniform(-1, 1, (9, d))
    pts.flags.writeable = False
    jv, jg = J.jets(pts)
    assert J.jets(pts)[1] is jg and not jg.flags.writeable  # the memo's arrays
    for spec, b in (("nkm,nmij->nkij", jg), ("nli,nkjl->nkij", jg), ("nkm,nmj->nkj", jv)):
        out = _check(spec, jv, b)
        out *= 2.0
    assert not jg.flags.writeable and J.jets(pts)[1] is jg


@pytest.mark.parametrize("spec", [
    "nij,njk,nkl->nil",  # three operands: chain two calls
    "nij->nji",  # one operand: a transpose stays a view
    "nii,nij->nj",  # repeated index
    "nij,njk->nik,",  # stray comma
    "nij,njk",  # no output
    "nij,nkl->nil",  # j and k summed within one operand
    "nij,njk->nikq",  # an output index from nowhere
])
def test_contract_rejects_specs_it_does_not_plan(spec):
    with pytest.raises(ValueError):
        contract(spec, np.ones((2, 2, 2)), np.ones((2, 2, 2)))


def test_no_multi_operand_einsum_outside_poly_einsum():
    # the batched product must stay the only pointwise contraction path;
    # poly_einsum multiplies coefficient tables over basis axes instead
    found = []
    for module, tree in _modules().items():
        for fn, call in _calls(tree):
            operands = call.args[1:]
            multi = len(operands) >= 2 or any(isinstance(a, ast.Starred) for a in operands)
            if (isinstance(call.func, ast.Attribute) and call.func.attr == "einsum"
                    and multi and fn != "poly_einsum"):
                found.append(f"{module}:{call.lineno} in {fn}")
    assert found == []
