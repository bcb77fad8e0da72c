"""One owner per structure: the Brauer-pair engine, the block algebra B
and the source algebra S are one InteriorAlgebra whenever they are one
algebra, so A^P, A(U), points, twisted units, theta and the structural
check are built once; the two radical paths are reached only through
`radical.local_radical` and `radical.radical_rows`; and every public
definition of `src/bflab` is reached from the CLI or is a named oracle."""

import ast
import os
import pathlib

import numpy as np
import pytest

from bflab import conjecture, interior
from bflab.blocks import analyze_block, build_group_algebra
from bflab.conjecture import equivalence_report
from bflab.fusion import BrauerPairs
from bflab.groups import load_group
from bflab.interior import InteriorAlgebra

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "src", "bflab", "data")
A5_PATH = os.path.join(ROOT, "perfbench", "groups", "a5.json")
SRC = pathlib.Path(interior.__file__).parent


def _analyzed(path, p):
    """The engine, every block's data and the rng of one run at seed 1."""
    rng = np.random.default_rng(1)
    pairs = BrauerPairs(build_group_algebra(load_group(path), p), rng)
    return pairs, [analyze_block(pairs, b, i, rng)
                   for i, b in enumerate(pairs.blocks)], rng


def test_s4_engine_block_and_source_are_one_interior_algebra():
    # b = 1, D = S and ell = 1_B: kG, B and S are one algebra
    pairs, (data,), _ = _analyzed(os.path.join(DATA, "s4.json"), 2)
    assert np.array_equal(data.b, pairs.A.unit)
    assert data.D.key == pairs.S.key
    assert np.array_equal(data.ell, pairs.A.unit)
    assert data.ia_S is data.ia_B is data.ia_kG_D is pairs.ia


def test_sl23_block_is_its_source_algebra_but_not_kg():
    # the dim-12 block of SL(2,3) at p = 3 has ell = 1_B and b != 1
    pairs, datas, _ = _analyzed(os.path.join(DATA, "sl23.json"), 3)
    (data,) = [d for d in datas if d.ia_B.A.dim == 12]
    assert data.ia_S is data.ia_B
    assert data.ia_kG_D is pairs.ia
    assert data.ia_B is not pairs.ia and data.ia_S is not pairs.ia


def test_a5_principal_block_keeps_three_interior_algebras():
    # ell != 1_B on the principal block of A5 at p = 3
    pairs, datas, _ = _analyzed(A5_PATH, 3)
    (data,) = [d for d in datas if d.principal]
    assert data.ia_S.A.dim < data.ia_B.A.dim < pairs.A.dim
    assert len({id(data.ia_S), id(data.ia_B), id(pairs.ia)}) == 3


def test_s4_ambient_balance_finds_its_quotients_and_one_structural_check(
        monkeypatch):
    checks = []
    check = InteriorAlgebra._check_structural

    def counted_check(self):
        checks.append(self)
        return check(self)
    monkeypatch.setattr(InteriorAlgebra, "_check_structural", counted_check)
    new_quotients = []
    ambient = conjecture.ambient_balance_report

    def counted_ambient(ia_hat, *args, **kwargs):
        before = len(ia_hat._bq_cache)
        out = ambient(ia_hat, *args, **kwargs)
        new_quotients.append(len(ia_hat._bq_cache) - before)
        return out
    monkeypatch.setattr(conjecture, "ambient_balance_report",
                        counted_ambient)
    pairs, (data,), rng = _analyzed(os.path.join(DATA, "s4.json"), 2)
    report = equivalence_report(data, rng)
    # every comparison still ran, on inputs already computed
    assert report["ambient_balance"] and report["ambient_matches_intrinsic"]
    assert new_quotients == [0]
    assert checks == [pairs.ia]


def _calls(tree, names):
    """(enclosing qualified function, call node) of each call of one of
    the names, as a bare name or an attribute."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else \
                getattr(fn, "attr", None)
            if name in names:
                out.append((".".join(scope), node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)
    visit(tree, ())
    return out


def _modules():
    return sorted(p.name for p in SRC.glob("*.py"))


# the scopes allowed to call each radical path: the certificate has one
# memoized entry, `local_radical`, which `radical_rows` and the Fitting
# split call; the chain runs only behind `radical_rows`
RADICAL_CALLERS = {
    "_local_radical": {("radical.py", "local_radical")},
    "local_radical": {("radical.py", "radical_rows"),
                      ("idempotents.py", "decompose_unit")},
    "_radical_rows_impl": {("radical.py", "radical_rows")},
}


@pytest.mark.parametrize("module", _modules())
def test_only_radical_rows_runs_a_radical_path(module):
    # the certificate and the chain fill one memo; a second caller would
    # compute a radical the memo already owns
    tree = ast.parse((SRC / module).read_text())
    for name, allowed in RADICAL_CALLERS.items():
        where = {(module, scope) for scope, _ in _calls(tree, {name})}
        assert where <= allowed, name


# the one fill of a multiplication table: subalgebras, radical quotients
# and the pairings of Brauer quotients (which give A(P) its algebra)
TENSOR_FILLERS = {("algebra.py", "AlgebraContext.subalgebra"),
                  ("interior.py", "InteriorAlgebra.pairing"),
                  ("idempotents.py", "quotient_algebra")}


@pytest.mark.parametrize("module", _modules())
def test_only_three_scopes_fill_a_structure_tensor(module):
    # a second fill would be a second multiplication kernel, and a
    # pairing filled outside `pairing` would miss its cache
    tree = ast.parse((SRC / module).read_text())
    where = {(module, scope) for scope, _ in
             _calls(tree, {"structure_tensor"})}
    assert where <= TENSOR_FILLERS


def _in_orelse_of_sylow_test(tree, call):
    """Whether the call is the else-branch of a conditional testing
    D.key == pairs.S.key."""
    for node in ast.walk(tree):
        if isinstance(node, ast.IfExp) and \
                ast.unparse(node.test) == "D.key == pairs.S.key" and \
                any(n is call for n in ast.walk(node.orelse)):
            return True
    return False


@pytest.mark.parametrize("module", _modules())
def test_interior_algebras_are_built_in_three_places(module):
    # the engine's kG, a proper corner, and kG over a defect group that
    # is not the engine's Sylow subgroup; every other interior algebra
    # is one of these
    tree = ast.parse((SRC / module).read_text())
    for scope, call in _calls(tree, {"InteriorAlgebra"}):
        assert (module, scope) in {("fusion.py", "BrauerPairs.__init__"),
                                   ("interior.py", "InteriorAlgebra.corner"),
                                   ("blocks.py", "analyze_block")}, scope
        if scope == "analyze_block":
            assert _in_orelse_of_sylow_test(tree, call)


@pytest.mark.parametrize("module", _modules())
def test_brauer_quotients_are_built_only_by_brauer(module):
    # one cache owns A(U): every quotient, on the orbit path or by
    # elimination, comes from InteriorAlgebra.brauer
    tree = ast.parse((SRC / module).read_text())
    where = {(module, scope) for scope, _ in
             _calls(tree, {"BrauerQuotient", "OrbitQuotient"})}
    assert where <= {("interior.py", "InteriorAlgebra.brauer")}


# public definitions that no CLI run reaches, each the oracle of the test
# named beside it (the theta checks also cover their own helpers)
THETA_SUITE = "test_acceptance.py::test_criterion_08_section_5_structure_suite"
ORACLES = {
    "radical.charpoly": "test_kernels.py::test_charpolys_match_charpoly",
    "radical.hessenberg": "test_kernels.py::test_charpolys_match_charpoly",
    # the chain's kernel, and the guess the certificate's powering replaced
    "radical.charpolys":
        "test_radical.py::test_powering_guess_matches_the_charpolys_guess",
    "radical.radical_rows":
        "test_radical.py::test_radical_rows_do_not_depend_on_stack_budget",
    "idempotents.is_primitive":
        "test_acceptance.py::test_criterion_01_block_sanity",
    "idempotents.quotient_algebra":
        "test_radical.py::test_block_radicals_count_p_regular_classes",
    # the centre of any algebra; the pipeline's are group algebras, whose
    # centre the class sums span
    "algebra.AlgebraContext.center_rows":
        "test_algebra.py::test_center_of_group_algebra_is_class_sums",
    "fusion.FusionSystem.all_isomorphisms":
        "test_acceptance.py::"
        "test_criterion_12_class_walk_matches_every_isomorphism",
    "blocks.group_basis_invariant":
        "test_acceptance.py::"
        "test_criterion_04_shape_inversion_matches_group_orbits",
    "gf.FiniteField.frobenius": "test_gf.py::test_frobenius_roots",
    "conjecture.theta_map": THETA_SUITE,
    "conjecture.theta_map_via_twisted_unit": THETA_SUITE,
    "conjecture.theta_structure_report": THETA_SUITE,
    "points.point_of": THETA_SUITE,
    "points.conjugate_point": THETA_SUITE,
    "points.relative_multiplicity": THETA_SUITE,
    "groups.GroupInjection.restrict": THETA_SUITE,
    "groups.GroupInjection.corestrict": THETA_SUITE,
    "groups.pmul": "test_group_tables.py::"
                   "test_product_table_matches_the_tuple_products",
    "groups.pinv": "test_group_tables.py::"
                   "test_product_table_matches_the_tuple_products",
}


def _names(node):
    """Every bare name a node mentions, and every attribute name as
    ".name": a method is reached only as an attribute."""
    return {n.id if isinstance(n, ast.Name) else "." + n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _reached_definitions():
    """{"module.qualname": reached} over the module-level functions,
    classes and methods of src/bflab, walking names from `cli.main`,
    `bflab.__all__` and module-level code.

    A reached name reaches every definition of that name, a function
    through its body and a class through its bases, its class-level
    statements and its dunder methods, so the walk over-approximates
    what runs."""
    import bflab
    defs, roots = {}, {"main", *bflab.__all__}
    for module in _modules():
        for node in ast.parse((SRC / module).read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                roots |= _names(node)
                continue
            defs[f"{module[:-3]}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        defs[f"{module[:-3]}.{node.name}.{sub.name}"] = sub
    by_name = {}
    for key in defs:
        name = key.rsplit(".", 1)[1]
        if key.count(".") == 1:         # a module-level function or class
            by_name.setdefault(name, []).append(key)
        by_name.setdefault("." + name, []).append(key)
    reached, seen, todo = set(), set(), list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for key in by_name.get(name, ()):
            reached.add(key)
            node = defs[key]
            if isinstance(node, ast.FunctionDef):
                todo.extend(_names(node))
                continue
            for part in node.bases + node.decorator_list:
                todo.extend(_names(part))
            for sub in node.body:
                if not isinstance(sub, ast.FunctionDef):
                    todo.extend(_names(sub))
                elif sub.name.startswith("__"):
                    todo.append("." + sub.name)
    return {key: key in reached for key in defs}


def test_every_public_definition_is_reached_or_an_oracle():
    # library code that no report runs is either deleted or kept as the
    # reference of a named test; an oracle that a run reaches is no
    # longer only an oracle, so it leaves the list
    reached = _reached_definitions()
    public = {key for key in reached
              if not any(part.startswith("_") for part in key.split("."))}
    assert {key for key in public if not reached[key]} == set(ORACLES)
    tests = pathlib.Path(ROOT, "tests")
    for oracle, test in ORACLES.items():
        path, name = test.split("::")
        tree = ast.parse((tests / path).read_text())
        assert any(isinstance(n, ast.FunctionDef) and n.name == name
                   for n in tree.body), (oracle, test)
