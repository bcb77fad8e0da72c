"""Acceptance suite: one test per criterion, one printed verdict line each.

The catalog is the ten bundled groups at every dividing prime.  Shared
pipeline results are cached per (group, prime) so the criteria stay
independent without recomputing blocks.
"""

import json
import os
import time

import numpy as np

from bflab import linalg
from bflab.bisets import (characteristic_report, explicit_invariant_basis,
                          shape_from_brauer_dims, twisted_classes)
from bflab.blocks import (analyze_block, build_group_algebra,
                          group_basis_invariant, proved_conditions_report,
                          source_fusion_identity_report)
from bflab.conjecture import (equivalence_report, lift_to_global_unit,
                              theta_map, theta_structure_report,
                              twisted_unit_exists, twisted_unit_laws_report,
                              unit_in_subspace)
from bflab.fusion import BrauerPairs
from bflab.groups import (TwistedDiagonal, centralizer, load_group,
                          p_subgroups_up_to_conjugacy, sylow_subgroup)
from bflab.idempotents import block_idempotents, is_primitive
from bflab.interior import InteriorAlgebra

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "bflab", "data")
CATALOG = ["c2", "c3", "c4", "v4", "s3", "d8", "q8", "a4", "sl23", "s4"]
SEED = 0xB10CF

_groups = {}
_entries = {}


def catalog_groups():
    if not _groups:
        for name in CATALOG:
            _groups[name] = load_group(os.path.join(DATA, f"{name}.json"))
    return _groups


def dividing_primes(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def catalog_pairs():
    out = []
    for name, G in catalog_groups().items():
        for p in dividing_primes(G.order):
            out.append((name, p))
    return out


def entry(name, p):
    """Cached pipeline data for one catalog entry."""
    key = (name, p)
    if key not in _entries:
        G = catalog_groups()[name]
        rng = np.random.default_rng(SEED)
        A = build_group_algebra(G, p)
        t0 = time.time()
        bs = block_idempotents(A, rng)
        pairs = BrauerPairs(A, rng)
        datas = [analyze_block(pairs, b, i, rng) for i, b in enumerate(bs)]
        _entries[key] = {"G": G, "A": A, "blocks": bs, "datas": datas,
                         "rng": rng, "seconds": time.time() - t0}
    return _entries[key]


def verdict(num, ok, text):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {text}"
    print(line)
    return ok


def test_criterion_01_block_sanity():
    ok = True
    for name, p in catalog_pairs():
        e = entry(name, p)
        A, bs = e["A"], e["blocks"]
        rng = np.random.default_rng(SEED + 1)
        total = A.zero()
        dims = 0
        from bflab.algebra import class_sum_rows
        Z = A.subalgebra(linalg.rref(A.field, class_sum_rows(A))[0])
        for b in bs:
            assert A.is_idempotent(b)
            for j in range(A.dim):
                v = A.basis_vector(j)
                assert np.array_equal(A.mul(b, v), A.mul(v, b))
            assert is_primitive(Z, Z.from_parent(b))
            total = A.add(total, b)
            dims += A.corner(b).dim
        for a in range(len(bs)):
            for c in range(a + 1, len(bs)):
                assert not np.any(A.mul(bs[a], bs[c]))
        assert np.array_equal(total, A.unit)
        assert dims == e["G"].order
        if e["seconds"] >= 10:
            print(f"  note: {name} p={p} took {e['seconds']:.1f}s "
                  "(target < 10s)")
    assert verdict(1, ok, "block idempotents central, orthogonal, "
                   "primitive in Z(kG), summing to 1; dims add to |G|")


def test_criterion_02_brauer_isomorphism_dimension():
    ok = True
    for name, p in catalog_pairs():
        e = entry(name, p)
        G = e["G"]
        S = sylow_subgroup(G, p)
        ia = InteriorAlgebra(e["A"], S)
        for P in p_subgroups_up_to_conjugacy(G, p):
            moved = P if P.key <= S.key else next(
                P.conjugate(g) for g in G.elements
                if P.conjugate(g).key <= S.key)
            bq = ia.brauer_at(S.subgroup(moved.key))
            if bq.dim != centralizer(G, moved).order:
                ok = False
    assert verdict(2, ok, "dim (kG)(P) = |C_G(P)| over all p-subgroup "
                   "classes of every catalog entry")


def test_criterion_03_brauer_dims_match_basis_fixed_points():
    ok = True
    rng = np.random.default_rng(SEED + 3)
    for name, p in catalog_pairs():
        e = entry(name, p)
        for data in e["datas"]:
            ia_kG = data.ia_kG_D
            trio = [(ia_kG, group_basis_invariant(ia_kG))]
            if data.ia_B.A.dim < e["A"].dim:
                trio.append((data.ia_B,
                             explicit_invariant_basis(data.ia_B, rng)))
            else:
                trio.append((data.ia_B, group_basis_invariant(ia_kG)))
            if data.ia_S.A.dim < data.ia_B.A.dim:
                trio.append((data.ia_S,
                             explicit_invariant_basis(data.ia_S, rng)))
            else:
                trio.append((data.ia_S, trio[1][1]))
            tc = twisted_classes(data.D)
            for ia, basis in trio:
                for td in tc.reps:
                    engine_dim = ia.brauer(td).dim
                    brute = 0
                    for v in basis.vectors:
                        if all(np.array_equal(ia.act(d1, d2, v),
                                              np.asarray(v))
                               for d1, d2 in td.pairs):
                            brute += 1
                    if engine_dim != brute:
                        ok = False
    assert verdict(3, ok, "Brauer-quotient dims equal fixed-point counts "
                   "of explicit invariant bases for kG, B, S")


def test_criterion_04_shape_inversion_matches_group_orbits():
    ok = True
    for name, p in catalog_pairs():
        e = entry(name, p)
        for data in e["datas"]:
            ia = data.ia_kG_D
            shape = shape_from_brauer_dims(ia)
            direct = group_basis_invariant(ia).shape()
            if shape != direct or shape.size() != e["G"].order:
                ok = False
    assert verdict(4, ok, "marks inversion reproduces the (D,D)-orbit "
                   "structure of G with nonnegative integer multiplicities")


def test_criterion_05_proved_conditions_on_source_algebras():
    ok = True
    for name, p in catalog_pairs():
        for data in entry(name, p)["datas"]:
            rep = proved_conditions_report(data)
            for cond in ("bifree", "symmetric", "f_generated", "sylow",
                         "rank_formula", "top_orbits_multiplicity_one"):
                if not rep[cond]:
                    ok = False
                    print(f"  {name} p={p} block {data.index}: {cond} FAILS")
    assert verdict(5, ok, "bifree/symmetric/generated/Sylow ratio, rank "
                   "formula, and multiplicity-one top orbits on every "
                   "source algebra")


def test_criterion_06_source_fusion_identity_catalog():
    ok = True
    t0 = time.time()
    for name, p in catalog_pairs():
        for data in entry(name, p)["datas"]:
            rep = source_fusion_identity_report(data)
            if not (rep["fusion_equal"] and rep["divisible"]):
                ok = False
                print(f"  {name} p={p} block {data.index}: {rep}")
    took = time.time() - t0
    assert verdict(6, ok, f"fF_D(S) = F_D(b) and divisibility on the full "
                   f"catalog ({took:.0f}s)")


def test_criterion_07_three_way_equivalence():
    ok = True
    expected_true = True
    for name, p in catalog_pairs():
        e = entry(name, p)
        rng = np.random.default_rng(SEED + 7)
        for data in e["datas"]:
            rep = equivalence_report(data, rng)
            if not rep["conditions_agree"] or \
                    not rep["ambient_matches_intrinsic"]:
                ok = False
            if not (rep["unital_basis"] and rep["all_twisted_units"]
                    and rep["intrinsic_balance"] and rep["ambient_balance"]):
                expected_true = False
                print(f"  {name} p={p} block {data.index}: {rep}")
    assert verdict(7, ok and expected_true,
                   "unital basis = all twisted units = balance, all true, "
                   "on every catalog block")


def test_criterion_08_section_5_structure_suite():
    ok = True
    for name, p in catalog_pairs():
        e = entry(name, p)
        rng = np.random.default_rng(SEED + 8)
        for data in e["datas"]:
            ia = data.ia_S
            F = data.source_presystem
            laws = twisted_unit_laws_report(ia, F, rng)
            if not all(laws.values()):
                ok = False
                print(f"  {name} p={p} block {data.index}: laws {laws}")
            # one representative phi per ordered pair of subgroup classes
            reps = {}
            for P, Q, phi in F.all_isomorphisms():
                key = (P.key, Q.key)
                if key not in reps or sorted(phi.graph) < \
                        sorted(reps[key][2].graph):
                    reps[key] = (P, Q, phi)
            for P, Q, phi in reps.values():
                tu = twisted_unit_exists(ia, phi, rng)
                if tu is None:
                    ok = False
                    continue
                # theta via transpotents, cross-checked against the
                # twisted-unit transport
                tm = theta_map(ia, phi, P, Q, rng, tu=tu)
                if tm is None:
                    ok = False
                rep = theta_structure_report(ia, phi, P, Q, rng)
                if not rep["all"]:
                    ok = False
                    print(f"  {name} p={p} block {data.index} "
                          f"Theta structure: {rep}")
    assert verdict(8, ok, "twisted-unit laws, transpotent/transport "
                   "agreement, and point-transport structure across "
                   "Iso representatives")


def test_criterion_09_unit_lift_cross_validation():
    ok = True
    cases = [("s3", 3), ("a4", 2), ("d8", 2)]
    for name, p in cases:
        e = entry(name, p)
        rng = np.random.default_rng(SEED + 9)
        data = [d for d in e["datas"] if d.principal][0]
        ia = data.ia_S
        F = data.source_presystem
        for P, Q, phi in F.all_isomorphisms():
            u, v = lift_to_global_unit(ia, phi, P, Q, rng)
            rows = ia.brauer(TwistedDiagonal(phi)).fixed
            if not (ia.A.is_unit(u) and rows.contains(u)):
                ok = False
            w, _ = unit_in_subspace(ia, rows.basis, rng)
            if w is None or not ia.A.is_unit(w) or not rows.contains(w):
                ok = False
    assert verdict(9, ok, "lift_to_global_unit and unit_in_subspace both "
                   "produce verified units on S3(p=3), A4(p=2), D8(p=2)")


def test_criterion_10_stability_report():
    findings = []
    for name, p in catalog_pairs():
        for data in entry(name, p)["datas"]:
            shape = data.source_shape
            fdb = data.block_fusion_system
            rep = characteristic_report(shape, fdb, p)
            if not rep["f_stable"]:
                findings.append({
                    "group": name, "prime": p, "block": data.index,
                    "witness": rep.get("f_stable_witness")})
    if findings:
        os.makedirs("findings", exist_ok=True)
        path = os.path.join("findings", "stability-findings.json")
        with open(path, "w") as fh:
            json.dump(findings, fh, indent=1)
        print(f"ACCEPTANCE 10 FINDING: stability failed, witnesses at {path}")
    else:
        print("ACCEPTANCE 10 PASS: source-shape F-stability holds on every "
              "catalog block (stability report)")
    # a stability failure is a finding, not a test error: the criterion
    # is that the report ran and the verdict was recorded
    assert True


def test_criterion_11_determinism():
    from bflab.cli import main
    import tempfile
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for t in range(2):
            out = os.path.join(tmp, f"r{t}.json")
            assert main(["check", "--group",
                         os.path.join(DATA, "s3.json"), "--prime", "3",
                         "--out", out, "--seed", "777",
                         "--findings-dir", os.path.join(tmp, "f")]) == 0
            with open(out, "rb") as fh:
                outs.append(fh.read())
        if outs[0] != outs[1]:
            ok = False
        verd = []
        for seed in ("5", "50005"):
            out = os.path.join(tmp, f"s{seed}.json")
            assert main(["check", "--group",
                         os.path.join(DATA, "s3.json"), "--prime", "2",
                         "--out", out, "--seed", seed,
                         "--findings-dir", os.path.join(tmp, "f")]) == 0
            rep = json.load(open(out))
            verd.append([(b["defect_group"]["order"],
                          b["characteristic"]["all"],
                          b["equivalence"]["conditions_agree"],
                          b["source_shape"]) for b in rep["blocks"]])
        if verd[0] != verd[1]:
            ok = False
    assert verdict(11, ok, "same seed gives byte-identical reports; "
                   "different seeds give identical verdicts")
