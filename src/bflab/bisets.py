"""(D,D)-biset shapes of invariant bases, and explicit invariant bases.

The shape of a bipermutation interior D-algebra is the multiset of
twisted-diagonal point-stabilizer classes of any invariant basis; it is
recovered without constructing a basis by inverting the table of marks
against the Brauer-quotient dimensions (dim A(U) = #fixed points of the
basis under U).  Explicit bases are built greedily from the top class
down, picking fixed vectors with fresh Brauer images and expanding their
(D x D)-orbits.

The five characteristic-biset conditions are decided on shapes alone:
bifreeness is certified by vanishing quotients at P x 1 and 1 x P,
symmetry compares with the opposite shape, generation and stability
query a fusion system, and the Sylow condition is arithmetic on sizes.
"""

import numpy as np

from . import linalg
from .groups import (TwistedDiagonal, all_subgroups, identity_injection,
                     twisted_classes)
from .interior import _pair_perm_group, decode_pair, pair_subgroup


class BisetError(ValueError):
    pass


class BisetShape:
    """Multiplicity vector over the twisted-diagonal classes of D x D."""

    def __init__(self, D, multiplicities, bifree_certified=False):
        self.D = D
        self.classes = twisted_classes(D)
        self.multiplicities = {int(i): int(m)
                               for i, m in dict(multiplicities).items()
                               if m}
        if any(m < 0 for m in self.multiplicities.values()):
            raise BisetError("negative orbit multiplicity")
        self.bifree_certified = bifree_certified

    def size(self):
        d2 = self.D.order ** 2
        return sum(m * (d2 // self.classes.reps[i].order)
                   for i, m in self.multiplicities.items())

    def fixed_count(self, td):
        """Number of T-fixed points, through the table of marks."""
        t = self.classes.class_index(td)
        return sum(m * self.classes.marks[t][r]
                   for r, m in self.multiplicities.items())

    def multiplicity_of(self, td):
        return self.multiplicities.get(self.classes.class_index(td), 0)

    def __eq__(self, other):
        return isinstance(other, BisetShape) and \
            self.D.key == other.D.key and \
            self.multiplicities == other.multiplicities

    def items(self):
        return sorted(self.multiplicities.items())

    def describe(self):
        out = []
        for i, m in self.items():
            td = self.classes.reps[i]
            out.append({"orbit": {"subgroup_order": td.P.order,
                                  "class_index": i,
                                  "pairs": [[list(a), list(b)]
                                            for a, b in td.sorted_pairs()]},
                        "multiplicity": m})
        return out

    def __repr__(self):
        items = ", ".join(f"{i}:{m}" for i, m in self.items())
        return f"BisetShape({{{items}}}, size {self.size()})"


def opposite_shape(shape):
    """Multiplicity of Delta(phi, P) moves to Delta(phi^-1, phi P)."""
    out = {}
    for i, m in shape.multiplicities.items():
        td = shape.classes.reps[i]
        opp_pairs = frozenset((b, a) for a, b in td.pairs)
        j = shape.classes.class_index(opp_pairs)
        out[j] = out.get(j, 0) + m
    return BisetShape(shape.D, out,
                      bifree_certified=shape.bifree_certified)


def check_bifree(ia):
    """Certify A(P x 1) = 0 = A(1 x P) for all order-p subgroups P."""
    D = ia.D
    e = D.identity
    p = None
    for P in all_subgroups(D):
        if P.order > 1 and (p is None or P.order < p):
            p = P.order
    if p is None:
        return True
    for P in all_subgroups(D):
        if P.order != p:
            continue
        left = [(g, e) for g in P.elements]
        right = [(e, g) for g in P.elements]
        if ia.brauer(left).dim != 0 or ia.brauer(right).dim != 0:
            return False
    return True


def shape_from_brauer_dims(ia):
    """Invert the table of marks against the Brauer-quotient dimensions."""
    if not check_bifree(ia):
        raise BisetError("algebra is not bifree: A(P x 1) or A(1 x P) != 0")
    tc = twisted_classes(ia.D)
    dims = [ia.brauer(td).dim for td in tc.reps]
    n = len(tc.reps)
    mult = [0] * n
    for t in range(n):
        acc = dims[t]
        for r in range(t):
            acc -= mult[r] * tc.marks[t][r]
        diag = tc.marks[t][t]
        if acc % diag != 0 or acc < 0:
            raise BisetError(
                f"marks inversion fails at class {t}: residue {acc} "
                f"not a nonnegative multiple of {diag}")
        mult[t] = acc // diag
    shape = BisetShape(ia.D, {i: m for i, m in enumerate(mult)},
                       bifree_certified=True)
    if shape.size() != ia.A.dim:
        raise BisetError("shape size does not match the algebra dimension")
    return shape


class InvariantBasis:
    """Explicit (D,D)-invariant basis with its biset structure: each
    orbit slice holds the D x D-orbit of its first vector."""

    def __init__(self, ia, vectors, orbit_slices, stabilizers):
        self.ia = ia
        self.vectors = vectors
        self.orbit_slices = orbit_slices      # list of (start, length)
        self.stabilizers = stabilizers        # TwistedDiagonal per orbit
        if len({np.asarray(v).tobytes() for v in vectors}) != len(vectors):
            raise ValueError("duplicate basis vectors")

    def shape(self):
        counts = {}
        tc = twisted_classes(self.ia.D)
        for td in self.stabilizers:
            i = tc.class_index(td)
            counts[i] = counts.get(i, 0) + 1
        return BisetShape(self.ia.D, counts, bifree_certified=True)

    def is_unital(self):
        """Whether every basis vector is a unit, by one rank per orbit:
        each slice is the D x D-orbit of its first vector, and D acts by
        units, so d1.v.d2^-1 is a unit exactly when v is."""
        return all(self.ia.A.is_unit(self.vectors[start])
                   for start, _ in self.orbit_slices)

    def __len__(self):
        return len(self.vectors)


class BasisSearchError(RuntimeError):
    """Retry budget exhausted; carries the seed for reproduction."""


def explicit_invariant_basis(ia, rng):
    """Greedy top-down construction of an invariant basis matching the
    shape, with 24 restarts."""
    A = ia.A
    f = A.field
    shape = shape_from_brauer_dims(ia)
    tc = shape.classes
    d2_group = _pair_perm_group(ia.D).full_subgroup()
    for attempt in range(24):
        vectors, slices, stabs = [], [], []
        ok = True
        for ci in range(len(tc.reps)):
            need = shape.multiplicities.get(ci, 0)
            if not need:
                continue
            td = tc.reps[ci]
            bq = ia.brauer(td)
            consumed = []
            for v in vectors:
                if bq.fixed.contains(v):
                    consumed.append(bq.project(v))
            picked = 0
            tries = 0
            while picked < need and tries < 40 * need + 40:
                tries += 1
                coeffs = f.random_elements(rng, bq.fixed.dim)
                v = linalg.vecmat(f, coeffs, bq.fixed.basis)
                cls = bq.project(v)
                if not np.any(cls):
                    continue
                stacked = np.array(consumed + [cls], dtype=np.int64)
                if linalg.rank(f, stacked) < stacked.shape[0]:
                    continue
                orbit = _expand_orbit(ia, d2_group, td, v)
                if orbit is None:
                    continue
                consumed.append(cls)
                slices.append((len(vectors), len(orbit)))
                stabs.append(td)
                vectors.extend(orbit)
                picked += 1
            if picked < need:
                ok = False
                break
        if ok and vectors:
            m = np.array(vectors, dtype=np.int64)
            if m.shape[0] == A.dim and linalg.rank(f, m) == A.dim:
                return InvariantBasis(ia, [np.asarray(v) for v in vectors],
                                      slices, stabs)
    raise BasisSearchError(
        "invariant basis search failed after 24 restarts")


def _expand_orbit(ia, d2_group, td, v):
    """(D x D)/Stab-orbit of v; None unless the stabilizer is exactly td."""
    sub = pair_subgroup(ia.D, td.pairs)
    reps = d2_group.left_coset_reps(sub)
    orbit = []
    seen = set()
    for enc in reps:
        d1, d2 = decode_pair(ia.D, enc)
        w = ia.act(d1, d2, v)
        wb = np.asarray(w).tobytes()
        if wb in seen:
            return None
        seen.add(wb)
        orbit.append(w)
    return orbit


def characteristic_report(shape, fusion, p):
    """The five conditions of an F-characteristic biset, with witnesses."""
    tc = shape.classes
    D = shape.D
    report = {}
    report["bifree"] = bool(shape.bifree_certified)
    opp = opposite_shape(shape)
    report["symmetric"] = (opp == shape)
    if not report["symmetric"]:
        diff = sorted(set(shape.items()) ^ set(opp.items()))
        report["symmetric_witness"] = diff[0]

    generated = True
    witness = None
    for i, m in shape.items():
        td = tc.reps[i]
        if not fusion.contains(td.phi):
            generated = False
            witness = i
            break
    report["f_generated"] = generated
    if witness is not None:
        report["f_generated_witness"] = witness

    # the counts are class functions, equal at Delta(P) and at an inner
    # map of P, so one isomorphism per outer D x D-class decides stability
    stable = True
    stable_witness = None
    for phi in fusion.outer_class_reps():
        P, Q = phi.domain, phi.codomain
        cnt_phi = shape.fixed_count(TwistedDiagonal(phi))
        cnt_p = shape.fixed_count(TwistedDiagonal(identity_injection(P, D)))
        cnt_q = shape.fixed_count(TwistedDiagonal(identity_injection(Q, D)))
        if not (cnt_phi == cnt_p == cnt_q):
            stable = False
            stable_witness = {"P_order": P.order, "counts":
                              [cnt_phi, cnt_p, cnt_q]}
            break
    report["f_stable"] = stable
    if stable_witness is not None:
        report["f_stable_witness"] = stable_witness

    ratio = shape.size() // D.order
    report["sylow"] = (shape.size() % D.order == 0) and (ratio % p != 0)
    report["size"] = shape.size()
    report["all"] = all(report[k] for k in
                        ("bifree", "symmetric", "f_generated", "f_stable",
                         "sylow"))
    return report

