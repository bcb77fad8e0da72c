"""Interior D-algebras, twisted fixed points, traces and Brauer quotients.

An InteriorAlgebra is an AlgebraContext together with a group map from a
p-group D into its units.  The induced D x D "biaction"
(d1, d2) . a = d1 a d2^{-1} turns the algebra into a permutation module,
and for each subgroup U <= D x D we can take U-fixed points, relative
traces from subgroups, and the Brauer quotient

    A(U) = A^U / sum of trace images from the maximal subgroups of U.

Subgroups of D x D are encoded as permutation pairs; the diagonal
Delta(P) recovers conjugation by P, and for twisted diagonals
Delta(phi, P) the fixed module is the twisted space {a : phi(u).a = a.u}.

Quotients at diagonal subgroups inherit the multiplication of A and are
returned with a full AlgebraContext; quotients at twisted diagonals are
plain spaces linked by the pairing A(psi) x A(phi) -> A(psi o phi).
Its one kernel, `InteriorAlgebra.pairing`, caches the tensor t[a, b] =
the class of rep_a.rep_b, which products of classes contract and A(P)
takes as its algebra; off kG's group basis `linalg.structure_tensor`,
the one fill for subalgebras, quotient algebras and pairings, fills it.

An InteriorAlgebra owns every cache of its algebra: the fixed modules
and A^P, the quotients A(U), the points, the twisted units and theta.
The corner at the unit is the interior algebra itself (d -> d.1 is its
structural map), so a block algebra B = kG.b with b = 1 is the
Brauer-pair engine's kG, and a source algebra l.B.l with l = 1_B is B,
each with one set of caches.

Fixed algebras come from orbit sums.  On kG with its group basis, the
P-conjugation orbit sums O_a are the RREF basis of (kG)^P, and its
structure constants are counts on kG's table (`_orbit_tensor`).  A
block B = kG.b (b central) keeps kG as its `ambient`: B^P = b.(kG)^P
is the corner of (kG)^P at b, B's unit and structural checks run in
kG's tables, and B's own tensor waits for its first product.  Any other
corner of kG or of B (a source algebra) is taken in kG's tables and
keeps its own tensor, from which its A^P are filled.

On kG whose structural map is its group basis, the biaction permutes the
basis, (d1, d2).g = d1.g.d2^-1, so kG is the permutation module k[G] and
its Brauer quotient at U is k[G^U] (Broue, "On Scott modules and
p-permutation modules: an approach through the Brauer morphism", Proc.
AMS 93, 1985).  Everything is read off the U-orbits on G, with no
elimination:

* the U-orbit sums are a basis of A^U, and ordered by least index they
  are its RREF;
* for V <= U, Tr_V^U of the V-orbit sum of g is [Stab_U(g) : Stab_V(g)]
  times the U-orbit sum of g.  If g is not U-fixed, Stab_U(g) < U lies in
  some maximal V, where the index is 1; if g is U-fixed, the index is
  [U : V] = p for every maximal V.  So the traces span the orbit sums
  of the non-singleton orbits;
* A(U) is presented by the unit vectors at G^U, the singleton orbits,
  and the class of a U-fixed vector is its restriction to G^U;
* g.h lies in G^W for g in G^U, h in G^V and W their composite, so a
  pairing's tensor, like the biaction, is a gather from kG's tables.

Corners kG.b != kG and source algebras l.B.l != B are not presented on a
permuted basis and take the elimination path: a nullspace for A^U and
relative trace matrices from the maximal subgroups.
Both paths present A(U) over the fixed module (`BrauerQuotient`), and
the quotient owns its algebra: on the orbit path the table-driven
kC_G(P), elsewhere the self-pairing's tensor.
"""

import numpy as np

from . import linalg
from .algebra import AlgebraContext, group_algebra, group_element_vector
from .gf import p_part
from .groups import (PermGroup, TwistedDiagonal, centralizer, diagonal,
                     maximal_subgroups)


def _pair_perm_group(D):
    """D x D as a permutation group of degree 2 * degree(D), memoized on
    D's parent group."""
    memo = D.parent._pair_group_memo
    if D.key not in memo:
        n = D.parent.degree
        gens = []
        for g in D.generating_sequence() or [D.identity]:
            gens.append(tuple(g) + tuple(i + n for i in range(n)))
            gens.append(tuple(range(n)) + tuple(g[i] + n for i in range(n)))
        memo[D.key] = PermGroup(2 * n, gens, label="DxD",
                                order_cap=max(D.order ** 2, 1))
    return memo[D.key]


def encode_pair(D, a, b):
    n = D.parent.degree
    return tuple(a) + tuple(b[i] + n for i in range(n))


def decode_pair(D, x):
    n = D.parent.degree
    return tuple(x[:n]), tuple(x[i] - n for i in range(n, 2 * n))


def pair_subgroup(D, pairs):
    """Subgroup of D x D generated by (and usually equal to) the pairs."""
    big = _pair_perm_group(D)
    return big.generated_subgroup([encode_pair(D, a, b) for a, b in pairs])


class BrauerQuotient:
    """A(U) over its U-fixed module F, the interior algebra's cached
    `linalg.Subspace`, which is also F's coordinate map: `classes` is the
    `linalg.Quotient` of F-coordinates modulo the traces T', the reps are
    the fixed rows at the columns R other than the rows' last ones N, and
    the class of v is x[R] - x[N].T'[:, R] for x = fixed(v), the
    F-coordinates of v."""

    def __init__(self, interior, pairs, fixed, traces):
        self.interior = interior
        self.pairs = frozenset(pairs)
        self.fixed = fixed          # the interior algebra's cached Subspace
        self.classes = linalg.Quotient(interior.A.field, traces)
        self.reps = fixed.basis[self.classes.rest]
        self._algebra = None

    @property
    def dim(self):
        return self.reps.shape[0]

    def project(self, v, check=True):
        """Class of a U-fixed vector, as coordinates over the reps; of
        each column for a matrix."""
        return self.classes(self.fixed(v, check))

    def lift(self, c):
        """The rep combination of a class; of each column for a matrix."""
        c = np.asarray(c)
        if c.ndim == 2:
            return linalg.matmul(self.interior.A.field, self.reps.T, c)
        return linalg.vecmat(self.interior.A.field, c, self.reps)

    def algebra(self):
        """A(P) as an algebra, built once by `_build_algebra`; U must be a
        diagonal Delta(P), where products of fixed elements stay fixed."""
        if self._algebra is None:
            self._algebra = self._build_algebra()
        return self._algebra

    def _build_algebra(self):
        """The self-pairing's tensor, with the class of 1 as unit."""
        A = self.interior.A
        t, out = self.interior.pairing(self, self)
        if out is not self:
            raise ValueError("A(U) is an algebra only at a diagonal U")
        Q = AlgebraContext(A.field, self.dim, mult_tensor=t,
                           unit=self.project(A.unit), check=False)
        Q._check_unit()
        return Q

    def __repr__(self):
        return f"BrauerQuotient(dim {self.dim})"


class OrbitQuotient(BrauerQuotient):
    """A(U) = k[G^U] of kG with its group basis, read off the U-orbit sums
    that are the fixed rows (see the module docstring).  T' is the unit
    rows at the non-singleton sums, so T'[:, R] = 0 and no `classes` is
    needed: the reps are the singletons G^U, and a class is a restriction
    to G^U."""

    def __init__(self, interior, pairs, fixed):
        self.interior, self.pairs = interior, frozenset(pairs)
        self.fixed, self._algebra = fixed, None
        pivots = np.asarray(fixed.pivots)
        single = np.count_nonzero(fixed.basis, axis=1) == 1
        self.reps = fixed.basis[single]
        self._at = pivots[single]
        # the least index in the orbit of each basis element
        self._least = pivots[fixed.basis.argmax(axis=0)]

    def project(self, v, check=True):
        """Restriction to G^U of a U-fixed vector, or of each column of a
        matrix; checked, each must be constant on the orbits."""
        v = np.asarray(v, dtype=np.int64)
        if check and not np.array_equal(v[self._least], v):
            raise ValueError("vector is not U-fixed")
        return v[self._at]

    def lift(self, c):
        c = np.asarray(c, dtype=np.int64)
        out = np.zeros((self.interior.A.dim,) + c.shape[1:], dtype=np.int64)
        out[self._at] = c
        return out

    def _build_algebra(self):
        """kC_G(P) on its group table, kG itself when C_G(P) = G, once the
        reps are checked to be the elements of C_G(P), its group basis."""
        A = self.interior.A
        if any(a != b for a, b in self.pairs):
            raise ValueError("A(U) is an algebra only at a diagonal U")
        C = centralizer(A.group, [a for a, _ in self.pairs])
        at = np.array([A.element_index[g] for g in C.elements])
        if not np.array_equal(self.reps, at[:, None] == np.arange(A.dim)):
            raise ValueError("A(P) is not presented on the basis of C_G(P)")
        return A if C.order == A.dim else group_algebra(C, A.field)


class InteriorAlgebra:
    """Algebra with a structural map D -> A^x and the induced biaction."""

    def __init__(self, A, D, structural=None, ambient=None):
        self.A = A
        self.D = D
        # the interior kG of which this is a block (see `corner`), or None
        self.ambient = ambient
        if p_part(D.order, A.field.p) != D.order:
            raise ValueError("the interior group must be a p-group for the "
                             "coefficient characteristic")
        if structural is None:
            structural = {g: group_element_vector(A, g) for g in D.elements}
        self.structural = {g: np.asarray(v, dtype=np.int64)
                           for g, v in structural.items()}
        self._lmats = {}
        self._rmats = {}
        self._bq_cache = {}
        # P.key -> the quotient at Delta(P), and the graph of an injection
        # phi -> the quotient at Delta(phi, P): entries of _bq_cache
        self._bq_at = {}
        self._bq_of = {}
        # (left pairs, right pairs) -> (tensor, quotient) of `pairing`
        self._pairings = {}
        self._fixed_cache = {}
        # P.key -> A^P as a subalgebra context
        self._fixed_algebras = {}
        # point data of bflab.points: the points of each A^P, and the
        # primitive decompositions keyed by (subgroup, idempotent)
        self._points_cache = {"points": {}, "decomp": {}}
        # twisted units of bflab.conjecture, keyed by the isomorphism's
        # graph, and its theta targets, keyed by (graph, source point)
        self._twisted_units = {}
        self._theta = {}
        # kG with its group basis as structural map: the biaction permutes
        # the basis, and A^U and A(U) are read off the U-orbits on G
        index = getattr(A, "element_index", None)
        self._permutes_basis = index is not None and all(
            np.count_nonzero(v) == 1 and v[index[g]] == 1
            for g, v in self.structural.items())
        self._check_structural()

    def _check_structural(self):
        """f(1) = 1 and f(g.h) = f(g).f(h) for each generator g of D and
        every h in D, as one product per generator.

        That is enough: for a = g_1...g_k a product of generators (every
        element of the finite group D is one), induction on k gives
        f(a.h) = f(g_1).f(g_2...g_k.h) = f(g_1)...f(g_k).f(h), and h = 1
        gives f(a) = f(g_1)...f(g_k), so f(a.h) = f(a).f(h) on all of D.
        Then f(h).f(h^-1) = f(1) = 1 = f(h^-1).f(h) makes every image a
        unit.

        A block of kG multiplies in kG's tables instead, where its
        coordinates are injective: exactly as strong, and no product in
        the block."""
        if not np.array_equal(self.structural[self.D.identity], self.A.unit):
            raise ValueError("structural map does not send 1 to 1")
        A, lift = (self.A, np.asarray) if self.ambient is None else \
            (self.ambient.A, self.A.to_parent)
        G, D = self.D.parent, self.D
        images = np.array([lift(self.structural[h]) for h in D.elements]).T
        for g in D.generating_sequence():
            products = G.mul[G.index[g], D.idx].tolist()
            moved = np.array([lift(self.structural[G.elements[y]])
                              for y in products]).T
            left = self.lmat(g) if self.ambient is None else \
                A.lmul_matrix(lift(self.structural[g]))
            if not np.array_equal(linalg.matmul(A.field, left, images),
                                  moved):
                raise ValueError("structural map is not multiplicative")

    def lmat(self, g):
        if g not in self._lmats:
            self._lmats[g] = self.A.lmul_matrix(self.structural[g])
        return self._lmats[g]

    def rmat(self, g):
        if g not in self._rmats:
            self._rmats[g] = self.A.rmul_matrix(self.structural[g])
        return self._rmats[g]

    def act(self, d1, d2, v):
        """d1 . v . d2^{-1}, of each column for a matrix.  On kG with its
        group basis it is a gather for any d1, d2 in G, as the coefficient
        at g is v's at d1^-1.g.d2; elsewhere L_d1 and R_(d2^-1), each
        applied only where its element is not 1."""
        v = np.asarray(v, dtype=np.int64)
        inv, one = self.D.parent.inverse, self.D.identity
        if self._permutes_basis:
            return v[self._moves([(inv(d1), inv(d2))])[:, 0]]
        f = self.A.field
        out = v if v.ndim == 2 else v[:, None]
        if d2 != one:
            out = linalg.matmul(f, self.rmat(inv(d2)), out)
        if d1 != one:
            out = linalg.matmul(f, self.lmat(d1), out)
        return out if v.ndim == 2 else out[:, 0]

    # -- fixed points, traces, quotients ---------------------------------

    def fixed_rows(self, pairs):
        """Rows spanning {a : d1 a = a d2 for (d1, d2) generating pairs},
        in RREF and read-only."""
        return self._fixed(pair_subgroup(self.D, pairs)).basis

    def _fixed(self, U):
        """The U-fixed module of a pair subgroup U, as one read-only
        Subspace per U."""
        space = self._fixed_cache.get(U.key)
        if space is None:
            f, n = self.A.field, self.A.dim
            if self._permutes_basis:
                # the orbit sums, ordered by least index, are in RREF
                least = self._least_in_orbit(U)
                pivots = np.flatnonzero(least == np.arange(n))
                space = linalg.Subspace(
                    f, (least == pivots[:, None]).astype(np.int64),
                    pivots=pivots.tolist())
            else:
                blocks = [linalg.zeros(0, n)]
                for enc in U.generating_sequence():
                    d1, d2 = decode_pair(self.D, enc)
                    blocks.append(f.sub(self.lmat(d1), self.rmat(d2)))
                # nullspace rows (eye for no generator) are in RREF
                space = linalg.Subspace(
                    f, linalg.nullspace(f, np.concatenate(blocks)))
            space.basis.flags.writeable = False
            self._fixed_cache[U.key] = space
        return space

    def _moves(self, pairs):
        """On kG with its group basis: column j indexes d1.g.d2^-1 for each
        basis element g and (d1, d2) = pairs[j], a gather from kG's tables
        (rtable[a, b] indexes g_b^-1.g_a and ltable[a, b] g_a.g_b^-1, so
        ltable[e, b] indexes g_b^-1 for e the index of 1)."""
        A, idx = self.A, self.A.element_index
        d1 = A._ltable[idx[A.group.identity], [idx[a] for a, _ in pairs]]
        return A._ltable[A._rtable[:, d1], [idx[b] for _, b in pairs]]

    def _least_in_orbit(self, U):
        """On kG with its group basis: the least index in the U-orbit of
        each basis element, the least of its images under U."""
        return self._moves([decode_pair(self.D, enc)
                            for enc in U.elements]).min(axis=1)

    def trace_map(self, sub_pairs, super_pairs):
        """Relative trace matrix tr: A^V -> A^U between pair subgroups."""
        f = self.A.field
        V = pair_subgroup(self.D, sub_pairs)
        U = pair_subgroup(self.D, super_pairs)
        if not V.key <= U.key:
            raise ValueError("trace needs V <= U")
        out = linalg.zeros(self.A.dim, self.A.dim)
        for enc in U.left_coset_reps(V):
            d1, d2 = decode_pair(self.D, enc)
            m = linalg.matmul(f, self.lmat(d1),
                              self.rmat(self.D.parent.inverse(d2)))
            out = f.add(out, m)
        return out

    def brauer(self, td_or_pairs):
        """Brauer quotient at a subgroup U of D x D, cached by its pair set.

        On kG with its group basis, A(U) = k[G^U] is an `OrbitQuotient`:
        the U-orbit sums are the fixed rows, the non-singleton ones span
        the traces (Tr_V^U of a V-orbit sum is [Stab_U(g) : Stab_V(g)]
        times the U-orbit sum, 1 when V contains Stab_U(g) and p when g
        is U-fixed), and the reps are the unit vectors at G^U (Broue,
        Proc. AMS 93, 1985).  Any other algebra is eliminated: the trace
        images from the maximal subgroups of U, in F-coordinates, reduced
        in one `rref` with the columns reversed.  Both give the same reps,
        the fixed rows at the columns that end no trace row."""
        pairs = td_or_pairs.pairs if isinstance(td_or_pairs, TwistedDiagonal) \
            else frozenset(td_or_pairs)
        if pairs in self._bq_cache:
            return self._bq_cache[pairs]
        U = pair_subgroup(self.D, pairs)
        fixed = self._fixed(U)
        if self._permutes_basis:
            bq = self._bq_cache[pairs] = OrbitQuotient(self, pairs, fixed)
            return bq
        f = self.A.field
        imgs = [linalg.zeros(0, self.A.dim)]
        for V in maximal_subgroups(U):
            v_pairs = [decode_pair(self.D, e) for e in V.elements]
            tm = self.trace_map(v_pairs, pairs)
            imgs.append(linalg.matmul(f, tm, self._fixed(V).basis.T).T)
        # checked: the traces are U-fixed; reduced with the columns
        # reversed, the quotient takes them as they are
        x = fixed(np.concatenate(imgs).T).T
        traces = linalg.rref(f, x[:, ::-1])[0][:, ::-1]
        bq = BrauerQuotient(self, pairs, fixed, traces)
        self._bq_cache[pairs] = bq
        return bq

    def brauer_at(self, P):
        """Standard Brauer quotient A(P) at the diagonal Delta(P)."""
        bq = self._bq_at.get(P.key)
        if bq is None:
            bq = self._bq_at[P.key] = self.brauer(diagonal(P, self.D))
        return bq

    def brauer_of(self, phi):
        """Twisted Brauer quotient A(phi) at Delta(phi, P), for an injection
        phi: P -> D."""
        bq = self._bq_of.get(phi.graph)
        if bq is None:
            bq = self._bq_of[phi.graph] = self.brauer(TwistedDiagonal(phi))
        return bq

    def pairing(self, bq_left, bq_right):
        """(t, bq_out) of the pairing A(psi) x A(phi) -> A(psi o phi) =
        bq_out: t[a, b] is the class of rep_a.rep_b, read-only and cached
        by the two pair sets.  The composite's pairs {(psi(phi(u)), u)}
        are read off them, and a pairing that does not compose raises
        ValueError."""
        key = (bq_left.pairs, bq_right.pairs)
        if key in self._pairings:
            return self._pairings[key]
        if bq_left.interior is not self or bq_right.interior is not self:
            raise ValueError("quotients of another interior algebra")
        psi = {q: z for z, q in bq_left.pairs}
        if len(psi) != len(bq_left.pairs) or \
                len({u for _, u in bq_right.pairs}) != len(bq_right.pairs):
            raise ValueError("need twisted diagonals")
        if any(x not in psi for x, _ in bq_right.pairs):
            raise ValueError("phi(P) leaves the domain of psi")
        bq_out = self.brauer(frozenset((psi[x], u)
                                       for x, u in bq_right.pairs))
        A = self.A
        if self._permutes_basis:
            # ltable[a, b] indexes g_a.g_b^-1, so ltable[e, j] indexes
            # g_j^-1 for e the index of 1, and ltable[i, j'] then g_i.g_j
            left, right, out = bq_left._at, bq_right._at, bq_out._at
            inv = A._ltable[A.element_index[A.group.identity], right]
            where = np.full(A.dim, -1)
            where[out] = np.arange(out.size)
            k = where[A._ltable[left[:, None], inv[None, :]]]
            if (k < 0).any():
                raise ValueError("products leave the fixed points")
            t = (k[:, :, None] == np.arange(out.size)).astype(np.int64)
        else:
            t = linalg.structure_tensor(A.field, A.lmul_matrix, bq_left.reps,
                                        bq_out.project, right=bq_right.reps)
        t.flags.writeable = False
        self._pairings[key] = t, bq_out
        return t, bq_out

    def fixed_subalgebra(self, P):
        """A^P (conjugation-fixed) as a subalgebra context, one per P.

        For P != 1 no product is needed on kG with its group basis, whose
        orbit sums are counted (`_orbit_tensor`), nor on a block
        B = kG.b of it: b is central, so B^P = b.(kG)^P is the corner of
        (kG)^P at b.  Its RREF rows there, pushed through the RREF orbit
        sums, are in RREF in kG, so they are B^P's RREF rows, presented in
        B's coordinates.  Elsewhere, and where P acts trivially (B^1 is
        B), the nullspace rows fill A^P from A's products."""
        ctx = self._fixed_algebras.get(P.key)
        if ctx is None:
            pairs = [(g, g) for g in P.generating_sequence()] \
                or [(P.identity, P.identity)]
            K = self.ambient.fixed_subalgebra(P) if P.order > 1 and \
                self.ambient is not None else None
            if K is not None and K.embed is not None:
                C = K.corner(K.from_parent(self.A.to_parent(self.A.unit)))
                rows = linalg.matmul(self.A.field, C.embed, K.embed)
                ctx = self.A.subalgebra(self.A.from_parent(rows.T).T,
                                        tensor=C.mult_tensor)
            elif P.order > 1 and self._permutes_basis:
                space = self._fixed(pair_subgroup(self.D, pairs))
                ctx = self.A.subalgebra(space.basis, tensor=None if
                                        space.dim == self.A.dim else
                                        self._orbit_tensor(space))
            else:
                ctx = self.A.subalgebra(self.fixed_rows(pairs))
            self._fixed_algebras[P.key] = ctx
        return ctx

    def _orbit_tensor(self, space):
        """On kG with its group basis: the structure tensor of the fixed
        algebra on the orbit sums O_a, the RREF rows of `space`.  The
        coefficient of z_c, the least element of O_c and the pivot of its
        row, in O_a.O_b is t[a, b, c] = #{x in O_a : x^-1.z_c in O_b}
        mod p: one count over the r.|G| reads rtable[z_c, x], which
        index x^-1.z_c, with no product and no elimination."""
        A = self.A
        r = space.dim
        orbit = space.basis.argmax(axis=0)
        key = (orbit * r + orbit[A._rtable[space.pivots]]) * r + \
            np.arange(r)[:, None]
        counts = np.bincount(key.ravel(), minlength=r ** 3)
        return (counts % A.field.p).reshape(r, r, r)

    def corner(self, e):
        """Interior algebra on the corner e.A.e; structural map d -> d.e.

        e must be fixed by the conjugation action of D.  The corner at
        the unit is this algebra itself, with all its caches: d -> d.1 is
        the structural map.

        Corners are taken on kG with its group basis and on a block of
        it, in kG's tables, where d.e is a gather.  At e central in kG
        the corner is a block B = kG.b: kG's corner, whose tensor waits
        for its first product, with kG as its `ambient` for the
        structural check and the fixed algebras.  Any other corner (a
        source algebra l.B.l) keeps its own tensor, filled from kG's
        products over its RREF rows, which are its RREF rows in B's
        coordinates too."""
        if np.array_equal(e, self.A.unit):
            return self
        kG = self if self._permutes_basis else self.ambient
        if kG is None:
            raise ValueError("corners are taken on kG with its group basis "
                             "or on a block of it")
        x = self.A.to_parent(e)
        C = kG.A.corner(x)
        block = kG is self and np.array_equal(kG.A.lmul_matrix(x),
                                              kG.A.rmul_matrix(x))
        if kG is not self:
            C = self.A.subalgebra(self.A.from_parent(C.embed.T).T, unit=e,
                                  tensor=C.mult_tensor)
        one = self.D.identity
        return InteriorAlgebra(C, self.D, structural={
            g: C.from_parent(self.A.from_parent(kG.act(g, one, x)))
            for g in self.D.elements}, ambient=kG if block else None)
