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
"""

import numpy as np

from . import linalg
from .algebra import AlgebraContext, group_element_vector
from .groups import (PermGroup, TwistedDiagonal, diagonal, maximal_subgroups,
                     pinv, pmul)


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
    """A(U) presented by representative rows inside the U-fixed module."""

    def __init__(self, interior, pairs, fixed, trace_rows, reps, phi=None):
        f = interior.A.field
        self.interior = interior
        self.pairs = frozenset(pairs)
        self.phi = phi
        self.fixed = fixed          # the interior algebra's cached Subspace
        self.traces = linalg.Subspace(f, interior.A.dim, trace_rows)
        # a class is the reps part of the coordinates over [traces; reps];
        # the traces and the reps are views of that one array
        t = self.traces.dim
        self._coords = linalg.Coordinates(
            f, np.concatenate([self.traces.basis, reps], axis=0), mod=t)
        self.traces.basis = self._coords.rows[:t]
        self.reps = self._coords.rows[t:]
        self._algebra = None

    @property
    def dim(self):
        return self.reps.shape[0]

    def project(self, v, check=True):
        """Class of a U-fixed vector, as coordinates over the reps; of
        each column for a matrix."""
        return self._coords(v, check)

    def lift(self, c):
        """The rep combination of a class; of each column for a matrix."""
        c = np.asarray(c)
        if c.ndim == 2:
            return linalg.matmul(self.interior.A.field, self.reps.T, c)
        return linalg.vecmat(self.interior.A.field, c, self.reps)

    def is_zero_class(self, v):
        return self.traces.contains(v)

    def algebra(self):
        """Quotient algebra structure (valid when U.U-products stay fixed,
        i.e. for diagonal subgroups Delta(P))."""
        if self._algebra is None:
            A = self.interior.A
            tensor = linalg.structure_tensor(A.field, A.lmul_matrix,
                                             self.reps, self._coords)
            Q = AlgebraContext(A.field, self.dim, mult_tensor=tensor,
                               unit=self.project(A.unit), check=False)
            Q._check_unit()
            self._algebra = Q
        return self._algebra

    def __repr__(self):
        return f"BrauerQuotient(dim {self.dim})"


class InteriorAlgebra:
    """Algebra with a structural map D -> A^x and the induced biaction."""

    def __init__(self, A, D, structural=None, check=True):
        self.A = A
        self.D = D
        n = D.order
        while n % A.field.p == 0:
            n //= A.field.p
        if n != 1:
            raise ValueError("the interior group must be a p-group for the "
                             "coefficient characteristic")
        if structural is None:
            structural = {g: group_element_vector(A, g) for g in D.elements}
        self.structural = {g: np.asarray(v, dtype=np.int64)
                           for g, v in structural.items()}
        self._lmats = {}
        self._rmats = {}
        self._bq_cache = {}
        # P.key -> the quotient at Delta(P), an entry of _bq_cache
        self._bq_at = {}
        self._fixed_cache = {}
        # P.key -> A^P as a subalgebra context
        self._fixed_algebras = {}
        # point data of bflab.points: the points of each A^P, and the
        # primitive decompositions keyed by (subgroup, idempotent)
        self._points_cache = {"points": {}, "decomp": {}}
        # twisted units of bflab.conjecture, keyed by isomorphism, and
        # its theta targets, keyed by (isomorphism, target, source point)
        self._twisted_units = {}
        self._theta = {}
        if check:
            self._check_structural()

    def _check_structural(self):
        for g in self.D.elements:
            for h in self.D.elements:
                lhs = self.A.mul(self.structural[g], self.structural[h])
                if not np.array_equal(lhs, self.structural[pmul(g, h)]):
                    raise ValueError("structural map is not multiplicative")
        for g in self.D.elements:
            if not self.A.is_unit(self.structural[g]):
                raise ValueError("structural image is not a unit")

    def lmat(self, g):
        if g not in self._lmats:
            self._lmats[g] = self.A.lmul_matrix(self.structural[g])
        return self._lmats[g]

    def rmat(self, g):
        if g not in self._rmats:
            self._rmats[g] = self.A.rmul_matrix(self.structural[g])
        return self._rmats[g]

    def act(self, d1, d2, v):
        """d1 . v . d2^{-1}."""
        f = self.A.field
        return linalg.matvec(f, self.lmat(d1),
                             linalg.matvec(f, self.rmat(pinv(d2)), v))

    def conj(self, d, v):
        return self.act(d, d, v)

    def left(self, d, v):
        return linalg.matvec(self.A.field, self.lmat(d), v)

    def right(self, v, d):
        return linalg.matvec(self.A.field, self.rmat(d), v)

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
            f = self.A.field
            blocks = [linalg.zeros(0, self.A.dim)]
            for enc in U.generating_sequence():
                d1, d2 = decode_pair(self.D, enc)
                blocks.append(f.sub(self.lmat(d1), self.rmat(d2)))
            # nullspace rows (eye for no generator) are in RREF already,
            # so the Subspace takes them without elimination
            space = self._fixed_cache[U.key] = linalg.Subspace(
                f, self.A.dim, linalg.nullspace(f, np.concatenate(blocks)))
            space.basis.flags.writeable = False
        return space

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
            m = linalg.matmul(f, self.lmat(d1), self.rmat(pinv(d2)))
            out = f.add(out, m)
        return out

    def brauer(self, td_or_pairs):
        """Brauer quotient at a subgroup of D x D (cached)."""
        phi = None
        if isinstance(td_or_pairs, TwistedDiagonal):
            phi = td_or_pairs.phi
            pairs = td_or_pairs.pairs
        else:
            pairs = frozenset(td_or_pairs)
        key = pairs
        if key in self._bq_cache:
            return self._bq_cache[key]
        f = self.A.field
        U = pair_subgroup(self.D, pairs)
        fixed = self._fixed(U)
        trace_imgs = []
        for V in maximal_subgroups(U):
            v_pairs = [decode_pair(self.D, e) for e in V.elements]
            tm = self.trace_map(v_pairs, pairs)
            img = linalg.matmul(f, tm, self._fixed(V).basis.T).T
            trace_imgs.append(img)
        if trace_imgs:
            traces = linalg.rref(f, np.concatenate(trace_imgs, axis=0))[0]
        else:
            traces = linalg.zeros(0, self.A.dim)
        # pivot-complement of the traces inside the fixed module: the
        # pivot columns of [traces; fixed]^T past the traces are the fixed
        # rows independent of the traces and of the fixed rows before them
        t = traces.shape[0]
        cols = linalg.rref(f, np.concatenate([traces, fixed.basis],
                                             axis=0).T)[1]
        reps = fixed.basis[[c - t for c in cols if c >= t]]
        bq = BrauerQuotient(self, pairs, fixed, traces, reps, phi=phi)
        self._bq_cache[key] = bq
        return bq

    def brauer_at(self, P):
        """Standard Brauer quotient A(P) at the diagonal Delta(P)."""
        bq = self._bq_at.get(P.key)
        if bq is None:
            bq = self._bq_at[P.key] = self.brauer(diagonal(P, self.D))
        return bq

    def fixed_subalgebra(self, P):
        """A^P (conjugation-fixed) as a subalgebra context, one per P."""
        ctx = self._fixed_algebras.get(P.key)
        if ctx is None:
            rows = self.fixed_rows([(g, g) for g in P.generating_sequence()]
                                   or [(P.identity, P.identity)])
            ctx = self._fixed_algebras[P.key] = self.A.subalgebra(rows)
        return ctx

    def corner(self, e):
        """Interior algebra on the corner e.A.e; structural map d -> d.e.

        e must be fixed by the conjugation action of D.
        """
        C = self.A.corner(e)
        struct = {}
        for g in self.D.elements:
            v = self.A.mul(self.structural[g], e)
            struct[g] = C.from_parent(v)
        return InteriorAlgebra(C, self.D, structural=struct)


def quotient_product(bq_left, bq_right, c_left, c_right, bq_out=None):
    """Pairing A(psi) x A(phi) -> A(psi o phi) induced by multiplication.

    bq_left is at Delta(psi, Q), bq_right at Delta(phi, P) with
    phi(P) <= Q; the result is the class of lift(c_left) * lift(c_right)
    in A(psi o phi).  One side may be a coordinate matrix: the result is
    then the matrix whose columns are the classes of the products with
    its columns.
    """
    interior = bq_left.interior
    if bq_right.interior is not interior:
        raise ValueError("quotients of different interior algebras")
    psi, phi = bq_left.phi, bq_right.phi
    if psi is None or phi is None:
        raise ValueError("need twisted diagonals")
    if not phi.image().key <= psi.domain.key:
        raise ValueError("pairing is not composable")
    c_left, c_right = np.asarray(c_left), np.asarray(c_right)
    if c_left.ndim == 2 and c_right.ndim == 2:
        raise ValueError("only one side may be a matrix")
    comp = psi.compose(phi.corestrict(psi.domain))
    if bq_out is None:
        bq_out = interior.brauer(TwistedDiagonal(comp))
    A = interior.A
    if c_left.ndim == 2:
        w = linalg.matmul(A.field, A.rmul_matrix(bq_right.lift(c_right)),
                          bq_left.lift(c_left))
    else:
        cols = c_right if c_right.ndim == 2 else c_right[:, None]
        w = linalg.matmul(A.field, A.lmul_matrix(bq_left.lift(c_left)),
                          bq_right.lift(cols))
    out = bq_out.project(w)
    if c_left.ndim == c_right.ndim == 1:
        out = out[:, 0]
    return out, bq_out
