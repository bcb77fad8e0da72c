"""Finite-dimensional unital algebras over a finite field, by structure data.

An AlgebraContext owns a basis and enough data to multiply: either a
dense structure tensor mult[i, j, :] = b_i * b_j, or (for group
algebras) an index table driving O(dim^2) convolution.  Elements are
bare numpy coefficient vectors; all operations live on the context.

Subalgebras (fixed-point algebras, corners e.A.e, centers) are
AlgebraContexts carrying an `embed` matrix whose rows express their
basis inside the parent; `from_parent` reads coordinates over those
rows through their `linalg.Subspace`, so the rows must be in RREF.  A
proper subalgebra takes a tensor its caller already knows (the
orbit-counted (kG)^P of `bflab.interior`), or gets one from
`linalg.structure_tensor`, which multiplies the stacked left
multiplications of its rows (`lmul_matrix` of a matrix).  A corner of
an algebra on index tables (a block B = kG.b) leaves that fill to its
first product (`mult_tensor`) and checks its unit in the tables.  The
whole of an algebra (the corner at its unit, the fixed points of the
trivial group) shares the parent's index tables or tensor, so kG stays
table-driven through them, with the parent's coordinates (no `embed`).
The left multiplications of the basis are the structure tensor
transposed (`basis_lmuls`), never a product with the identity, and a
corner's rows come from one L_e (`corner_rows`).

`group_algebra` builds kH for a group or a subgroup H by restricting the
group's own product table (`bflab.groups.PermGroup.mul`); the Brauer
quotients (kG)(P) of `bflab.interior` build theirs this way, as kC_G(P).
"""

from functools import cached_property

import numpy as np

from . import linalg
from .groups import PermGroup


class AlgebraError(ValueError):
    pass


class AlgebraContext:
    def __init__(self, field, dim, labels=None, mult_tensor=None,
                 group_ltable=None, group_rtable=None, unit=None,
                 parent=None, embed=None, check=True):
        self.field = field
        self.dim = dim
        self.labels = labels if labels is not None else list(range(dim))
        if parent is None or mult_tensor is not None:
            self.mult_tensor = mult_tensor
        self._ltable = group_ltable
        self._rtable = group_rtable
        self.unit = None if unit is None else np.asarray(unit, dtype=np.int64)
        self.parent = parent
        self.embed = embed      # our basis as parent rows; None: the parent's
        if embed is not None:
            self._coords = linalg.Subspace(field, embed, error=AlgebraError)
        if check and self.unit is not None:
            self._check_unit()
            # views and quotients of associative algebras are associative
            # for free; only raw structure data needs the triple check
            if self.mult_tensor is not None and parent is None:
                self._check_associative()

    @cached_property
    def mult_tensor(self):
        """A subalgebra's tensor, on its first use: the parent's when our
        basis is the parent's, else filled from the parent's products
        over our rows (checked unless built with check=False)."""
        if self.embed is None:
            return self.parent.mult_tensor
        return linalg.structure_tensor(self.field, self.parent.lmul_matrix,
                                       self.embed, self._coords,
                                       self._checked)

    # -- basic element operations ----------------------------------------

    def zero(self):
        return np.zeros(self.dim, dtype=np.int64)

    def basis_vector(self, i):
        v = self.zero()
        v[i] = 1
        return v

    def scale(self, s, x):
        return self.field.mul(int(s), np.asarray(x, dtype=np.int64))

    def add(self, x, y):
        return self.field.add(np.asarray(x), np.asarray(y))

    def sub(self, x, y):
        return self.field.sub(np.asarray(x), np.asarray(y))

    def lmul_matrix(self, x):
        """Matrix L with L @ y = x * y; for a matrix of rows x, the stack
        of their matrices.  An index gather, or one product with the
        structure tensor."""
        x = np.asarray(x, dtype=np.int64)
        if self._ltable is not None:
            return x[..., self._ltable]
        # L[k, j] = sum_i x_i t[i, j, k]
        d = self.dim
        prods = self.field.matmul(x, self.mult_tensor.reshape(d, d * d))
        return prods.reshape(x.shape[:-1] + (d, d)).swapaxes(-1, -2)

    def basis_lmuls(self):
        """The stack of the basis's left multiplication matrices, with no
        product: the structure tensor transposed, L_(b_i)[k, j] =
        t[i, j, k] (a read-only view), or a gather from the index table."""
        if self.mult_tensor is None:
            return self.lmul_matrix(linalg.eye(self.field, self.dim))
        view = self.mult_tensor.transpose(0, 2, 1)
        view.flags.writeable = False
        return view

    def rmul_matrix(self, y):
        """Matrix R with R @ x = x * y."""
        y = np.asarray(y, dtype=np.int64)
        if self._rtable is not None:
            return y[self._rtable]
        # R[k, i] = sum_j y_j t[i, j, k]
        return self.field.matmul(y, self.mult_tensor).T

    def mul(self, x, y):
        return linalg.matvec(self.field, self.lmul_matrix(x), y)

    def is_unit(self, x):
        return linalg.rank(self.field, self.lmul_matrix(x)) == self.dim

    def inv(self, x):
        z = linalg.solve(self.field, self.lmul_matrix(x), self.unit)
        if z is None:
            raise AlgebraError("element is not a unit")
        if not np.array_equal(self.mul(z, x), self.unit):
            raise AlgebraError("one-sided inverse")
        return z

    def random_element(self, rng):
        return self.field.random_elements(rng, self.dim)

    # -- parent coordinate plumbing ---------------------------------------

    def to_parent(self, x):
        """Parent coordinates of x; x itself when our basis is the parent's
        (a root is its own parent)."""
        if self.embed is None:
            return np.asarray(x)
        return linalg.vecmat(self.field, np.asarray(x), self.embed)

    def from_parent(self, v, check=True):
        """Coordinates of a parent vector lying in our span, of each column
        for a matrix; the vector's own when our basis is the parent's."""
        if self.embed is None:
            return np.asarray(v)
        return self._coords(v, check)

    # -- derived algebras --------------------------------------------------

    def subalgebra(self, rows, unit=None, check=True, tensor=None):
        """Subalgebra on given independent rows in RREF (parent
        coordinates), with their structure tensor when the caller knows
        it; else the tensor is filled now, from the parent's products."""
        sub = self._on_rows(rows, unit, check)
        if tensor is not None:
            sub.mult_tensor = tensor
        sub._check_unit()
        return sub

    def _on_rows(self, rows, unit, check):
        """The subalgebra on the rows, with no tensor yet: the whole
        algebra shares our index tables."""
        rows = np.asarray(rows, dtype=np.int64)
        whole = rows.shape[0] == self.dim and \
            np.array_equal(rows, linalg.eye(self.field, self.dim))
        sub = AlgebraContext(self.field, rows.shape[0], parent=self,
                             embed=None if whole else rows, check=False)
        if whole:
            sub._ltable, sub._rtable = self._ltable, self._rtable
        sub._checked = check
        sub.unit = sub.from_parent(self.unit if unit is None else unit,
                                   check=check)
        return sub

    def corner(self, e, check=True):
        """The corner algebra e.A.e with unit e.

        On index tables (kG) a proper corner waits for its first product
        to fill its tensor, and its unit check is e.x = x = x.e for its
        rows x, in the tables: as strong as the check in the corner,
        whose coordinates are injective."""
        rows = self.corner_rows(e)
        if self._ltable is None or rows.shape[0] == self.dim:
            return self.subalgebra(rows, unit=e, check=check)
        sub = self._on_rows(rows, e, check)
        f = self.field
        for side in (self.lmul_matrix(e), self.rmul_matrix(e)):
            if not np.array_equal(linalg.matmul(f, side, rows.T), rows.T):
                raise AlgebraError("unit is not a two-sided identity")
        return sub

    def corner_rows(self, e):
        """RREF rows spanning e.A.e, from one L_e: its product with e
        checks that e is idempotent, and L_e.R_e spans the corner."""
        f = self.field
        left = self.lmul_matrix(e)
        if not np.array_equal(linalg.matvec(f, left, e), np.asarray(e)):
            raise AlgebraError("corner needs an idempotent")
        span = linalg.matmul(f, left, self.rmul_matrix(e))
        return linalg.rref(f, span.T)[0]

    def center_rows(self):
        f = self.field
        stacked = []
        for i in range(self.dim):
            b = self.basis_vector(i)
            stacked.append(f.sub(self.lmul_matrix(b), self.rmul_matrix(b)))
        return linalg.nullspace(f, np.concatenate(stacked, axis=0))

    # -- invariant checks ---------------------------------------------------

    def _check_unit(self):
        # column i of L_u is u * b_i, and column i of R_u is b_i * u
        ident = linalg.eye(self.field, self.dim)
        if not (np.array_equal(self.lmul_matrix(self.unit), ident)
                and np.array_equal(self.rmul_matrix(self.unit), ident)):
            raise AlgebraError("unit is not a two-sided identity")

    def _check_associative(self):
        """Every basis triple up to dim 12, else 200 sampled triples."""
        import itertools
        n = self.dim
        if n <= 12:
            triples = itertools.product(range(n), repeat=3)
        else:
            rng = np.random.default_rng(1)
            triples = (tuple(rng.integers(0, n, 3)) for _ in range(200))
        for i, j, k in triples:
            bi, bj, bk = (self.basis_vector(t) for t in (i, j, k))
            left = self.mul(self.mul(bi, bj), bk)
            right = self.mul(bi, self.mul(bj, bk))
            if not np.array_equal(left, right):
                raise AlgebraError(f"associativity fails at {(i, j, k)}")

    def __repr__(self):
        return f"AlgebraContext(dim {self.dim} over {self.field})"


def group_algebra(G, field):
    """kG with basis the group elements (their sorted order); G is a
    PermGroup or a Subgroup.

    The tables are the parent group's product table (`PermGroup.mul`,
    which the group owns) restricted to G's indices, with no product of
    permutations: ltable[k, j] indexes g_k.g_j^-1 and rtable[k, j]
    g_j^-1.g_k.  A group lists its elements sorted, so G's sorted
    elements are its indices in increasing order, and position k of kG
    is the k-th of them."""
    H = G.full_subgroup() if isinstance(G, PermGroup) else G
    parent, at = H.parent, H.idx
    n = at.size
    where = np.full(parent.order, -1, dtype=np.intp)
    where[at] = np.arange(n)
    inv = parent.inv[at]
    ltable = where[parent.mul[at[:, None], inv]]
    rtable = where[parent.mul[inv, at[:, None]]]
    if (ltable < 0).any() or (rtable < 0).any():
        raise AlgebraError("group elements are not closed under products")
    elements = H.elements
    index = parent.index if H.order == parent.order else \
        {g: i for i, g in enumerate(elements)}
    unit = np.zeros(n, dtype=np.int64)
    unit[index[G.identity]] = 1
    ctx = AlgebraContext(field, n, labels=list(elements),
                         group_ltable=ltable, group_rtable=rtable,
                         unit=unit, check=False)
    ctx.group = G
    ctx.element_index = index
    return ctx


def group_element_vector(A, g):
    v = A.zero()
    v[A.element_index[g]] = 1
    return v


def class_sum_rows(A):
    """Rows spanning the centre of a group algebra (class sums)."""
    rows = []
    for cls in A.group.conjugacy_classes():
        v = A.zero()
        for g in cls:
            v[A.element_index[g]] = 1
        rows.append(v)
    return np.array(rows, dtype=np.int64)
