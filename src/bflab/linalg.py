"""Dense exact linear algebra over a finite field.

Matrices are 2-D numpy int64 arrays of field codes; every routine takes
the field as its first argument.  Everything is plain Gaussian
elimination, chosen deterministic (first nonzero pivot) so that reduced
forms, representatives and solutions are reproducible bit for bit.

`rref` is the one elimination kernel.  A matrix already in RREF with no
zero row comes back as a copy after one vectorized check.  Otherwise
each pivot swaps and scales only the columns from its own on (the rows
below it are zero to the left), skips the scaling when its entry is
already 1, and updates only the rows with a nonzero in its column,
through the field's rank-one kernel `sub_outer`.  The RREF of a matrix
is unique, so none of this changes a result.

`matmul` checks shapes and calls the field's one product kernel,
`FiniteField.matmul`.  `Subspace` is the one row space and coordinate
map, over rows in RREF (every subalgebra's and every fixed module's):
their pivot inverse is the identity, so coordinates are a gather at the
pivots and the rebuild check a product on the free columns only.
`Quotient` is the one map to classes modulo a row span, with no inverse
either, and `structure_tensor` the one fill of a multiplication table
from either, in one stacked product and one coordinate call, for
subalgebras, quotient algebras (radical, Brauer) and pairings of Brauer
quotients, except on kG's group basis (read off orbits in
`bflab.interior`).
"""

from functools import cached_property

import numpy as np

# Matrix entries of one stack of left multiplications in `structure_tensor`.
_FILL_ENTRIES = 1 << 17


def zeros(rows, cols):
    return np.zeros((rows, cols), dtype=np.int64)


def eye(f, n):
    m = zeros(n, n)
    np.fill_diagonal(m, 1)
    return m


def mat(rows):
    a = np.array(rows, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return a


def matmul(f, a, b):
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    return f.matmul(a, b)


def matvec(f, a, v):
    return matmul(f, a, np.asarray(v, dtype=np.int64).reshape(-1, 1))[:, 0]


def vecmat(f, v, a):
    return matmul(f, np.asarray(v, dtype=np.int64).reshape(1, -1), a)[0, :]


def rref(f, m):
    """Reduced row echelon form; returns (R, pivot column list)."""
    m = np.array(m, dtype=np.int64)
    rows, cols = m.shape
    if m.size == 0:
        return m[:0], []
    pivots = _reduced_pivots(m)
    if pivots is not None:
        return m, pivots
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = m[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        # rows r.. are zero left of c: their row operations start at c
        piv = r + int(nz[0])
        if piv != r:
            row = m[piv, c:].copy()
            m[piv, c:] = m[r, c:]
            m[r, c:] = row
        lead = int(m[r, c])
        if lead != 1:
            m[r, c:] = f.mul(m[r, c:], f.inv(lead))
        col = m[:, c].copy()
        col[r] = 0
        hit = col.nonzero()[0]
        if hit.size:
            m[hit, c:] = f.sub_outer(m[hit, c:], col[hit], m[r, c:])
        pivots.append(c)
        r += 1
    return m[:r], pivots


def _reduced_pivots(m):
    """Leading columns of a nonempty m in RREF with no zero row, else None.

    In RREF the leading columns strictly increase, each leading entry is 1
    (so no row is zero) and is the only nonzero in its column.
    """
    rows = m.shape[0]
    nonzero = m != 0
    lead = nonzero.argmax(axis=1)
    if (lead[1:] <= lead[:-1]).any():
        return None
    if np.count_nonzero(nonzero[:, lead]) != rows or \
            (m[np.arange(rows), lead] != 1).any():
        return None
    return lead.tolist()


def rank(f, m):
    if m.size == 0:
        return 0
    return rref(f, m)[0].shape[0]


def nullspace(f, m):
    """Rows spanning {x : m @ x = 0}, in RREF."""
    m = np.asarray(m, dtype=np.int64)
    rows, cols = m.shape
    if rows == 0:
        return eye(f, cols)
    r, pivots = rref(f, m)
    free = [c for c in range(cols) if c not in pivots]
    if not free:
        return zeros(0, cols)
    basis = zeros(len(free), cols)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for j, pc in enumerate(pivots):
            basis[i, pc] = f.neg(int(r[j, fc]))
    return rref(f, basis)[0]


def solve(f, m, b):
    """One solution x of m @ x = b, or None if inconsistent."""
    m = np.asarray(m, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64).reshape(-1)
    if m.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {m.shape} x = {b.shape}")
    aug = np.concatenate([m, b[:, None]], axis=1)
    r, pivots = rref(f, aug)
    cols = m.shape[1]
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for j, pc in enumerate(pivots):
        x[pc] = r[j, cols]
    return x


class Subspace:
    """The row span of rows in RREF with no zero row, and the coordinate
    map over them (every subalgebra's: corners, A^P, the centre; and each
    fixed module of `bflab.interior`).

    Such rows have the identity at their pivot columns, so the
    coordinates of v are its entries there, one gather, and the rebuild
    check c.rows = v compares only the free columns: at the pivots it
    holds by construction, so it is exactly as strong.  Rows not in that
    form (dependent rows among them) raise `error`, unless they come
    with their known `pivots`, which are taken as they are; a checked
    vector outside the row span raises `error` too.
    """

    def __init__(self, f, rows, error=ValueError, pivots=None):
        rows = np.asarray(rows, dtype=np.int64)
        if pivots is None:
            n = rows.shape[0]
            # n > 0 rows of no column are not in RREF
            pivots = _reduced_pivots(rows) if rows.size else \
                (None if n else [])
            if pivots is None:
                raise error("rows are not in RREF with no zero row")
        self.field = f
        self.error = error
        self.basis = rows
        self.pivots = list(pivots)

    @property
    def dim(self):
        return self.basis.shape[0]

    @cached_property
    def _free(self):
        """The free columns and the rows' entries there, on the first
        checked coordinates."""
        free = np.delete(np.arange(self.basis.shape[1]), self.pivots)
        return free, self.basis[:, free]

    def __call__(self, v, check=True):
        """Coordinates of v; of each column for a matrix.  Checked, they
        must rebuild v."""
        v = np.asarray(v, dtype=np.int64)
        c = self.columns(v if v.ndim == 2 else v[:, None], check)
        if c is None:
            raise self.error("vector is outside the row span")
        return c if v.ndim == 2 else c[:, 0]

    def columns(self, vs, check=True):
        """Coordinates of each column of vs; checked, None when one of
        them is outside the row span."""
        c = vs[self.pivots]
        if check:
            free, free_rows = self._free
            if free.size and not np.array_equal(
                    matmul(self.field, c.T, free_rows), vs[free].T):
                return None
        return c

    def contains(self, v):
        v = np.asarray(v, dtype=np.int64).reshape(-1)
        if v.shape[0] != self.basis.shape[1]:
            raise ValueError("ambient mismatch")
        return self.columns(v[:, None]) is not None


class Quotient:
    """Classes of k^m modulo the row span of independent rows T.

    One `rref` of T with its columns reversed gives `rows` = T', with an
    identity at each row's last nonzero column, the columns N (`last`).
    The unit vectors at the other columns R (`rest`) complete T' to a
    basis, and the class of x over them is x[R] - x[N].T'[:, R], with no
    inverse.  Dependent rows raise `error`."""

    def __init__(self, f, rows, error=ValueError):
        rows = np.asarray(rows, dtype=np.int64)
        t, m = rows.shape
        reduced, pivots = rref(f, rows[:, ::-1])
        if len(pivots) != t:
            raise error("rows are dependent")
        self.field = f
        self.rows = reduced[:, ::-1]
        self.last = m - 1 - np.array(pivots, dtype=np.intp)
        self.rest = np.delete(np.arange(m), self.last)
        self._tail = self.rows[:, self.rest].T

    def __call__(self, x):
        """The class of x over the unit vectors at `rest`; of each column
        for a matrix."""
        x = np.asarray(x, dtype=np.int64)
        xs = x if x.ndim == 2 else x[:, None]
        c = xs[self.rest]
        if self.last.size and self.rest.size:
            c = self.field.sub(c, matmul(self.field, self._tail,
                                         xs[self.last]))
        return c if x.ndim == 2 else c[:, 0]


def structure_tensor(f, lmul, rows, coords, check=True, right=None):
    """t[i, j] = coords(rows[i] * right[j]), right = rows unless given;
    lmul(x) stacks the left multiplication matrices of the rows x.

    The products are one product of those stacked matrices with right.T,
    at most `_FILL_ENTRIES` matrix entries at a time, and the coordinates
    one call on all r.s product columns; the tensor is C-contiguous."""
    right = rows if right is None else right
    (r, n), s = rows.shape, right.shape[0]
    prods = np.empty((r, n, s), dtype=np.int64)
    step = max(1, _FILL_ENTRIES // max(n * n, 1))
    for lo in range(0, r, step):
        stack = lmul(rows[lo:lo + step]).reshape(-1, n)
        prods[lo:lo + step] = matmul(f, stack, right.T).reshape(-1, n, s)
    # column i s + j is rows[i] * right[j]
    c = coords(prods.transpose(1, 0, 2).reshape(n, r * s), check)
    return np.ascontiguousarray(c.T).reshape(r, s, c.shape[0])
