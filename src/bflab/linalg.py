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
`FiniteField.matmul`.  `Coordinates` is the one coordinate map over the
rows of a matrix of full row rank, and `structure_tensor` the one fill
of a multiplication table from it, in one stacked product and one
coordinate call; every subalgebra, radical quotient and Brauer quotient
other than those of kG on its group basis (read off orbits in
`bflab.interior`) goes through both.  Over rows in RREF (every
subalgebra's, and a `Subspace`'s) the pivot inverse is the identity, so
coordinates are a gather at the pivots and the rebuild check a product
on the free columns only; `Subspace.reduce` is that same map.  Only rows
not in RREF (a Brauer quotient's [traces; reps], a radical quotient's
[ideal; reps]) pay for a pivot inverse and a product with it.
"""

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


def inverse(f, m):
    n = m.shape[0]
    if m.shape[1] != n:
        raise ValueError(f"inverting a non-square {m.shape} matrix")
    aug = np.concatenate([m, eye(f, n)], axis=1)
    r, pivots = rref(f, aug)
    if pivots != list(range(n)):
        return None
    return r[:, n:]


class Coordinates:
    """Coordinates over the rows of a matrix of full row rank.

    Rows in RREF with no zero row (every subalgebra's: corners, A^P, the
    centre) have the identity at their pivot columns, so the coordinates
    of v are its entries there, one gather, and the rebuild check
    c.rows = v compares only the free columns: at the pivots it holds by
    construction, so it is exactly as strong.  Other rows (a Brauer
    quotient's [traces; reps]) take their pivot columns from one `rref`
    (every column of a square matrix) and the inverse of the rows at
    those columns from one `inverse`; each call is then one product, and
    the check rebuilds all of v.  With `mod` = t the map gives the
    coordinates over rows[t:] only: the class of v modulo the span of
    rows[:t].  Dependent rows, and a checked vector outside the row span,
    raise `error`.
    """

    def __init__(self, f, rows, mod=0, error=ValueError):
        rows = np.asarray(rows, dtype=np.int64)
        n, cols = rows.shape
        self.field = f
        self.rows = rows
        self.mod = mod
        self.error = error
        # n > 0 rows of no column are dependent: the elimination path says so
        pivots = _reduced_pivots(rows) if rows.size else (None if n else [])
        if pivots is not None:
            self.pivots = list(pivots)
            self._inv = None
            self._free = np.delete(np.arange(cols), self.pivots)
            self._free_rows = rows[:, self._free]
            return
        self.pivots = list(range(n)) if n == cols else rref(f, rows)[1]
        inv = inverse(f, rows[:, self.pivots].T) \
            if len(self.pivots) == n else None
        if inv is None:
            raise error("rows are dependent")
        self._inv = inv

    def __call__(self, v, check=True):
        """Coordinates of v; of each column for a matrix.  Checked, they
        must rebuild v."""
        v = np.asarray(v, dtype=np.int64)
        c = self.columns(v if v.ndim == 2 else v[:, None], check)
        if c is None:
            raise self.error("vector is outside the row span")
        return c if v.ndim == 2 else c[:, 0]

    def columns(self, vs, check=True):
        """Coordinates of each column of vs over rows[mod:]; checked, None
        when one of them is outside the row span."""
        f = self.field
        if self._inv is None:
            c = vs[self.pivots]
            if check and self._free.size and not np.array_equal(
                    matmul(f, c.T, self._free_rows), vs[self._free].T):
                return None
            return c[self.mod:]
        c = matmul(f, self._inv if check else self._inv[self.mod:],
                   vs[self.pivots])
        if not check:
            return c
        if not np.array_equal(matmul(f, c.T, self.rows), vs.T):
            return None
        return c[self.mod:]


def structure_tensor(f, lmul, rows, coords, check=True):
    """t[i, j] = coords(rows[i] * rows[j]); lmul(x) stacks the left
    multiplication matrices of the rows x in the ambient algebra.

    The products are one product of those stacked matrices with rows.T,
    at most `_FILL_ENTRIES` matrix entries at a time, and the coordinates
    one call on all r^2 product columns."""
    r, n = rows.shape
    prods = np.empty((r, n, r), dtype=np.int64)
    step = max(1, _FILL_ENTRIES // max(n * n, 1))
    for lo in range(0, r, step):
        stack = lmul(rows[lo:lo + step]).reshape(-1, n)
        prods[lo:lo + step] = matmul(f, stack, rows.T).reshape(-1, n, r)
    # column i r + j is rows[i] * rows[j]
    cols = prods.transpose(1, 0, 2).reshape(n, r * r)
    return coords(cols, check).T.reshape(r, r, r)


class Subspace:
    """Row space of a matrix, held in RREF.  Rows already in RREF with no
    zero row may come with their `pivots` and are then taken as they
    are."""

    def __init__(self, f, ambient_dim, rows=None, pivots=None):
        self.field = f
        self.ambient_dim = ambient_dim
        self._coords = None
        if rows is None or np.asarray(rows).size == 0:
            self.basis, self.pivots = zeros(0, ambient_dim), []
        elif pivots is not None:
            self.basis, self.pivots = rows, list(pivots)
        else:
            rows = np.asarray(rows, dtype=np.int64)
            if rows.ndim == 1:
                rows = rows.reshape(1, -1)
            if rows.shape[1] != ambient_dim:
                raise ValueError("ambient mismatch")
            self.basis, self.pivots = rref(f, rows)

    @property
    def dim(self):
        return self.basis.shape[0]

    def contains(self, v):
        v = np.asarray(v, dtype=np.int64).reshape(-1)
        if v.shape[0] != self.ambient_dim:
            raise ValueError("ambient mismatch")
        return self.reduce(v) is not None

    def reduce(self, v):
        """Coordinates of v in the RREF basis, or None if v is outside:
        its entries at the pivots, checked on the free columns."""
        v = np.asarray(v, dtype=np.int64).reshape(-1)
        if self._coords is None:
            self._coords = Coordinates(self.field, self.basis)
        c = self._coords.columns(v[:, None])
        return None if c is None else c[:, 0]

    def sum(self, other):
        self._check(other)
        return Subspace(self.field, self.ambient_dim,
                        np.concatenate([self.basis, other.basis], axis=0))

    def __eq__(self, other):
        return isinstance(other, Subspace) and \
            self.ambient_dim == other.ambient_dim and \
            np.array_equal(self.basis, other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis.tobytes()))

    def _check(self, other):
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient mismatch")

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim})"
