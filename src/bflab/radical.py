"""Jacobson radical of a finite-dimensional algebra in characteristic p.

The pipeline asks one question of a radical: is an algebra A local with
A/J(A) = k?  Then its unit is primitive, and the Fitting split of
`bflab.idempotents.decompose_unit` stops there.  `local_radical`
answers it: J(A) is then the kernel of a local character lambda: A -> k
(Eberly and Giesbrecht, J. Symbolic Comput. 29, 2000), which
`_local_radical` guesses from one characteristic-polynomial coefficient
per basis element and then proves (an algebra map with nilpotent
kernel).  A refusal is an answer too: the guess fails on every algebra
that is not local with A/J(A) = k.

`radical_rows` gives J(A) of any algebra, and is the oracle: the
certificate first, else the chain below.  J(A) is one subspace and both
paths return its RREF, which is unique, so which path ran changes no
row, no rng draw and no report.  No report runs the chain; it answers
`is_primitive` and the tests only.

The trace form alone is blind in small characteristic, so the chain is
the iterated one of characteristic-polynomial-coefficient forms on the
left regular representation: starting from I_0 = A, the next term keeps
the x in I_i with c_{p^i}(xy) = 0 for every y in I_i, where c_j(M) is
the degree-j coefficient of det(tI - M).  On I_i that form is
p^i-semilinear, so each step is one linear solve after taking p^i-th
roots; after floor(log_p dim) + 1 steps the chain has converged to J(A)
(Cohen, Ivanyos and Wales, J. Pure Appl. Algebra 117-118, 1997).

Characteristic polynomials come from Hessenberg reduction, which only
needs field divisions and is exact here.  Level 0 reads c_1 = -trace off
one product of the flattened left-multiplication matrices.  Each later
level stacks the products L_t L_k of the left-multiplication matrices
of the upper-triangle basis pairs (t <= k; the form is symmetric since
charpoly(AB) = charpoly(BA)) and runs one batched Hessenberg reduction
and recurrence per stack, `charpolys`, which keeps only the top p^i + 1
coefficients of each leading-block polynomial.  A stack holds at most
`_STACK_BUDGET` matrix entries; its products are one stacked
`FiniteField.matmul`, which tiles its own temporaries.  `charpoly`, the
one-matrix reduction, is the reference for `charpolys`.

The radical of an algebra depends only on its structure data, and the
pipeline keeps rebuilding equal algebras (the corner e.A.e for the same
e, the fixed points A^P for the same P) as new contexts.  So each radical
has one owner: the root of the context's parent chain (a group algebra,
or a quotient algebra, which has no parent) holds `radical_memo`, a dict
from the exact bytes of a structure tensor to its radical rows, or to
None when the certificate refused and no chain has run.  A
table-driven algebra is keyed by the bytes of its index table, so kG and
its identity corners (which share kG's tables) share one chain.  Its
lifetime is the root's: a CLI run builds its own group algebra, so
nothing is shared between runs and nothing lives at module or field
level.  Stored rows are read-only.
"""

import numpy as np

from . import linalg

# Largest stack of basis-pair products, in elements (see
# `_radical_rows_impl`).
_STACK_BUDGET = 1 << 17


def hessenberg(f, m):
    """Similarity-reduce m to upper Hessenberg form."""
    h = np.array(m, dtype=np.int64)
    n = h.shape[0]
    for j in range(n - 2):
        nz = np.nonzero(h[j + 1:, j])[0]
        if nz.size == 0:
            continue
        piv = j + 1 + int(nz[0])
        if piv != j + 1:
            h[[j + 1, piv]] = h[[piv, j + 1]]
            h[:, [j + 1, piv]] = h[:, [piv, j + 1]]
        inv_p = f.inv(int(h[j + 1, j]))
        col = h[j + 2:, j].copy()
        hit = np.nonzero(col)[0]
        if hit.size == 0:
            continue
        rows_idx = hit + j + 2
        factors = f.mul(col[hit], inv_p)
        # one combined similarity: clear the rows, then fix the column
        h[rows_idx] = f.sub(h[rows_idx],
                            f.mul(np.atleast_1d(factors)[:, None],
                                  h[j + 1][None, :]))
        h[:, j + 1] = f.add(h[:, j + 1],
                            f.matmul(h[:, rows_idx], np.atleast_1d(factors)))
    return h


def charpoly(f, m):
    """Coefficients of det(tI - m), highest degree first: [1, c1, ..., cn]."""
    n = m.shape[0]
    if n == 0:
        return [1]
    h = hessenberg(f, m)
    # rows[k] = charpoly of leading k x k block, highest-degree-first,
    # padded to length n + 1
    rows = np.zeros((n + 1, n + 1), dtype=np.int64)
    rows[0, 0] = 1
    for k in range(1, n + 1):
        hk = int(h[k - 1, k - 1])
        prev = rows[k - 1]
        cur = prev.copy()                       # t * prev (same index slot)
        if hk:
            cur[1:] = f.sub(cur[1:], f.mul(hk, prev[:-1]))
        beta = 1
        for mdist in range(1, k):
            beta = f.mul(beta, int(h[k - mdist, k - mdist - 1]))
            if beta == 0:
                break
            coeff = f.mul(int(h[k - 1 - mdist, k - 1]), beta)
            if coeff == 0:
                continue
            shift = mdist + 1
            cur[shift:] = f.sub(cur[shift:],
                                f.mul(coeff, rows[k - 1 - mdist, :-shift]))
        rows[k] = cur
    return [int(c) for c in rows[n]]


def _hessenbergs(f, stack):
    """`hessenberg` of each matrix of an (N, n, n) stack, batched (pivot:
    each matrix's first nonzero entry below the diagonal)."""
    h = np.array(stack, dtype=np.int64)
    n = h.shape[1]
    for j in range(n - 2):
        below = h[:, j + 1:, j] != 0
        piv = j + 1 + below.argmax(axis=1)      # j + 1 when none is nonzero
        swap = np.nonzero(piv != j + 1)[0]
        if swap.size:
            other = piv[swap]
            rows = h[swap, j + 1].copy()
            h[swap, j + 1] = h[swap, other]
            h[swap, other] = rows
            cols = h[swap, :, j + 1].copy()
            h[swap, :, j + 1] = h[swap, :, other]
            h[swap, :, other] = cols
        col = h[:, j + 2:, j]
        if not col.any():
            continue
        head = h[:, j + 1, j]      # 0 only where the column below is 0
        factors = f.mul(col, f.inv(np.where(head == 0, 1, head))[:, None])
        # one combined similarity per matrix: clear the rows below the
        # pivot, then fix column j + 1
        h[:, j + 2:, j:] = f.sub(h[:, j + 2:, j:],
                                 f.mul(factors[:, :, None],
                                       h[:, None, j + 1, j:]))
        h[:, :, j + 1] = f.add(h[:, :, j + 1],
                               f.matmul(h[:, :, j + 2:],
                                        factors[:, :, None])[:, :, 0])
    return h


def charpolys(f, stack, j):
    """The coefficient c_j of det(tI - m) (of t^(n - j)) for each matrix
    m of an (N, n, n) stack, 0 <= j <= n, as a length-N array.

    One batched Hessenberg reduction and one batched recurrence that
    keeps only the top j + 1 coefficients of each leading-block
    polynomial; `charpoly` is its one-matrix reference.
    """
    count, n = np.shape(stack)[:2]
    if not 0 <= j <= n:
        raise ValueError(f"no coefficient c_{j} of a degree-{n} polynomial")
    h = _hessenbergs(f, stack)
    # polys[:, k] = charpoly of the leading k x k block, lowest degree
    # first: p_k = t p_{k-1} - sum_{i<k} h[i, k-1] s_{i+1}...s_{k-1} p_i
    # with s_i = h[i, i-1]; beta[:, i] holds that subdiagonal product.
    # c_j of p_n needs degrees >= n - j of it, and those need only the
    # degrees >= k - j of each p_k (p_i with i < k - j cannot reach them):
    # step k fills that window from the p_i with i >= k - j
    polys = np.zeros((count, n + 1, n + 1), dtype=np.int64)
    polys[:, 0, 0] = 1
    beta = np.zeros((count, n), dtype=np.int64)
    for k in range(1, n + 1):
        lo = max(0, k - j)
        if k > 1:
            beta[:, lo:k - 1] = f.mul(beta[:, lo:k - 1],
                                      h[:, k - 1, k - 2, None])
        beta[:, k - 1] = 1
        weights = f.mul(h[:, lo:k, k - 1], beta[:, lo:k])
        shift = max(lo, 1)                       # t p_{k-1}
        polys[:, k, shift:k + 1] = polys[:, k - 1, shift - 1:k]
        polys[:, k, lo:k + 1] = f.sub(
            polys[:, k, lo:k + 1],
            f.matmul(weights[:, None, :], polys[:, lo:k, lo:k + 1])[:, 0])
    return polys[:, n, n - j].copy()


def _memo_key(A):
    """A's key in `A.root().radical_memo`: the bytes of its structure
    tensor, or of its index table when A is table-driven."""
    if A.mult_tensor is None:
        return ("index table", A._ltable.tobytes())
    return np.asarray(A.mult_tensor, dtype=np.int64).tobytes()


def local_radical(A):
    """J(A), in RREF and read-only, when a local character certifies
    A/J(A) = k; else None.

    The one entry to the certificate, memoized with the radicals of
    `radical_rows`: a refusal is stored as None, and a stored radical
    answers only when it has codimension 1 (the chain's J of an algebra
    that is not local has more)."""
    memo = A.root().radical_memo
    key = _memo_key(A)
    if key not in memo:
        rows = _local_radical(A)
        if rows is not None:
            rows.setflags(write=False)
        memo[key] = rows
    rows = memo[key]
    return rows if rows is not None and A.dim - rows.shape[0] == 1 \
        else None


def radical_rows(A):
    """Rows (A-coordinates) spanning the Jacobson radical of A, in RREF and
    read-only: the kernel of a local character when one is certified,
    else the end of the Cohen-Ivanyos-Wales chain.

    Memoized in `A.root().radical_memo` by A's structure tensor, or by
    its index table when A is table-driven."""
    rows = local_radical(A)
    if rows is None:
        memo = A.root().radical_memo
        key = _memo_key(A)
        rows = memo[key]
        if rows is None:
            rows = _radical_rows_impl(A)
            rows.setflags(write=False)
            memo[key] = rows
    return rows


def _local_radical(A):
    """J(A) as the kernel of a certified local character, or None.

    If A is local with A/J(A) = k, the left multiplication by x is
    triangular with diagonal lambda(x) on a composition series of A, so
    det(tI - L_x) = (t - lambda(x))^n.  With p^a the exact power of p
    dividing n = dim A, its coefficient c_(p^a) = C(n, p^a).(-lambda)^(p^a)
    and C(n, p^a) = n / p^a != 0 mod p (Lucas), so one batched `charpolys`
    coefficient guesses lambda on the basis (c_1, for p not dividing n, is
    minus the trace, read off the trace form).  The guess is then proved:
    lambda(1) = 1 and lambda(b_i.b_j) = lambda(b_i).lambda(b_j) make it an
    algebra map, so K = ker lambda is an ideal of codimension 1 and the
    chain K, K^2, ... decreases; its reaching 0 makes K nilpotent.  A
    nilpotent ideal lies in J(A), and J(A) != A, so K = J(A).  Nothing
    else is assumed of the guess: a wrong one fails a check and returns
    None.

    Such a lambda makes the trace form tr(L_(xy)) = n.lambda(x).lambda(y)
    of rank at most 1, so a form of higher rank returns None at once.
    """
    f = A.field
    n = A.dim
    if n == 0:
        return None
    mats = A.lmul_matrix(linalg.eye(f, n))
    # tr(L_t L_k) = vec(L_t) . vec(L_k^T)
    traces = f.matmul(mats.reshape(n, n * n),
                      mats.transpose(0, 2, 1).reshape(n, n * n).T)
    if linalg.rank(f, traces) > 1:
        return None
    a, pa = 0, 1
    while n % (pa * f.p) == 0:
        a, pa = a + 1, pa * f.p
    # tr(L_x) is the trace form at (x, 1)
    coeffs = f.neg(f.matmul(traces, A.unit)) if pa == 1 else \
        charpolys(f, mats, pa)
    # lambda^(p^a) = -c_(p^a) / C(n, p^a), since (-1)^(p^a) = -1 in char p
    powers = f.div(f.neg(coeffs), (n // pa) % f.p)
    lam = np.array([f.frobenius_inv(int(x), a) for x in powers],
                   dtype=np.int64)
    if f.matmul(A.unit, lam) != 1:
        return None
    # lambda(b_i.b_j), with column j of L_(b_i) the product b_i.b_j
    if not np.array_equal(f.matmul(lam, mats),
                          f.mul(lam[:, None], lam[None, :])):
        return None
    kernel = linalg.nullspace(f, lam[None, :])
    power = kernel
    while power.shape[0]:
        # the products x.y for x in K^m and y in K span K^(m+1)
        prods = f.matmul(A.lmul_matrix(power), kernel.T)
        nxt = linalg.rref(f, prods.transpose(0, 2, 1).reshape(-1, n))[0]
        if nxt.shape[0] >= power.shape[0]:
            return None
        power = nxt
    return kernel


def _radical_rows_impl(A):
    f = A.field
    n = A.dim
    if n == 0:
        return linalg.zeros(0, 0)
    p = f.p
    levels = 0
    while p ** (levels + 1) <= n:
        levels += 1
    basis = linalg.eye(f, n)
    mats = A.lmul_matrix(basis)
    for i in range(levels + 1):
        r = basis.shape[0]
        if r == 0:
            break
        pi = p ** i
        if pi == 1:
            # c_1 is minus the trace, tr(L_t L_k) = vec(L_t) . vec(L_k^T)
            transposed = mats.transpose(0, 2, 1).reshape(r, n * n)
            forms = f.neg(f.matmul(mats.reshape(r, n * n), transposed.T))
        else:
            left, right = np.triu_indices(r)
            vals = np.empty(left.size, dtype=np.int64)
            step = max(1, _STACK_BUDGET // n ** 2)
            for lo in range(0, left.size, step):
                prods = f.matmul(mats[left[lo:lo + step]],
                                 mats[right[lo:lo + step]])
                vals[lo:lo + step] = charpolys(f, prods, pi)
            forms = linalg.zeros(r, r)
            forms[left, right] = vals
            forms[right, left] = vals
        u_rows = linalg.nullspace(f, forms.T)
        if u_rows.shape[0] == r:
            continue
        # coordinates are p^i-th powers of the true ones; take roots
        x_rows = np.zeros_like(u_rows)
        for a in range(u_rows.shape[0]):
            for b in range(r):
                x_rows[a, b] = f.frobenius_inv(u_rows[a, b], i)
        basis = linalg.rref(f, linalg.matmul(f, x_rows, basis))[0]
        mats = A.lmul_matrix(basis)
    return basis
