"""Jacobson radical of a finite-dimensional algebra in characteristic p.

The pipeline asks one question of a radical: is an algebra A local with
A/J(A) = k?  Then its unit is primitive, and the Fitting split of
`bflab.idempotents.decompose_unit` stops there.  `local_radical`
answers it: J(A) is then the kernel of a local character lambda: A -> k
(Eberly and Giesbrecht, J. Symbolic Comput. 29, 2000), which
`_local_radical` guesses on the basis (from the trace form when p does
not divide dim A, else by powering each left multiplication to a scalar)
and then proves (an algebra map with nilpotent kernel).  A refusal is an
answer too: the guess fails on every algebra that is not local with
A/J(A) = k.

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
one-matrix reduction, is the reference for `charpolys`, and the chain
is the only caller of either.  Both paths read the basis's left
multiplications off the structure tensor (`basis_lmuls`), with no
product.

Nothing here is memoized: each algebra whose radical the pipeline asks
for has one owner that builds it once (an interior algebra's A^P, a
quotient's algebra).  The few asked twice (11 of 89 radicals in a
catalog pass) cost a certificate each, under 2% of the pass, which is
less than a memo keyed by the bytes of whole tensors is worth keeping
alive for the run.  The returned rows are read-only.
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


def local_radical(A):
    """J(A), in RREF and read-only, when a local character certifies
    A/J(A) = k; else None.  The one entry to the certificate."""
    rows = _local_radical(A)
    if rows is not None:
        rows.setflags(write=False)
    return rows


def radical_rows(A):
    """Rows (A-coordinates) spanning the Jacobson radical of A, in RREF and
    read-only: the kernel of a local character when one is certified,
    else the end of the Cohen-Ivanyos-Wales chain."""
    rows = local_radical(A)
    if rows is None:
        rows = _radical_rows_impl(A)
        rows.setflags(write=False)
    return rows


def _local_radical(A):
    """J(A) as the kernel of a certified local character, or None.

    If A is local with A/J(A) = k, the left multiplication by x is
    lambda(x).I + N with N strictly triangular on a composition series of
    A, so N^n = 0 for n = dim A.  The guess of lambda on the basis reads
    that off one of two ways:

    * p not dividing n: tr(L_x) = n.lambda(x), read off the trace form;
    * p dividing n: L_x^Q = lambda(x).I for Q = q^t >= n, since the
      middle binomial coefficients of the p-power Q vanish mod p,
      N^Q = 0 and lambda^Q = lambda in k = GF(q).  A power that is not
      scalar refuses at once.

    The guess is then proved: lambda(1) = 1 and lambda(b_i.b_j) =
    lambda(b_i).lambda(b_j) make it an algebra map, so K = ker lambda is
    an ideal of codimension 1 and the chain K, K^2, ... decreases; its
    reaching 0 makes K nilpotent.  A nilpotent ideal lies in J(A), and
    J(A) != A, so K = J(A).  Nothing else is assumed of the guess: a
    wrong one fails a check and returns None, so both guesses certify
    exactly the local algebras with A/J(A) = k.

    Such a lambda makes the trace form tr(L_(xy)) = n.lambda(x).lambda(y)
    of rank at most 1, so a form of higher rank returns None at once.
    """
    f = A.field
    n = A.dim
    if n == 0:
        return None
    mats = A.basis_lmuls()
    # tr(L_t L_k) = vec(L_t) . vec(L_k^T)
    traces = f.matmul(mats.reshape(n, n * n),
                      mats.transpose(0, 2, 1).reshape(n, n * n).T)
    if linalg.rank(f, traces) > 1:
        return None
    if n % f.p:
        # tr(L_x) is the trace form at (x, 1)
        lam = f.mul(f.matmul(traces, A.unit), f.inv(n % f.p))
    else:
        lam = _scalar_power(f, mats, n)
        if lam is None:
            return None
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


def _scalar_power(f, mats, n):
    """lambda with L^Q = lambda.I for each matrix L of an (N, n, n) stack,
    Q the least power of q = |k| with Q >= n, by binary powering of the
    whole stack; None when a power is not scalar."""
    Q = f.q
    while Q < n:
        Q *= f.q
    power, square = None, mats
    while True:
        if Q & 1:
            power = square if power is None else f.matmul(power, square)
        Q >>= 1
        if not Q:
            break
        square = f.matmul(square, square)
    lam = power[:, 0, 0].copy()
    scalar = np.zeros_like(power)
    scalar[:, np.arange(n), np.arange(n)] = lam[:, None]
    return lam if np.array_equal(power, scalar) else None


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
    mats = A.basis_lmuls()
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
