"""Univariate polynomials over a finite field.

Polynomials are tuples of field codes, constant term first, with no
trailing zeros (the zero polynomial is the empty tuple).  Degrees stay
tiny here (bounded by algebra dimensions), so everything is schoolbook.

`factor` is squarefree decomposition + distinct-degree splitting +
Cantor-Zassenhaus equal-degree splitting, with the char-2 trace-map
variant; randomness comes from an explicit numpy generator so runs
reproduce exactly.
"""

import numpy as np

X = (0, 1)


def trim(c):
    c = tuple(int(v) for v in c)
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def deg(a):
    return len(a) - 1


def add(f, a, b):
    n = max(len(a), len(b))
    return trim(f.add(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)
                for i in range(n))


def neg(f, a):
    return tuple(f.neg(c) for c in a)


def sub(f, a, b):
    return add(f, a, neg(f, b))


def scale(f, a, s):
    if s == 0:
        return ()
    return tuple(f.mul(c, s) for c in a)


def mul(f, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = f.add(out[i + j], f.mul(x, y))
    return trim(out)


def divmod_(f, a, b):
    if not b:
        raise ValueError("division by zero polynomial")
    inv_lead = f.inv(b[-1])
    q = [0] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while len(trim(r)) >= len(b):
        r = list(trim(r))
        shift = len(r) - len(b)
        factor = f.mul(r[-1], inv_lead)
        q[shift] = factor
        for i, c in enumerate(b):
            r[shift + i] = f.sub(r[shift + i], f.mul(factor, c))
    return trim(q), trim(r)


def mod(f, a, b):
    return divmod_(f, a, b)[1]


def monic(f, a):
    if not a:
        return a
    return scale(f, a, f.inv(a[-1]))


def gcd(f, a, b):
    a, b = trim(a), trim(b)
    while b:
        a, b = b, mod(f, a, b)
    return monic(f, a)


def powmod(f, a, n, m):
    result = (1,)
    base = mod(f, a, m)
    while n:
        if n & 1:
            result = mod(f, mul(f, result, base), m)
        base = mod(f, mul(f, base, base), m)
        n >>= 1
    return result


def derivative(f, a):
    out = []
    for i in range(1, len(a)):
        c = a[i]
        s = i % f.p
        out.append(f.mul(c, s) if s else 0)
    return trim(out)


def pth_root(f, a):
    """g with g(x)^p = a(x), for a with zero derivative."""
    out = []
    for i in range(0, len(a), f.p):
        out.append(f.frobenius_inv(a[i]))
    return trim(out)


def _squarefree(f, a):
    """[(g, mult)] with a = prod g^mult, each g squarefree, a monic."""
    out = []
    d = derivative(f, a)
    if not d:
        if deg(a) == 0:
            return []
        inner = pth_root(f, a)
        return [(g, m * f.p) for g, m in _squarefree(f, inner)]
    c = gcd(f, a, d)
    w = divmod_(f, a, c)[0]
    i = 1
    while deg(w) > 0:
        y = gcd(f, w, c)
        z = divmod_(f, w, y)[0]
        if deg(z) > 0:
            out.append((monic(f, z), i))
        w = y
        c = divmod_(f, c, y)[0]
        i += 1
    if deg(c) > 0:
        inner = pth_root(f, c)
        out.extend((g, m * f.p) for g, m in _squarefree(f, inner))
    return out


def _distinct_degree(f, a):
    """[(product-of-irreducibles-of-degree-d, d)] for squarefree monic a."""
    out = []
    h = X
    g = a
    d = 0
    while deg(g) > 2 * (d + 1) - 1:
        d += 1
        h = powmod(f, h, f.q, g)
        factor_d = gcd(f, sub(f, h, X), g)
        if deg(factor_d) > 0:
            out.append((factor_d, d))
            g = divmod_(f, g, factor_d)[0]
            h = mod(f, h, g)
    if deg(g) > 0:
        out.append((g, deg(g)))
    return out


def _equal_degree(f, a, d, rng):
    """Split squarefree monic a into its deg-d irreducible factors (CZ)."""
    n = deg(a)
    if n == d:
        return [a]
    while True:
        coeffs = [int(c) for c in f.random_elements(rng, n)]
        r = trim(coeffs)
        if deg(r) < 1:
            continue
        if f.p == 2:
            # trace map sum r^(2^i) over the splitting field GF(q^d)
            t = ()
            cur = mod(f, r, a)
            for _ in range(d * f.m):
                t = add(f, t, cur)
                cur = mod(f, mul(f, cur, cur), a)
            g = gcd(f, t, a)
        else:
            e = (f.q ** d - 1) // 2
            b = powmod(f, r, e, a)
            g = gcd(f, sub(f, b, (1,)), a)
        if 0 < deg(g) < n:
            left = _equal_degree(f, g, d, rng)
            right = _equal_degree(f, divmod_(f, a, g)[0], d, rng)
            return left + right


def factor(f, a, rng=None):
    """Full factorization [(irreducible monic, multiplicity)], sorted.

    The product of the factors with multiplicities equals a up to the
    leading coefficient.  Raises on the zero polynomial.
    """
    a = trim(a)
    if not a:
        raise ValueError("cannot factor the zero polynomial")
    if rng is None:
        rng = np.random.default_rng(0xB10C)
    a = monic(f, a)
    out = []
    for sqf, m in _squarefree(f, a):
        for prod_d, d in _distinct_degree(f, sqf):
            for irr in _equal_degree(f, prod_d, d, rng):
                out.append((monic(f, irr), m))
    out.sort()
    return out


def is_irreducible(f, a):
    a = trim(a)
    return deg(a) > 0 and factor(f, a) == [(monic(f, a), 1)]
