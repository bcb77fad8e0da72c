"""Exact arithmetic in GF(p^m).

Field elements are integer codes in [0, q): the code sum(c_i * p^i)
stands for the residue class sum(c_i * x^i) modulo a fixed monic
irreducible polynomial of degree m over GF(p).  All element operations
accept plain ints or numpy integer arrays and are vectorized.

Each field finds its modulus and generator with `bflab.polys` over GF(p)
and builds its tables once, at construction.  The powers of the
generator g come in O(log q) vectorized steps: the known run
g^0 .. g^(s - 1) is doubled by multiplying it by g^s, which acts on
base-p digit vectors as a GF(p)-linear map (`_linear_map`).

- zero-sentinel log/exp tables of g drive array `mul`, `inv` and `pow`:
  `_log0` (q entries) sends 0 to 2(q - 1), and `_exp0` (4(q - 1) + 1
  entries) repeats the powers of g twice and is 0 from index 2(q - 1)
  on, so a product is one gather at `_log0[a] + _log0[b]` with no zero
  mask; plain-list copies serve scalar ints;
- for odd p, a q-entry negation table drives `neg`, and for q <= 256 a
  q-by-q addition table drives `add`; larger odd fields add digitwise
  mod p, and p = 2 adds by XOR;
- for m > 1 the product kernel `matmul` packs the m base-p digits of an
  element into w-bit fields of one word, w = 52 // m, so that a sum of
  packed words holds the digit sums of a product before reduction mod
  p.  p = 2 reduces a digit sum by its low bit.  For odd p,
  `_exp_pack[i]` is the packed word of g^i (of 0 past 2(q - 1)), so a
  gathered product is one lookup, and `_residues` reduces a digit sum
  by one lookup too; it has `_RESIDUES` entries (more only where the
  BLAS path would otherwise hold fewer than 64 inner terms, fewer where
  2^w is less), and the inner dimensions below are cut so that no digit
  sum outgrows it.
  Fields whose packed products leave room for at least 64 inner terms
  per word also hold `_planes`, the digits of each element as float64,
  and `_folded`, where `_folded[c, i]` is the packed word of x^i * c.

`matmul` picks a path from the field and the shapes alone:

- prime fields: one float64 BLAS product, reduced mod p; exact while
  k (p - 1)^2 < 2^53 for an inner dimension k;
- GF(p^m), large products: a's digit planes (n by k m) times b's folded
  words (k m by l), one float64 BLAS product in which the w-bit field t
  of each entry sums digit t of the product, k m (p - 1)^2 < 2^w (and
  below the residue table for odd p);
- GF(p^m), products with fewer than `_GATHER_BELOW` multiply-adds or
  thinner than 2m on either outer side, and fields too narrow for 64
  inner terms: the log-table gather of every product, reduced by XOR for
  p = 2 and for odd p summed as packed words, k (p - 1) < 2^w (and
  below the residue table).

The inner dimension is cut where a bound would fail, and every call is
cut into tiles.  One BLAS call does at most `_BLAS_MACS` multiply-adds:
above that OpenBLAS splits the call across threads, which on a shared
2-core host spent 1.8 times the call's wall time in CPU time and, with
the host busy, stalled a quarter of the calls of a (60, 240, 240)
product for over 10 ms.  One tile of an expanded operand (digit planes,
folded words, gathered products) has at most `_TILE` entries, which
bounds the temporaries.

Apart from the addition table and the kernel tables above, every table
has O(q) entries, and q is capped at 2^20 (desk-scale fields only).
"""

import math
import sys
from functools import lru_cache

import numpy as np

from . import polys

# Multiply-adds of one BLAS call; OpenBLAS stays on one thread up to here.
_BLAS_MACS = 1 << 18
# Entries of one tile of an expanded operand or of gathered products.
_TILE = 1 << 16
# Extension-field products with fewer multiply-adds than this gather.
_GATHER_BELOW = 1 << 12
# Least inner dimension a packed word must hold for the BLAS path.
_MIN_TERMS = 64
# Entries of the residue table that reduces odd-p digit sums.
_RESIDUES = 1 << 13


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def p_part(n, p):
    """The largest power of p dividing the positive integer n."""
    if p < 2:
        raise ValueError(f"p = {p} has no p-part")
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def _prime_factors(n):
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


def _lowest_irreducible(p, m):
    """Monic irreducible of degree m over GF(p), least in code order.

    Code order enumerates the non-leading coefficients as the base-p
    digits of an integer, constant term least significant.
    """
    if m == 1:
        return (0, 1)
    for code in range(p ** m):
        f = tuple(code // p ** i % p for i in range(m)) + (1,)
        if polys.is_irreducible(field(p), f):
            return f
    raise RuntimeError("no irreducible polynomial found (unreachable)")


class FiniteField:
    """GF(p^m) with vectorized exact arithmetic on integer codes."""

    def __init__(self, p, m, modulus=None):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        q = p ** m
        if q >= 2 ** 63:
            raise ValueError(f"field order p^m = {q} does not fit in 64 bits")
        if q > 2 ** 20:
            raise ValueError(f"field order {q} exceeds the table budget "
                             "(desk-scale fields only)")
        self.p = p
        self.m = m
        self.q = q
        self.modulus = tuple(modulus) if modulus else _lowest_irreducible(p, m)
        if len(self.modulus) != m + 1 or self.modulus[-1] != 1:
            raise ValueError(f"modulus {self.modulus} is not monic of "
                             f"degree {m}")
        self._powers = np.array([p ** i for i in range(m)], dtype=np.int64)
        self._build_tables()

    # -- construction of log/exp tables ---------------------------------

    def _poly_mul_code(self, a, b):
        """Product of two codes by polynomial arithmetic over GF(p)."""
        if self.m == 1:
            return a * b % self.p
        prime = field(self.p)
        ca, cb = ([x // int(pw) % self.p for pw in self._powers]
                  for x in (a, b))
        red = polys.mod(prime, polys.mul(prime, ca, cb), self.modulus)
        return sum(c * self.p ** i for i, c in enumerate(red))

    def _is_generator(self, a):
        """a^((q - 1) / r) != 1 for every prime r dividing q - 1."""
        for r in _prime_factors(self.q - 1):
            acc, base, n = 1, a, (self.q - 1) // r
            while n:
                if n & 1:
                    acc = self._poly_mul_code(acc, base)
                base = self._poly_mul_code(base, base)
                n >>= 1
            if acc == 1:
                return False
        return True

    def _build_tables(self):
        p, m, q = self.p, self.m, self.q
        # the least generator in code order; 1 when q = 2
        gen = next((c for c in range(2, q) if self._is_generator(c)), 1)
        # powers[i] = g^i: double the known run g^0 .. g^(s - 1) by
        # multiplying it by step = g^s, then square the step
        powers = np.ones(1, dtype=np.int64)
        step = gen
        while powers.size < q:
            times = self._times_matrix(step)
            powers = np.concatenate([powers, self._linear_map(times, powers)])
            step = int(self._linear_map(times, np.array([step]))[0])
        log = np.zeros(q, dtype=np.int64)
        log[powers[:q - 1]] = np.arange(q - 1)
        if powers[q - 1] != 1 or np.count_nonzero(log) != q - 2:
            raise ValueError(f"modulus {self.modulus} is not irreducible "
                             f"over GF({p})")
        exp = np.tile(powers[:q - 1], 2)
        self.generator = gen
        self._exp_list = exp.tolist()
        self._log_list = log.tolist()
        # log 0 points past every sum of two real logs, where exp is 0
        zero = 2 * (q - 1)
        self._log0 = log
        self._log0[0] = zero
        self._exp0 = np.zeros(2 * zero + 1, dtype=np.int64)
        self._exp0[:zero] = exp
        if p != 2:
            codes = np.arange(q, dtype=np.int64)
            self._neg_table = self.mul(p - 1, codes)   # -a = (p - 1) a
            self._neg_list = self._neg_table.tolist()
            self._add_table = self._add_rows = None
            if q <= 256:
                self._add_table = self._add_digits(codes[:, None], codes)
                self._add_rows = self._add_table.tolist()
        self._build_product_tables()

    def _build_product_tables(self):
        """Inner-dimension caps of the two product paths and, for m > 1,
        the packed tables of `matmul` (see the module docstring)."""
        p, m, q = self.p, self.m, self.q
        if m == 1:
            self._blas_k = (2 ** 53 - 1) // (p - 1) ** 2
            return
        w = 52 // m
        self._offsets = w * np.arange(m, dtype=np.int64)
        self._digit_mask = (1 << w) - 1
        codes = np.arange(q, dtype=np.int64)
        # the largest digit sum `_unpack` meets: the packed width, and for
        # odd p the residue table that reduces it, which still holds the
        # digit sums of the least inner dimension of the BLAS path
        top = self._digit_mask
        if p != 2:
            top = min(top, max(_RESIDUES - 1, _MIN_TERMS * m * (p - 1) ** 2))
            self._residues = np.arange(top + 1, dtype=np.int64) % p
            self._exp_pack = self._packed(self._exp0)
        self._gather_k = sys.maxsize if p == 2 else top // (p - 1)
        self._blas_k = top // (m * (p - 1) ** 2)
        if self._blas_k < _MIN_TERMS:
            self._blas_k = 0
            return
        self._planes = (codes[:, None] // self._powers % p).astype(np.float64)
        self._folded = np.empty((q, m), dtype=np.float64)
        x_times = self._times_matrix(p)          # the code p is x
        for i in range(m):
            self._folded[:, i] = self._packed(codes)
            codes = self._linear_map(x_times, codes)

    def _packed(self, codes):
        """Packed words of codes: digit t in bits [w t, w (t + 1))."""
        out = np.zeros_like(codes)
        for offset, pw in zip(self._offsets, self._powers):
            out += codes // pw % self.p << offset
        return out

    def _times_matrix(self, c):
        """The m-by-m matrix over GF(p) of multiplication by the code c
        on digit vectors: column t holds the digits of x^t * c."""
        p, m = self.p, self.m
        # x * v: shift the digits up, then fold x^m = -sum f_t x^t back in
        x_map = np.eye(m, k=-1, dtype=np.int64)
        x_map[:, -1] = [-f % p for f in self.modulus[:m]]
        cols = [np.array([c // p ** t % p for t in range(m)], dtype=np.int64)]
        for _ in range(m - 1):
            cols.append(x_map @ cols[-1] % p)
        return np.stack(cols, axis=1)

    def _linear_map(self, mat, codes):
        """Codes of mat @ digits(c) mod p for each code c, a block of
        `_TILE` codes at a time."""
        out = np.empty_like(codes)
        for lo in range(0, codes.size, _TILE):
            digits = codes[lo:lo + _TILE, None] // self._powers % self.p
            out[lo:lo + _TILE] = digits @ mat.T % self.p @ self._powers
        return out

    def _scalar_add(self, a, b):
        out = 0
        pw = 1
        for _ in range(self.m):
            out += ((a + b) % self.p) * pw
            a //= self.p
            b //= self.p
            pw *= self.p
        return out

    def _scalar_neg(self, a):
        out = 0
        pw = 1
        for _ in range(self.m):
            out += (-(a % self.p)) % self.p * pw
            a //= self.p
            pw *= self.p
        return out

    # -- scalar/array operations ----------------------------------------

    def add(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b) if isinstance(a, np.ndarray) or \
                isinstance(b, np.ndarray) else (a ^ b)
        if isinstance(a, int) and isinstance(b, int):
            if self._add_rows is not None:
                return self._add_rows[a][b]
            return self._scalar_add(a, b)
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = self._add_digits(a, b) if self._add_table is None \
            else self._add_table[a, b]
        return out if out.shape else int(out)

    def _add_digits(self, a, b):
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        for pw in self._powers:
            out += ((a // pw + b // pw) % self.p) * pw
        return out

    def neg(self, a):
        if self.p == 2:
            return a
        if isinstance(a, int):
            return self._neg_list[a]
        out = self._neg_table[np.asarray(a, dtype=np.int64)]
        return out if out.shape else int(out)

    def sub(self, a, b):
        if self.p == 2:
            return self.add(a, b)
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if isinstance(a, int) and isinstance(b, int):
            if a == 0 or b == 0:
                return 0
            return self._exp_list[self._log_list[a] + self._log_list[b]]
        out = self._log0[np.asarray(a, dtype=np.int64)] + \
            self._log0[np.asarray(b, dtype=np.int64)]
        if not np.ndim(out):
            return int(self._exp0[out])
        self._exp0.take(out, out=out, mode="clip")
        return out

    def inv(self, a):
        if isinstance(a, int):
            if a == 0:
                raise ZeroDivisionError("inverting 0 in finite field")
            return self._exp_list[(self.q - 1 - self._log_list[a])
                                  % (self.q - 1)]
        a = np.asarray(a, dtype=np.int64)
        if np.any(a == 0):
            raise ZeroDivisionError("inverting 0 in finite field")
        out = self._exp0[(self.q - 1 - self._log0[a]) % (self.q - 1)]
        return out if out.shape else int(out)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n):
        if a == 0:
            return 0 if n else 1
        return int(self._exp0[(int(self._log0[a]) * (n % (self.q - 1)))
                              % (self.q - 1)])

    def vec_sum(self, arr, axis=None):
        """Field sum of an array along an axis (or all entries)."""
        arr = np.asarray(arr, dtype=np.int64)
        if self.p == 2:
            out = np.bitwise_xor.reduce(arr, axis=axis)
            return out if isinstance(out, np.ndarray) and out.shape else int(out)
        out = 0
        for pw in self._powers:
            digits = (arr // pw) % self.p
            out = out + (digits.sum(axis=axis) % self.p) * pw
        return out if isinstance(out, np.ndarray) and out.shape else int(out)

    def matmul(self, a, b):
        """The field product a @ b, with numpy `matmul` semantics: stacks
        of matrices broadcast over the leading axes, and a 1-D operand is
        a row (left) or a column (right) that the result drops.

        The one product kernel; `vec_sum(mul(a[..., :, :, None],
        b[..., None, :, :]), axis=-2)` is its reference.  The path and the
        tiles depend only on the field and the shapes (see the module
        docstring).
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.ndim == 0 or b.ndim == 0:
            raise ValueError("matmul needs operands of at least one axis")
        a2 = a[None] if a.ndim == 1 else a
        b2 = b[:, None] if b.ndim == 1 else b
        if a2.shape[-1] != b2.shape[-2]:
            raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
        if a2.ndim == 2 and b2.ndim == 2:
            out = self._matrix_product(a2, b2)
        else:
            stack = np.broadcast_shapes(a2.shape[:-2], b2.shape[:-2])
            count = math.prod(stack)
            a3, b3 = (x.reshape((count,) + x.shape[-2:]) if x.shape[:-2] ==
                      stack else np.broadcast_to(x, stack + x.shape[-2:])
                      .reshape((count,) + x.shape[-2:]) for x in (a2, b2))
            out = self._product(a3, b3).reshape(stack + (a2.shape[-2],
                                                         b2.shape[-1]))
        if b.ndim == 1:
            out = out[..., 0]
        if a.ndim == 1:
            out = out[..., 0, :] if b.ndim > 1 else out[..., 0]
        return out if out.ndim else int(out)

    def _matrix_product(self, a, b):
        """Codes of a @ b for 2-D operands, at the cost of a few numpy
        calls when the product is one small tile."""
        n, k = a.shape
        if n * k * b.shape[1] < _GATHER_BELOW and \
                k <= (self._blas_k if self.m == 1 else self._gather_k):
            # one tile: prime fields multiply by BLAS, the others gather
            if self.m == 1:
                return self._blas_combine(self._blas_left(a),
                                          self._blas_right(b))
            return self._gather_combine(self._gather_left(a),
                                        self._gather_right(b))
        return self._product(a[None], b[None])[0]

    def _product(self, a, b):
        """(count, n, l) codes of the stacked product of (count, n, k) and
        (count, k, l) codes, tile by tile."""
        count, n, k = a.shape
        l = b.shape[2]
        if not (count and n and k and l):
            return np.zeros((count, n, l), dtype=np.int64)
        m = self.m
        blas = m == 1 or (self._blas_k and count * n * k * l >= _GATHER_BELOW
                          and min(n, l) >= 2 * m)
        # entries of an expanded tile per operand entry, and the tile caps
        width = m if blas else 1
        kt = min(k, self._blas_k if blas else self._gather_k,
                 max(1, _TILE // width))
        span = kt * width
        cap = _BLAS_MACS if blas else _TILE
        lt = min(l, max(1, _TILE // span))
        nt = min(n, max(1, cap // (span * lt)), max(1, _TILE // span))
        ct = min(count, max(1, cap // (span * lt * nt)),
                 max(1, _TILE // (span * max(lt, nt))))
        left, right, combine = (self._blas_left, self._blas_right,
                                self._blas_combine) if blas else \
            (self._gather_left, self._gather_right, self._gather_combine)
        if (ct, nt, kt, lt) == (count, n, k, l):
            return combine(left(a), right(b))
        out = np.empty((count, n, l), dtype=np.int64)
        for k0 in range(0, k, kt):
            for c0 in range(0, count, ct):
                for l0 in range(0, l, lt):
                    rb = right(b[c0:c0 + ct, k0:k0 + kt, l0:l0 + lt])
                    for n0 in range(0, n, nt):
                        part = combine(
                            left(a[c0:c0 + ct, n0:n0 + nt, k0:k0 + kt]), rb)
                        dst = out[c0:c0 + ct, n0:n0 + nt, l0:l0 + lt]
                        dst[...] = part if k0 == 0 else self.add(dst, part)
        return out

    # A tile of the BLAS path: float64 operands, one product, reduction.
    # The tile functions take single matrices or stacks.

    def _blas_left(self, a):
        if self.m == 1:
            return a.astype(np.float64)
        return self._planes.take(a, axis=0).reshape(a.shape[:-1] + (-1,))

    def _blas_right(self, b):
        if self.m == 1:
            return b.astype(np.float64)
        # rows x^i b[j, :] in the order (j, i) of the left digit planes
        folded = self._folded.take(b.swapaxes(-1, -2), axis=0)
        return folded.reshape(b.shape[:-2] + (b.shape[-1], -1)) \
            .swapaxes(-1, -2)

    def _blas_combine(self, left, right):
        out = np.matmul(left, right).astype(np.int64)
        return out % self.p if self.m == 1 else self._unpack(out)

    # A tile of the gather path: every product through the log tables.

    def _gather_left(self, a):
        return self._log0.take(a)[..., None]

    def _gather_right(self, b):
        return self._log0.take(b)[..., None, :, :]

    def _gather_combine(self, left, right):
        prods = left + right
        # in place, so the tile holds one temporary: take reads each
        # index before it writes the same slot
        if self.p == 2:
            self._exp0.take(prods, out=prods, mode="clip")
            return np.bitwise_xor.reduce(prods, axis=-2)
        self._exp_pack.take(prods, out=prods, mode="clip")
        return self._unpack(prods.sum(axis=-2))

    def _unpack(self, words):
        """Codes of packed words whose field t holds a sum of digits t."""
        # digit-major, so every elementwise pass runs over all the words
        digits = words.ravel() >> self._offsets[:, None]
        if self.p == 2:
            digits &= 1
        else:
            digits &= self._digit_mask
            self._residues.take(digits, out=digits, mode="clip")
        return (self._powers @ digits).reshape(words.shape)

    def sub_outer(self, a, x, y):
        """a - x (outer) y, the rank-one update of an elimination step.

        The one rank-one kernel; `sub(a, mul(x[:, None], y))` is its
        reference.  The field picks the path: an AND and an XOR for GF(2),
        an in-place zero-sentinel gather and an XOR for GF(2^m), an int64
        product reduced mod p for other primes, and otherwise `add` of the
        product with -x, negated on the short side.
        """
        a = np.asarray(a, dtype=np.int64)
        x = np.asarray(x, dtype=np.int64)[:, None]
        y = np.asarray(y, dtype=np.int64)
        if self.q == 2:
            return a ^ (x & y)
        if self.m == 1:
            return (a - x * y) % self.p
        if self.p == 2:
            prods = self._log0[x] + self._log0[y]
            self._exp0.take(prods, out=prods, mode="clip")
            return a ^ prods
        return self.add(a, self.mul(self.neg(x), y))

    def frobenius(self, a, k=1):
        """a ** (p**k), the k-fold Frobenius."""
        return self.pow(int(a), self.p ** k)

    def frobenius_inv(self, a, k=1):
        """Unique p^k-th root, i.e. Frobenius applied m - k (mod m) times."""
        return self.pow(int(a), self.p ** ((self.m - k) % self.m)) \
            if self.m > 1 else int(a)

    def elements(self):
        return range(self.q)

    def random_elements(self, rng, size):
        return rng.integers(0, self.q, size=size, dtype=np.int64)

    def __eq__(self, other):
        return isinstance(other, FiniteField) and \
            (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"


@lru_cache(maxsize=None)
def _field_cache(p, m):
    return FiniteField(p, m)


def field(p, m=1):
    """GF(p^m) with the canonical (lowest-code) modulus, cached."""
    return _field_cache(p, m)


def unit_degree(p, e):
    """The least m such that e divides p^m - 1, the degree of the
    smallest GF(p^m) whose unit group has an element of order e; no
    field is built."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e < 1:
        raise ValueError("e must be a positive integer")
    if e % p == 0:
        raise ValueError(f"e = {e} must be prime to p = {p}")
    m = 1
    while (p ** m - 1) % e != 0:
        m += 1
        if p ** m >= 2 ** 63:
            raise ValueError(f"no GF(p^m) below 2^63 has {e} | p^m - 1")
    return m


def make_field(p, e):
    """Smallest GF(p^m) whose unit group has an element of order e.

    `e` should be the p'-part of the exponent of the group under study;
    the returned field then splits the group algebra of every subgroup,
    and is often larger than the least field that splits the pipeline's
    group algebras, `blocks.splitting_field`.
    """
    return field(p, unit_degree(p, e))
