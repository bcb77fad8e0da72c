"""Exact arithmetic in GF(p^m).

Field elements are integer codes in [0, q): the code sum(c_i * p^i)
stands for the residue class sum(c_i * x^i) modulo a fixed monic
irreducible polynomial of degree m over GF(p).  All element operations
accept plain ints or numpy integer arrays and are vectorized.

Each field finds its modulus and generator with `bflab.polys` over GF(p)
and builds its tables once, at construction:

- zero-sentinel log/exp tables of a primitive element drive array
  `mul`, `inv` and `pow`: `_log0` (q entries) sends 0 to 2(q - 1), and
  `_exp0` (4(q - 1) + 1 entries) repeats the powers of the generator
  twice and is 0 from index 2(q - 1) on, so a product is one gather at
  `_log0[a] + _log0[b]` with no zero mask; plain-list copies serve
  scalar ints;
- for odd p, a q-entry negation table drives `neg`, and for q <= 256 a
  q-by-q addition table drives `add`; larger odd fields add digitwise
  mod p, and p = 2 adds by XOR;
- for odd p and m > 1, a packed exp table laid out like `_exp0` holds
  the m base-p digits of each power of the generator in w-bit fields of
  one int64, w = 62 // m, for the product-sum kernel `mul_sum`.

Apart from the addition table every table has O(q) entries, and q is
capped at 2^20 (desk-scale fields only).
"""

import sys
from functools import lru_cache

import numpy as np

from . import polys

# Largest temporary, in elements, that `mul_sum` builds in one step.
_TEMP_BUDGET = 1 << 22


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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
        self._build_log_tables()

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

    def _build_log_tables(self):
        q = self.q
        # the least generator in code order; 1 when q = 2
        gen = next((c for c in range(2, q) if self._is_generator(c)), 1)
        exp = np.zeros(max(2 * (q - 1), 1), dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        acc = 1
        for i in range(q - 1):
            exp[i] = acc
            exp[i + q - 1] = acc
            log[acc] = i
            acc = self._poly_mul_code(acc, gen)
        if acc != 1 or np.count_nonzero(log) != q - 2:
            raise ValueError(f"modulus {self.modulus} is not irreducible "
                             f"over GF({self.p})")
        self.generator = gen
        self._exp_list = exp.tolist()
        self._log_list = log.tolist()
        # log 0 points past every sum of two real logs, where exp is 0
        zero = 2 * (q - 1)
        self._log0 = log
        self._log0[0] = zero
        self._exp0 = np.zeros(2 * zero + 1, dtype=np.int64)
        self._exp0[:zero] = exp[:zero]
        if self.p != 2:
            codes = np.arange(q, dtype=np.int64)
            self._neg_table = self.mul(self.p - 1, codes)   # -a = (p - 1) a
            self._neg_list = self._neg_table.tolist()
            self._add_table = self._add_rows = None
            if q <= 256:
                self._add_table = self._add_digits(codes[:, None], codes)
                self._add_rows = self._add_table.tolist()
        self._build_product_sum()

    def _build_product_sum(self):
        """Chunk length and, for odd p and m > 1, the packed tables.

        A product's packed code holds its m base-p digits in w-bit fields,
        so `_chunk_len` such codes sum without a carry between fields.
        It is indexed by `_log0` sums, like `_exp0`.
        """
        p, m, q = self.p, self.m, self.q
        if p == 2:
            self._chunk_len = sys.maxsize
        elif m == 1:
            self._chunk_len = (2 ** 63 - 1) // (p - 1) ** 2
        else:
            w = 62 // m
            self._chunk_len = ((1 << w) - 1) // (p - 1)
            if self._chunk_len < 1:
                raise ValueError(f"a digit of GF({p}^{m}) does not fit in "
                                 f"the {w}-bit field of a packed product")
            self._shifts = w * np.arange(m, dtype=np.int64)
            self._mask = (1 << w) - 1
            zero = 2 * (q - 1)
            packed = np.zeros_like(self._exp0)
            for shift, pw in zip(self._shifts, self._powers):
                packed[:zero] += (self._exp0[:zero] // pw) % p << shift
            self._pexp = packed

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

    def mul_sum(self, a, b, axis):
        """Field sum along `axis` of the broadcast product a * b.

        The one product-sum kernel; `vec_sum(mul(a, b), axis)` is its
        reference.  The field picks the path: the parity of a sum of ANDs
        for GF(2), an in-place zero-sentinel gather and an XOR reduce for
        GF(2^m), an int64 sum reduced mod p for other primes, and for
        m > 1 one int64 sum of packed products (see `_build_product_sum`)
        whose m digit fields are unpacked on the result.  The axis is cut
        into chunks so that no digit sum carries and no temporary exceeds
        `_TEMP_BUDGET` elements.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.size * b.size > _TEMP_BUDGET or \
                max(a.size, b.size) > self._chunk_len:
            out = self._mul_sum_chunked(a, b, axis)
        else:       # bounds the product and the axis: one chunk
            out = self._mul_sum_chunk(a, b, axis)
        return out if isinstance(out, np.ndarray) else int(out)

    def _mul_sum_chunked(self, a, b, axis):
        both = np.broadcast(a, b)
        if not -both.ndim <= axis < both.ndim:
            raise ValueError(f"axis {axis} is out of range for {both.shape}")
        axis %= both.ndim
        k = both.shape[axis]
        step = max(1, min(self._chunk_len,
                          _TEMP_BUDGET * k // max(both.size, 1)))
        a, b = (x.reshape((1,) * (both.ndim - x.ndim) + x.shape)
                for x in (a, b))
        out = self._mul_sum_chunk(*_cut(a, b, axis, 0, step), axis)
        for lo in range(step, k, step):
            out = self.add(out, self._mul_sum_chunk(
                *_cut(a, b, axis, lo, lo + step), axis))
        return out

    def _mul_sum_chunk(self, a, b, axis):
        if self.q == 2:
            return (a & b).sum(axis=axis) & 1
        if self.m == 1:
            return (a * b).sum(axis=axis) % self.p
        # gather in place, so the chunk holds one temporary, not two: take
        # reads each index before it writes the same slot
        if self.p == 2:
            prods = self._log0[a] + self._log0[b]
            self._exp0.take(prods, out=prods, mode="clip")
            return np.bitwise_xor.reduce(prods, axis=axis)
        packed = self._log0[a] + self._log0[b]
        self._pexp.take(packed, out=packed, mode="clip")
        packed = packed.sum(axis=axis)
        digits = (packed[..., None] >> self._shifts) & self._mask
        return (digits % self.p) @ self._powers

    def sub_outer(self, a, x, y):
        """a - x (outer) y, the rank-one update of an elimination step.

        The one rank-one kernel; `sub(a, mul(x[:, None], y))` is its
        reference.  The field picks the path, as for `mul_sum`: an AND and
        an XOR for GF(2), an in-place zero-sentinel gather and an XOR for
        GF(2^m), an int64 product reduced mod p for other primes, and
        otherwise `add` of the product with -x, negated on the short side.
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


def _cut(a, b, axis, lo, hi):
    """a and b restricted to [lo, hi) along a broadcast axis."""
    index = (slice(None),) * axis + (slice(lo, hi),)
    return (a if a.shape[axis] == 1 else a[index],
            b if b.shape[axis] == 1 else b[index])


@lru_cache(maxsize=None)
def _field_cache(p, m):
    return FiniteField(p, m)


def field(p, m=1):
    """GF(p^m) with the canonical (lowest-code) modulus, cached."""
    return _field_cache(p, m)


def make_field(p, e):
    """Smallest GF(p^m) whose unit group has an element of order e.

    `e` should be the p'-part of the exponent of the group under study;
    the returned field then splits its group algebra.
    """
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
    return field(p, m)

