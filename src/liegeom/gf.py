"""Exact arithmetic in small finite fields GF(p^k), p^k <= 16.

Elements are plain integers in [0, q).  The integer is the coefficient
vector of the residue polynomial read in base p, least significant
coefficient first, so GF(q) serialization is just the integer itself.
Addition, multiplication and inversion are table driven; the tables are
built once per field spec and never mutated, so field objects are safe
to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class FieldError(ValueError):
    pass


#: Fixed irreducible moduli (coefficient vectors, ascending degree) so that
#: element encodings, and therefore point IDs downstream, are reproducible.
_DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),     # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),  # x^4 + x + 1
    (3, 2): (1, 0, 1),        # x^2 + 1
}

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def _factor_order(q: int) -> tuple[int, int]:
    """Split q into (p, k) with p prime, or raise."""
    if q < 2:
        raise FieldError(f"field order {q} is below 2")
    for p in _SMALL_PRIMES:
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise FieldError(f"{q} is not a prime power")
            return p, k
    raise FieldError(f"unsupported field order {q}")


def _poly_mul_mod_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_divmod(a, b, p):
    """Divide polynomial a by monic-leading b over GF(p)."""
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    inv_lead = pow(b[-1], -1, p)
    quot = [0] * max(da - db + 1, 1)
    while da >= db and any(a):
        da = len(a) - 1
        while da >= 0 and a[da] == 0:
            da -= 1
        if da < db:
            break
        c = (a[da] * inv_lead) % p
        quot[da - db] = c
        for i in range(db + 1):
            a[da - db + i] = (a[da - db + i] - c * b[i]) % p
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return quot, a


def is_irreducible(modulus, p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2."""
    k = len(modulus) - 1
    if k < 1 or modulus[-1] == 0:
        return False
    if k == 1:
        return True
    for d in range(1, k // 2 + 1):
        # enumerate monic polynomials of degree d over GF(p)
        for code in range(p**d):
            divisor = []
            c = code
            for _ in range(d):
                divisor.append(c % p)
                c //= p
            divisor.append(1)
            _, rem = _poly_divmod(modulus, divisor, p)
            if rem == [0]:
                return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Defining data of GF(p^k): characteristic, degree and modulus."""

    p: int
    k: int
    modulus: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.p**self.k

    def __post_init__(self):
        if self.q > 16:
            raise FieldError(f"field order {self.q} exceeds supported bound 16")
        if len(self.modulus) != self.k + 1 or self.modulus[-1] != 1:
            raise FieldError("modulus must be monic of degree k")
        if not is_irreducible(self.modulus, self.p):
            raise FieldError(f"modulus {self.modulus} is reducible over GF({self.p})")


class GF:
    """A concrete small field with precomputed operation tables."""

    def __init__(self, q: int):
        p, k = _factor_order(q)
        modulus = (0, 1) if k == 1 else _DEFAULT_MODULI.get((p, k))
        if modulus is None:
            raise FieldError(f"no default modulus for GF({p}^{k})")
        self.spec = FieldSpec(p, k, modulus)
        self.p, self.k, self.q = p, k, q
        self._build_tables()

    # -- encoding -----------------------------------------------------

    def vec(self, a: int) -> tuple[int, ...]:
        """Coefficient vector of element a, length k, base-p digits."""
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def unvec(self, coeffs) -> int:
        a = 0
        for c in reversed(list(coeffs)):
            a = a * self.p + (c % self.p)
        return a

    def _build_tables(self):
        p, k, q = self.p, self.k, self.q
        mod = self.spec.modulus
        mul = [[0] * q for _ in range(q)]
        for a in range(q):
            va = self.vec(a)
            for b in range(a, q):
                vb = self.vec(b)
                prod = _poly_mul_mod_p(list(va), list(vb), p)
                _, rem = _poly_divmod(prod, list(mod), p)
                rem += [0] * (k - len(rem))
                v = self.unvec(rem)
                mul[a][b] = mul[b][a] = v
        self._mul = mul
        self._add = [
            [self.unvec((x + y) % p for x, y in zip(self.vec(a), self.vec(b)))
             for b in range(q)]
            for a in range(q)
        ]
        self._neg = [self._add[a].index(0) for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            inv[a] = mul[a].index(1)
        self._inv = inv

    # -- operations ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("zero has no inverse")
        return self._inv[a]

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            a, n = self.inv(a), -n
        out = 1
        while n:
            if n & 1:
                out = self._mul[out][a]
            a = self._mul[a][a]
            n >>= 1
        return out

    def frobenius(self, a: int, e: int = 1) -> int:
        """a ** (p**e); for k = 2e this is the conjugation used by Hermitian forms."""
        return self.pow(a, self.p ** (e % self.k if self.k else 1))

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The add, mul and neg tables as uint8 arrays, for whole-array arithmetic."""
        return tuple(np.array(t, dtype=np.uint8) for t in (self._add, self._mul, self._neg))

    @property
    def elements(self) -> range:
        return range(self.q)

    def subfield_elements(self, q0: int) -> list[int]:
        """Elements fixed by x -> x^q0, i.e. the copy of GF(q0) inside this field."""
        p0, k0 = _factor_order(q0)
        if p0 != self.p or self.k % k0:
            raise FieldError(f"GF({q0}) is not a subfield of GF({self.q})")
        return [a for a in range(self.q) if self.pow(a, q0) == a]

    def __repr__(self):
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def field(q: int) -> GF:
    """Shared field instances for the fixed default moduli."""
    return GF(q)
