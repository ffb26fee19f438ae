"""Exact arithmetic in the cyclotomic integer rings Z[zeta_q].

Elements live on the power basis 1, zeta, ..., zeta^(phi(q)-1) and are kept
reduced modulo the q-th cyclotomic polynomial, so structural equality is ring
equality and no tolerance is ever involved. Root orders 1, 2, 3, 4 and 6 are
the ones the catalog exercises; any q whose cyclotomic polynomial can be
computed works.
"""

from __future__ import annotations

import math
from functools import lru_cache


class OrderMismatchError(ValueError):
    """Two cyclotomic integers of different root orders were combined."""


def _prime_factors(q: int) -> list[int]:
    # Distinct primes dividing q, ascending, by trial division; each factor
    # found is divided out, so the loop stops at the square root of what is
    # left.
    out, f = [], 2
    while f * f <= q:
        if q % f == 0:
            out.append(f)
            while q % f == 0:
                q //= f
        f += 1
    return out + [q] if q > 1 else out


def euler_phi(q: int) -> int:
    """Number of units mod q, from the product formula over primes dividing q."""
    if q < 1:
        raise ValueError("root order must be positive")
    phi = q
    for f in _prime_factors(q):
        phi = phi // f * (f - 1)
    return phi


@lru_cache(maxsize=None)
def cyclotomic_coeffs(q: int) -> tuple[int, ...]:
    """Coefficients (degree 0 upward) of the q-th cyclotomic polynomial.

    With r the product of the distinct primes of q, Phi_q(x) = Phi_r(x^(q/r)),
    and for r > 1 Phi_r is the product of (1 - x^(r/s))^mu(s) over the
    divisors s of r. Each factor is one pass over the power series of Phi_r
    truncated above its degree phi(r), where factors of higher degree are 1;
    for r = 1 the single factor is x - 1 = -(1 - x).
    """
    if q < 1:
        raise ValueError("root order must be positive")
    primes = _prime_factors(q)
    r = math.prod(primes)
    deg = euler_phi(r)
    c = [1 if primes else -1] + [0] * deg
    for subset in range(1 << len(primes)):
        d = r // math.prod(p for i, p in enumerate(primes) if subset >> i & 1)
        if d > deg:
            continue
        if subset.bit_count() % 2:  # divide by 1 - x^d: a running sum
            for i in range(d, deg + 1):
                c[i] += c[i - d]
        else:  # multiply by 1 - x^d
            c[d:] = [a - b for a, b in zip(c[d:], c)]
    spread = [0] * (deg * (q // r) + 1)
    spread[::q // r] = c
    return tuple(spread)


def _reduce(q: int, coeffs) -> tuple[int, ...]:
    phi_poly = cyclotomic_coeffs(q)
    deg = len(phi_poly) - 1
    c = list(coeffs)
    if len(c) < deg:
        c += [0] * (deg - len(c))
    for i in range(len(c) - 1, deg - 1, -1):
        t = c[i]
        if t:
            c[i] = 0
            for j in range(deg):
                c[i - deg + j] -= t * phi_poly[j]
    return tuple(c[:deg])


class CycInt:
    """An element of Z[zeta_q] in canonical reduced form."""

    __slots__ = ("_q", "_coeffs")

    def __init__(self, q: int, coeffs) -> None:
        if q < 1:
            raise ValueError("root order must be positive")
        self._q = q
        self._coeffs = _reduce(q, coeffs)

    @classmethod
    def from_int(cls, q: int, value: int) -> CycInt:
        return cls(q, [value])

    @classmethod
    def zeta(cls, q: int, power: int = 1) -> CycInt:
        vec = [0] * q
        vec[power % q] = 1
        return cls(q, vec)

    @property
    def q(self) -> int:
        return self._q

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    def _coerce(self, other: int | CycInt) -> CycInt:
        if isinstance(other, int):
            return CycInt.from_int(self._q, other)
        if isinstance(other, CycInt):
            if other._q != self._q:
                raise OrderMismatchError(
                    f"root orders differ: {self._q} vs {other._q}"
                )
            return other
        return NotImplemented

    def __add__(self, other: int | CycInt) -> CycInt:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycInt(self._q, [a + b for a, b in zip(self._coeffs, other._coeffs)])

    __radd__ = __add__

    def __sub__(self, other: int | CycInt) -> CycInt:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycInt(self._q, [a - b for a, b in zip(self._coeffs, other._coeffs)])

    def __rsub__(self, other: int | CycInt) -> CycInt:
        return (-self) + other

    def __neg__(self) -> CycInt:
        return CycInt(self._q, [-a for a in self._coeffs])

    def __mul__(self, other: int | CycInt) -> CycInt:
        if isinstance(other, int):
            return CycInt(self._q, [a * other for a in self._coeffs])
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        prod = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        return CycInt(self._q, prod)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> CycInt:
        if exponent < 0:
            raise ValueError("negative powers are not defined in the ring")
        out = CycInt.from_int(self._q, 1)
        for _ in range(exponent):
            out = out * self
        return out

    def conjugate(self) -> CycInt:
        """Complex conjugation, zeta -> zeta^(q-1), extended ring-linearly."""
        vec = [0] * self._q
        for k, c in enumerate(self._coeffs):
            vec[(-k) % self._q] += c
        return CycInt(self._q, vec)

    def embed(self) -> complex:
        """Numeric image under zeta -> exp(2*pi*i/q)."""
        out = 0j
        for k, c in enumerate(self._coeffs):
            if c:
                angle = 2.0 * math.pi * k / self._q
                out += c * complex(math.cos(angle), math.sin(angle))
        return out

    def to_order(self, q2: int) -> CycInt:
        """Re-express in Z[zeta_q2] for a multiple q2 of q (zeta_q = zeta_q2^(q2/q))."""
        if q2 % self._q:
            raise OrderMismatchError(f"{self._q} does not divide {q2}")
        if q2 == self._q:
            return self
        m = q2 // self._q
        vec = [0] * q2
        for k, c in enumerate(self._coeffs):
            vec[k * m] += c
        return CycInt(q2, vec)

    def __bool__(self) -> bool:
        return any(self._coeffs)

    def _is_rational(self) -> bool:
        return not any(self._coeffs[1:])

    def __eq__(self, other: object) -> bool:
        # Across root orders only rational integers compare equal, which keeps
        # equality transitive through the ints that equal them.
        if isinstance(other, int):
            return self._is_rational() and self._coeffs[0] == other
        if isinstance(other, CycInt):
            if self._q == other._q:
                return self._coeffs == other._coeffs
            return self._is_rational() and other._is_rational() \
                and self._coeffs[0] == other._coeffs[0]
        return NotImplemented

    def __hash__(self) -> int:
        # Integers compare equal to CycInt elements, so they must hash alike.
        if self._is_rational():
            return hash(self._coeffs[0])
        return hash((self._q, self._coeffs))

    def __repr__(self) -> str:
        return f"CycInt({self._q}, {list(self._coeffs)})"

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self._coeffs):
            if not c:
                continue
            if k == 0:
                terms.append(f"{c}")
            else:
                mono = "z" if k == 1 else f"z^{k}"
                if c == 1:
                    terms.append(f"+{mono}")
                elif c == -1:
                    terms.append(f"-{mono}")
                else:
                    terms.append(f"{c:+}*{mono}")
        if not terms:
            return "0"
        out = "".join(terms)
        return out[1:] if out.startswith("+") else out
