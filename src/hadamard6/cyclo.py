"""Exact arithmetic in the cyclotomic integer rings Z[zeta_q].

Elements live on the power basis 1, zeta, ..., zeta^(phi(q)-1) and are kept
reduced modulo the q-th cyclotomic polynomial, so structural equality is ring
equality and no tolerance is ever involved. Root orders 1, 2, 3, 4 and 6 are
the ones the catalog exercises; any q works. Phi_q is never held densely: it
is the product of the binomials (1 - x^(q/d))^mu(d) over the squarefree
divisors d of q, and multiplying a vector by Phi_q or by its inverse power
series is one pass per binomial. Reducing a vector costs at most 2^omega(q)
passes over its part at or above degree phi(q) and as many over the part
below, omega(q) being the number of distinct primes of q.

Products are taken in the group ring Z[x]/(x^q - 1), packed into Python
integers (Kronecker substitution): the vector (c_0, ..., c_(q-1)) becomes
sum_i c_i X^i with X = 2^B, an element of Z/(2^(Bq) - 1), the image of
Z[x]/(x^q - 1) under x -> X. Multiplying a term by zeta^e shifts it left by Be
bits, and the fold (v & M) + (v >> Bq) with M = 2^(Bq) - 1 carries the
overflow past bit Bq round to the bottom (X^q = 2^(Bq) = 1 mod M). So a sum of
shifted terms is one integer sum and one fold, and a product is one integer
product, folded. Values are kept signed, the fold acting on |v|, so sparse
elements stay short: the nonnegative residue M - v of a negative value is Bq
bits wide whatever v is. Kept that way, the Berkowitz kernel of invariants
took 891 ms instead of 2.8 ms on a 6 x 6 grid at q = 30030 whose exponents are
all 0 but one, which is 1, and 16.7 ms instead of 5.9 ms on a random 6 x 6
grid at q = 2310 (2-core x86-64, Python 3.11). The map is a ring
homomorphism, so intermediate values need no bound; only the result must
decode. If no digit of it exceeds a known bound in absolute value,
B = 8 ceil((bitlen(bound) + 2)/8) keeps every digit below X/4; the balanced
residue of the result is then sum_i c_i X^i, and its digits are read from
the bytes in linear time. CycInt multiplies by one such product, its second
factor padded with zeros so that nothing wraps, and reduces the result
modulo Phi_q. The second user is invariants.row_keys: at q <= n^2 the pair
multiset of two rows with differences d is the product of sum_j X^d_j and
sum_j X^-d_j, folded once; its digits are nonnegative counts, at most n^4
in any sum of keys, so the folded integer is itself the canonical image and
two keys are equal exactly when their multisets are.

The arithmetic of Z behind these rings lives here too. Primality is
Miller-Rabin with the thirteen primes 2..41 as bases, which is a proof below
psi_13 = 3317044064679887385961981 (Sorenson & Webster 2017). Factoring q is
trial division that stops as soon as what is left of q is 1 or a prime below
that bound; it is tested once before the loop and once after each prime
divided out, so a prime q, or a prime times a smooth part, costs about as
much as that smooth part. A root order is checked (q >= 1) and factored
once, in the cached _binomials; euler_phi, the prime ideals and the
reduction modulo Phi_q all read its phi(q), primes and binomial factors.
The degree-one prime ideals of Z[zeta_q] are the pairs (p, z) with
p = 1 (mod q) prime and z of order q in F_p, zeta -> z mod p; the defect of
invariants is computed modulo them.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import chain, count
from operator import index, sub


class OrderMismatchError(ValueError):
    """Two cyclotomic integers of different root orders were combined."""


# Miller-Rabin with the first thirteen primes as bases is a proof below psi_13
# (Sorenson & Webster 2017). Without 41 it is one only below psi_12 =
# 318665857834031151167461, a composite that bases 2..37 pass.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981  # psi_13

# The prime ideals are searched downward from here, so each one adds about
# 62 bits to the norm product of the certificate.
_PRIME_CEILING = 1 << 62


def _is_prime(p: int) -> bool:
    # Strong probable prime to every base in _MR_BASES: a proof for p < _MR_BOUND.
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _prime_factors(q: int) -> list[int]:
    # Distinct primes dividing q, ascending, by trial division; each factor
    # found is divided out, so the loop stops at the square root of what is
    # left, or as soon as what is left is a proven prime.
    out, f = [], 2
    done = q < _MR_BOUND and _is_prime(q)
    while not done and f * f <= q:
        if q % f == 0:
            out.append(f)
            while q % f == 0:
                q //= f
            done = q < _MR_BOUND and _is_prime(q)
        f += 1
    return out + [q] if q > 1 else out


def euler_phi(q: int) -> int:
    """Number of units mod q, from the product formula over primes dividing q."""
    return _binomials(q)[0]


def _prime_ideals(q: int):
    """Degree-one prime ideals of Z[zeta_q], as (p, z) with zeta -> z mod p.

    p runs over primes = 1 (mod q) downward from _PRIME_CEILING (upward past
    it if those run out), and z over g^k for one g of order q in F_p and every
    unit k mod q; each pair is a distinct prime ideal of norm p.
    """
    primes = _binomials(q)[1]
    top = (_PRIME_CEILING - 1) // q
    for k in chain(range(top, 0, -1), count(top + 1)):
        p = k * q + 1
        if not _is_prime(p):
            continue
        powers = (pow(c, (p - 1) // q, p) for c in count(2))
        g = next(h for h in powers if all(pow(h, q // f, p) != 1 for f in primes))
        for unit in range(q):
            if math.gcd(unit, q) == 1:
                yield p, pow(g, unit, p)


@lru_cache(maxsize=None)
def _binomials(q: int) -> tuple[int, tuple[int, ...], tuple[tuple[int, int], ...]]:
    # The one place a root order is checked and factored: phi(q), the primes
    # of q, ascending, and the factors (q/d, mu(d)), ascending, over the
    # squarefree divisors d of q: Phi_q(x) is the product of
    # (1 - x^(q/d))^mu(d) for q > 1, and that product is 1 - x = -Phi_1(x)
    # for q = 1.
    if q < 1:
        raise ValueError("root order must be positive")
    primes = tuple(_prime_factors(q))
    divisors = [(1, 1)]  # (d, mu(d))
    for p in primes:
        divisors += [(d * p, -mu) for d, mu in divisors]
    phi = q // math.prod(primes) * math.prod(p - 1 for p in primes)
    return phi, primes, tuple(sorted((q // d, mu) for d, mu in divisors))


def _times_phi(factors, c: list, inverse: bool = False) -> None:
    # Multiply the power series c by the product of the binomial factors (by
    # its inverse if inverse), in place and truncated to len(c): one pass per
    # factor of degree below len(c), the factors being sorted by degree.
    for e, mu in factors:
        if e >= len(c):
            break
        if (mu > 0) != inverse:  # multiply by 1 - x^e
            c[e:] = map(sub, c[e:], c)
        else:  # divide by 1 - x^e: a running sum
            for i in range(e, len(c)):
                c[i] += c[i - e]


def cyclotomic_coeffs(q: int) -> tuple[int, ...]:
    """Coefficients (degree 0 upward) of the q-th cyclotomic polynomial.

    Phi_q is the product of (1 - x^(q/d))^mu(d) over the squarefree divisors
    d of q, for q > 1: starting from the power series 1, truncated above
    degree phi(q), each factor is one pass. For q = 1 the product is
    1 - x = -Phi_1.
    """
    deg, _, factors = _binomials(q)
    c = [1 if q > 1 else -1] + [0] * deg
    _times_phi(factors, c)
    return tuple(c)


def _reduce(q: int, coeffs) -> tuple[int, ...]:
    # Remainder of c modulo Phi_q. Phi_q is palindromic for q > 1, so the
    # quotient, read from its top coefficient down, is the reversed high part
    # of c divided by Phi_q as a power series; the remainder is c minus
    # quotient * Phi_q, of which only the terms below degree phi(q) are formed.
    deg, _, factors = _binomials(q)
    c = list(coeffs)
    if not any(c[deg:]):
        return tuple(c[:deg]) + (0,) * (deg - len(c))
    if q == 1:  # Phi_1 = x - 1 is not palindromic; the remainder is c(1)
        return (sum(c),)
    quot = c[:deg - 1:-1]
    _times_phi(factors, quot, inverse=True)
    low = quot[:-deg - 1:-1] + [0] * (deg - len(quot))
    _times_phi(factors, low)
    return tuple(map(sub, c[:deg], low))


def _width(bound: int) -> int:
    # Bytes per packed digit: |d| <= bound keeps d + X/2 in [1, X - 1], X = 2^(8w).
    return (bound.bit_length() + 9) // 8


def _pack(v: list[int], w: int) -> int:
    # The image sum_i v[i] X^i, X = 2^(8w), of an exponent-indexed vector.
    return sum(c << 8 * w * i for i, c in enumerate(v) if c)


def _fold(v: int, bits: int, mask: int) -> int:
    # v mod 2^bits - 1, kept signed and below 2^bits in absolute value.
    a = abs(v)
    while a >> bits:
        a = (a & mask) + (a >> bits)
    return a if v >= 0 else -a


_DIGIT_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}


def _unpack(v: int, q: int, w: int) -> list[int]:
    """The group-ring vector of length q whose image mod X^q - 1 is v, X = 2^(8w).

    Exact when every digit lies strictly between -X/2 and X/2: the balanced
    residue of v is then sum_i d_i X^i, and adding X/2 to every digit and
    flipping its top bit leaves the two's-complement bytes of d_i.
    """
    bits = 8 * w * q
    mask = (1 << bits) - 1
    v = _fold(v, bits, mask)
    if abs(v) > mask >> 1:
        v -= mask if v > 0 else -mask
    half = int.from_bytes((bytes(w - 1) + b"\x80") * q, "little")
    raw = ((v + half) ^ half).to_bytes(w * q, sys.byteorder)
    if w in _DIGIT_FORMATS:
        digits = memoryview(raw).cast(_DIGIT_FORMATS[w]).tolist()
    else:
        digits = [int.from_bytes(raw[i:i + w], sys.byteorder, signed=True)
                  for i in range(0, w * q, w)]
    return digits if sys.byteorder == "little" else digits[::-1]


def group_ring_mul(a: list[int], b: list[int]) -> list[int]:
    """Product in the group ring Z[x]/(x^q - 1), q = len(b), as one packed integer product."""
    if not b:
        return []
    w = _width(sum(map(abs, a)) * max(map(abs, b)))
    return _unpack(_pack(a, w) * _pack(b, w), len(b), w)


class CycInt:
    """An element of Z[zeta_q] in canonical reduced form."""

    __slots__ = ("_q", "_coeffs")

    def __init__(self, q: int, coeffs) -> None:
        self._q = q
        self._coeffs = _reduce(q, map(index, coeffs))

    @classmethod
    def from_int(cls, q: int, value: int) -> CycInt:
        return cls(q, [value])

    @classmethod
    def zeta(cls, q: int, power: int = 1) -> CycInt:
        if q < 1:  # before power % q, which fails or misleads for q <= 0
            raise ValueError("root order must be positive")
        return cls(q, [0] * (power % q) + [1])

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
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        # Zero padding to length 2 len(a) - 1 leaves the cyclic product nothing to wrap.
        return CycInt(self._q, group_ring_mul(a, b + (0,) * (len(a) - 1)))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> CycInt:
        if exponent < 0:
            raise ValueError("negative powers are not defined in the ring")
        out = CycInt.from_int(self._q, 1)
        for bit in bin(exponent)[2:]:  # square and multiply, top bit first
            out = out * out
            if bit == "1":
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
        if q2 < 1 or q2 % self._q:
            raise OrderMismatchError(f"{q2} is not a positive multiple of {self._q}")
        if q2 == self._q:
            return self
        m = q2 // self._q
        vec = [0] * ((len(self._coeffs) - 1) * m + 1)
        vec[::m] = self._coeffs
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
