import cmath
import math
import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadamard6 import cyclo
from hadamard6.cyclo import (
    CycInt,
    OrderMismatchError,
    _is_prime,
    _prime_factors,
    _reduce,
    cyclotomic_coeffs,
    euler_phi,
)

W = CycInt.zeta(3)
I4 = CycInt.zeta(4)


def test_cyclotomic_polynomials():
    assert cyclotomic_coeffs(1) == (-1, 1)
    assert cyclotomic_coeffs(2) == (1, 1)
    assert cyclotomic_coeffs(3) == (1, 1, 1)
    assert cyclotomic_coeffs(4) == (1, 0, 1)
    assert cyclotomic_coeffs(6) == (1, -1, 1)
    assert cyclotomic_coeffs(12) == (1, 0, -1, 0, 1)


def _divisor_recursion(q):
    # The former construction, kept as a reference: x^q - 1 divided by Phi_d
    # for every proper divisor d, by long division of integer polynomials.
    poly = [-1] + [0] * (q - 1) + [1]
    for d in range(1, q):
        if q % d == 0:
            den = list(cyclotomic_coeffs(d))
            dn = len(den) - 1
            quot = [0] * (len(poly) - dn)
            for i in range(len(poly) - 1, dn - 1, -1):
                c = poly[i]
                if c:
                    quot[i - dn] = c
                    for j, v in enumerate(den):
                        poly[i - dn + j] -= c * v
            assert not any(poly[:dn])
            poly = quot
    return tuple(poly)


def test_cyclotomic_matches_divisor_recursion():
    for q in range(1, 401):
        assert cyclotomic_coeffs(q) == _divisor_recursion(q), q
    with pytest.raises(ValueError, match="root order must be positive"):
        cyclotomic_coeffs(0)


@pytest.mark.parametrize("q", [2310, 5040, 10**6])
def test_cyclotomic_matches_sympy(q):
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    ref = sympy.Poly(sympy.cyclotomic_poly(q, x), x)
    coeffs = cyclotomic_coeffs(q)
    assert len(coeffs) == euler_phi(q) + 1 == ref.degree() + 1
    assert {i: c for i, c in enumerate(coeffs) if c} == {k: int(c) for (k,), c in ref.terms()}


def _dense_reduce(q, coeffs):
    # The former reduction, kept as the reference: long division by the dense
    # coefficients of Phi_q, one pass of phi(q) per nonzero high coefficient.
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


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 30, 36, 105, 210, 2310])
def test_reduce_matches_dense_long_division(q):
    # Lengths 0..3q fall below, at and above phi(q); every length is tried up
    # to q = 36, and edge lengths plus a seeded sample beyond that.
    local = random.Random(q)
    phi = euler_phi(q)
    if q <= 36:
        lengths = range(3 * q + 1)
    else:
        edges = {0, 1, phi - 1, phi, phi + 1, 2 * phi - 1, q, 3 * q}
        lengths = sorted(edges | {local.randrange(3 * q + 1) for _ in range(2)})
    for length in lengths:
        full = [local.randint(-10 ** 6, 10 ** 6) for _ in range(length)]
        sparse = [0] * length
        for _ in range(3):
            if length:
                sparse[local.randrange(length)] = local.randint(-10 ** 6, 10 ** 6)
        for v in (full, sparse):
            assert _reduce(q, v) == _dense_reduce(q, v), (q, length, v)


def test_euler_phi():
    assert [euler_phi(q) for q in (1, 2, 3, 4, 6, 12)] == [1, 1, 2, 2, 2, 4]


def test_root_order_is_factored_once(monkeypatch):
    # phi, the reduction modulo Phi_q and the prime ideals all read the
    # cached _binomials, so one order is factored once however it is used.
    calls = []

    def counting(q):
        calls.append(q)
        return _prime_factors(q)

    cyclo._binomials.cache_clear()
    monkeypatch.setattr(cyclo, "_prime_factors", counting)
    q = 707
    assert euler_phi(q) == 600
    CycInt(q, [1, 2, 3])
    assert euler_phi(q) == 600
    assert len(list(islice(cyclo._prime_ideals(q), 2))) == 2
    assert calls == [q]


def test_euler_phi_matches_gcd_count():
    for q in range(1, 501):
        assert euler_phi(q) == sum(1 for k in range(1, q + 1) if math.gcd(k, q) == 1), q
    # Trial division stops once the factors found leave 1, so large smooth
    # orders return at once; a count over all q residues would never finish.
    assert euler_phi(2 ** 61) == 2 ** 60
    assert euler_phi(6 ** 20) == 6 ** 20 // 3
    # Factoring stops once what is left is a proven prime, so prime orders
    # and a prime times a small part return at once too.
    assert euler_phi(2 ** 62 - 57) == 2 ** 62 - 58
    assert euler_phi(10 ** 14 + 31) == 10 ** 14 + 30
    assert euler_phi(2 * (2 ** 61 - 1)) == 2 ** 61 - 2
    with pytest.raises(ValueError, match="root order must be positive"):
        euler_phi(0)


# A014233: psi_k, the least odd composite that is a strong probable prime to
# each of the first k primes as bases, k = 1..13.
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
       3825123056546413051, 318665857834031151167461, 3317044064679887385961981)


def test_miller_rabin_bound_is_psi_13(monkeypatch):
    # Each psi_k passes the first k bases, so the bound of the thirteen bases
    # is psi_13 and no more.
    assert len(cyclo._MR_BASES) == 13 and cyclo._MR_BOUND == PSI[-1]
    for k, psi in enumerate(PSI, 1):
        monkeypatch.setattr(cyclo, "_MR_BASES", cyclo._MR_BASES[:k])
        assert _is_prime(psi), k


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    local = random.Random(21)
    values = [local.randrange(2 ** 64) for _ in range(2000)]
    values += [local.randrange(2 ** 63) | 1 for _ in range(2000)]
    values += [sympy.nextprime(local.randrange(2 ** 64)) for _ in range(200)]
    values += [sympy.nextprime(local.randrange(2 ** 32)) * sympy.nextprime(local.randrange(2 ** 32))
               for _ in range(200)]
    values += PSI[:-1]
    for n in values:
        assert _is_prime(n) == sympy.isprime(n), n


def test_prime_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    local = random.Random(22)
    for n in [local.randint(1, 10 ** 9) for _ in range(3000)]:
        assert _prime_factors(n) == sympy.primefactors(n), n


def test_prime_factors_test_primality_only_below_the_bound(monkeypatch):
    seen = []

    def spy(p):
        seen.append(p)
        return _is_prime(p)

    monkeypatch.setattr(cyclo, "_is_prime", spy)
    assert _prime_factors(3 * 2 ** 90) == [2, 3]
    assert _prime_factors(5 ** 40 * (2 ** 61 - 1)) == [5, 2 ** 61 - 1]
    assert _prime_factors(2 ** 62 - 57) == [2 ** 62 - 57]
    assert seen and max(seen) < cyclo._MR_BOUND


def test_coeff_length_matches_phi():
    for q in (1, 2, 3, 4, 6, 12):
        assert len(CycInt.zeta(q).coeffs) == euler_phi(q)


def test_ring_op_examples():
    assert W * (W * W) == 1
    assert CycInt.from_int(3, 1) + W + W * W == 0
    assert (1 + W) * (1 + W) == W


def test_coefficients_are_exact_python_ints():
    # numpy integers become Python ints, so sums and products cannot wrap at
    # 64 bits; floats are refused.
    np = pytest.importorskip("numpy")
    big = CycInt.from_int(3, np.int64(2 ** 62))
    assert (big + big).coeffs == (2 ** 63, 0)
    assert all(type(c) is int for c in big.coeffs)
    assert (CycInt(3, np.array([2 ** 40, 1])) ** 2).coeffs == (2 ** 80 - 1, 2 ** 41 - 1)
    with pytest.raises(TypeError):
        CycInt(3, [0.5, 1.5])


def _schoolbook(a, b):
    # The former product, kept as the reference: a double loop over the
    # coefficients, reduced modulo Phi_q by the constructor.
    prod = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ai in enumerate(a.coeffs):
        if ai:
            for j, bj in enumerate(b.coeffs):
                prod[i + j] += ai * bj
    return CycInt(a.q, prod)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 6, 12, 30, 210, 2310])
def test_product_matches_schoolbook(q):
    # Coefficients up to 2^70 in absolute value, and the all-2^70 element,
    # whose square has a digit at the width bound of group_ring_mul.
    local = random.Random(q)
    phi = euler_phi(q)
    top = 2 ** 70
    sparse = [0] * phi
    for _ in range(3):
        sparse[local.randrange(phi)] = local.randint(-top, top)
    elems = [CycInt.from_int(q, 0), CycInt.zeta(q, local.randrange(q)), CycInt(q, sparse),
             CycInt(q, [local.choice((-1, 1)) for _ in range(phi)]),
             CycInt(q, [local.randint(-top, top) for _ in range(phi)]),
             CycInt(q, [top] * phi), CycInt(q, [-top] * phi)]
    for a in elems:
        for b in elems:
            assert a * b == _schoolbook(a, b), (q, a, b)
        for k in (0, 1, -3, top):
            assert a * k == k * a == _schoolbook(CycInt.from_int(q, k), a), (q, a, k)
        power = CycInt.from_int(q, 1)
        for exponent in range(4):
            assert a ** exponent == power, (q, a, exponent)
            power = _schoolbook(power, a)
    # Square and multiply against one product per unit of the exponent, on
    # the elements whose powers stay short: 0 and zeta^k to 1000, the +-1
    # vector to 37.
    for a, last in ((elems[0], 1000), (elems[1], 1000), (elems[3], 37)):
        power = CycInt.from_int(q, 1)
        for exponent in range(last + 1):
            if exponent in (37, 1000):
                assert a ** exponent == power, (q, a, exponent)
            power = power * a


def test_power_by_squaring():
    assert CycInt.zeta(7) ** 10 ** 18 == CycInt.zeta(7, 10 ** 18 % 7)
    with pytest.raises(ValueError):
        CycInt.zeta(7) ** -1


def test_conjugate_examples():
    assert W.conjugate() == W * W
    assert I4.conjugate() == -I4
    assert (2 + W).conjugate() == 1 - W


def test_conjugate_cube_root_relation():
    # zeta_3^2 is stored through the relation 1 + zeta + zeta^2 = 0
    assert (W * W).coeffs == (-1, -1)
    assert (I4 * I4).coeffs == (-1, 0)


def test_embed_examples():
    w = W.embed()
    assert abs(w - complex(-0.5, math.sqrt(3) / 2)) < 1e-15
    assert CycInt.from_int(3, 1).embed() == 1
    v = (2 * (W - 1)).embed()
    assert abs(v - complex(-3.0, math.sqrt(3))) < 1e-14
    assert abs(abs(CycInt.zeta(12, 5).embed()) - 1.0) < 1e-15


def test_zeta_wraps():
    assert CycInt.zeta(3, 5) == CycInt.zeta(3, 2)
    assert CycInt.zeta(4, 2) == -1


@pytest.mark.parametrize("q", [0, -1, -3])
def test_zeta_rejects_non_positive_orders(q):
    with pytest.raises(ValueError, match="root order must be positive"):
        CycInt.zeta(q)
    with pytest.raises(ValueError, match="root order must be positive"):
        CycInt(q, [1])


def test_order_mismatch():
    with pytest.raises(OrderMismatchError):
        W + I4
    with pytest.raises(OrderMismatchError):
        W * I4


def test_to_order():
    w6 = W.to_order(6)
    assert w6.q == 6
    assert abs(w6.embed() - W.embed()) < 1e-15
    assert (W + 2).to_order(12).conjugate() == (W.conjugate() + 2).to_order(12)
    with pytest.raises(OrderMismatchError):
        W.to_order(4)
    for q2 in (0, -3):
        with pytest.raises(OrderMismatchError):
            CycInt(3, [1, 1]).to_order(q2)


def test_str_and_repr():
    assert str(CycInt(3, [0, 0])) == "0"
    assert str(CycInt(3, [1, -1])) == "1-z"
    assert "CycInt(3" in repr(W)


def _cyc(q, coeffs):
    return CycInt(q, coeffs)


cyc_triples = st.sampled_from([1, 2, 3, 4, 6, 12]).flatmap(
    lambda q: st.tuples(
        *[st.lists(st.integers(-9, 9), min_size=1, max_size=q).map(
            lambda cs, q=q: _cyc(q, cs)) for _ in range(3)]
    )
)


@settings(max_examples=1000, deadline=None)
@given(cyc_triples)
def test_ring_axioms(triple):
    a, b, c = triple
    zero = CycInt.from_int(a.q, 0)
    one = CycInt.from_int(a.q, 1)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a
    assert a * one == a
    assert a + (-a) == zero
    assert a - b == a + (-b)


@settings(max_examples=300, deadline=None)
@given(cyc_triples)
def test_canonical_reduction_idempotent(triple):
    a, b, _ = triple
    for r in (a + b, a * b, -a):
        assert CycInt(r.q, r.coeffs) == r


@settings(max_examples=300, deadline=None)
@given(cyc_triples)
def test_conjugation_is_a_ring_involution(triple):
    a, b, _ = triple
    assert a.conjugate().conjugate() == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@settings(max_examples=300, deadline=None)
@given(cyc_triples)
def test_embed_is_a_homomorphism(triple):
    a, b, _ = triple
    assert abs((a + b).embed() - (a.embed() + b.embed())) < 1e-12
    assert abs((a * b).embed() - a.embed() * b.embed()) < 1e-9


@settings(max_examples=300, deadline=None)
@given(cyc_triples)
def test_norm_is_nonnegative_real(triple):
    a, _, _ = triple
    v = (a * a.conjugate()).embed()
    assert abs(v.imag) < 1e-9
    assert v.real > -1e-9


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 6, 12]), st.integers(-10**20, 10**20))
def test_integer_elements_hash_like_ints(q, value):
    a = CycInt.from_int(q, value)
    assert a == value and hash(a) == hash(value)
    assert len({a, value}) == 1


def test_equality_across_orders_is_transitive():
    a, b = CycInt.from_int(3, 1), CycInt.from_int(4, 1)
    assert a == b and hash(a) == hash(b)
    assert len({1, a, b}) == len({a, b, 1}) == len({b, 1, a}) == 1
    z3, z6 = CycInt.zeta(3), CycInt.zeta(6, 2)
    assert z3 != z6 and z3.to_order(6) == z6
    assert len({z3, z6, 1, a}) == 3


def test_conjugate_matches_complex_conjugate():
    for q in (3, 4, 6):
        a = CycInt(q, [2, -3])
        assert abs(a.conjugate().embed() - a.embed().conjugate()) < 1e-14
