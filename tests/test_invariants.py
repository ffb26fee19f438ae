import math
import random
import time
from collections import Counter
from itertools import chain, combinations, islice, permutations

import numpy as np
import pytest

from hadamard6 import catalog
from hadamard6.cyclo import CycInt, _is_prime, _pack, _prime_ideals, _unpack, group_ring_mul
from hadamard6.invariants import (
    CLOSED_FORM_A2A,
    REFERENCE_SPECTRA,
    REFERENCE_SPECTRAL_FUNCTIONS,
    CharPoly,
    ConvergenceError,
    _certify,
    _deformation_exponents,
    _haagerup_sum,
    _horner,
    _rank_mod,
    charpoly_exact,
    charpoly_group_ring,
    closed_form_A2a,
    defect,
    defect_certificate,
    deformation_system,
    eig_real_symmetric,
    haagerup_set,
    poly_eq,
    row_keys,
    scale,
    spectrum_distance,
    spectrum_numeric,
)
from hadamard6.matrices import ButsonMatrix, _divided_order, dephase, rephase, PhaseVector

rng = random.Random(4242)


def scaled(name):
    return charpoly_exact(catalog.get(name))


def fourier(n):
    return ButsonMatrix(n, [[i * j % n for j in range(n)] for i in range(n)])


def sylvester(k):
    n = 1 << k
    return ButsonMatrix(2, [[bin(i & j).count("1") % 2 for j in range(n)] for i in range(n)])


def random_standard_transform(b, r=rng):
    rp, cp = list(range(b.n)), list(range(b.n))
    r.shuffle(rp)
    r.shuffle(cp)
    left = PhaseVector(b.q, tuple(r.randrange(b.q) for _ in range(b.n)))
    right = PhaseVector(b.q, tuple(r.randrange(b.q) for _ in range(b.n)))
    return rephase(b.permuted(rp, cp), left, right)


# --- exact characteristic polynomials --------------------------------------

def test_charpoly_one_by_one():
    # [[1]] over q = 3 has own order 1, where every coefficient is an integer.
    p = charpoly_exact(ButsonMatrix(3, [[0]]))
    assert p.q == 1
    assert [tuple(c.coeffs) for c in p.e] == [(-1,), (1,)]  # x - 1


def test_charpoly_two_by_two_hand_value():
    # [[1, 1], [1, -1]] has det = -2 and trace 0, so det(xI - M) = x^2 - 2.
    p = charpoly_exact(ButsonMatrix(2, [[0, 0], [0, 1]]))
    assert [tuple(c.coeffs) for c in p.e] == [(-2,), (0,), (1,)]


def _perm_sign(perm):
    inversions = sum(
        1 for a in range(len(perm)) for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )
    return -1 if inversions & 1 else 1


def leibniz_charpoly(b):
    """Reference det(xI - B): the x^(n-k) coefficient is (-1)^k times the sum
    of the k x k principal minors, each expanded over all permutations."""
    n, q, e = b.n, b.q, b.exponents
    acc = [[0] * q for _ in range(n + 1)]  # acc[k][m]: zeta^m count in the k-minor sum
    acc[0][0] = 1
    for k in range(1, n + 1):
        for subset in combinations(range(n), k):
            for perm in permutations(range(k)):
                s = sum(e[subset[pos]][subset[perm[pos]]] for pos in range(k))
                acc[k][s % q] += _perm_sign(perm)
    return CharPoly(n, q, tuple(
        CycInt(q, [(-1) ** (n - d) * v for v in acc[n - d]]) for d in range(n + 1)))


def test_charpoly_matches_leibniz_on_catalog():
    for name in catalog.names():
        b = catalog.get(name)
        assert charpoly_exact(b) == leibniz_charpoly(b), name


def test_charpoly_matches_leibniz_on_random_grids():
    local = random.Random(1984)
    for q in (1, 2, 3, 4, 5, 6, 8, 12):
        for n in range(1, 8):
            b = ButsonMatrix(q, [[local.randrange(q) for _ in range(n)] for _ in range(n)])
            p = charpoly_exact(b)
            assert p.q == _divided_order(b).q, (q, b.exponents)
            assert poly_eq(p, leibniz_charpoly(b)), (q, b.exponents)


def _rotate(v, e):
    # v * zeta^e in Z[x]/(x^q - 1): a cyclic shift of the exponent-indexed vector.
    q = len(v)
    return v[q - e:] + v[:q - e]


def list_group_ring_mul(a, b):
    """Reference product in Z[x]/(x^q - 1), q = len(b), one rotated copy of b per term of a."""
    out = [0] * len(b)
    for i, ai in enumerate(a):
        if ai:
            out = [o + ai * r for o, r in zip(out, _rotate(b, i))]
    return out


def _dot(row, vecs, cols):
    out = [0] * len(vecs[0])
    for v, j in zip(vecs, cols):
        out = [o + r for o, r in zip(out, _rotate(v, row[j]))]
    return out


def list_charpoly_group_ring(q, e):
    """Reference Samuelson-Berkowitz loop on exponent-indexed lists of length q."""
    n = len(e)
    one = [1] + [0] * (q - 1)
    poly = [one]
    for k in range(n - 1, -1, -1):
        rest = range(k + 1, n)
        t = [one, [-c for c in _rotate(one, e[k][k])]]
        col = [_rotate(one, e[i][k]) for i in rest]
        for j in rest:
            if j > k + 1:
                col = [_dot(e[i], col, rest) for i in rest]
            t.append([-c for c in _dot(e[k], col, rest)])
        poly = [[sum(c) for c in zip(*(list_group_ring_mul(t[i - j], poly[j])
                                       for j in range(min(i, len(poly) - 1) + 1)))]
                for i in range(len(poly) + 1)]
    return poly[::-1]


def test_packed_group_ring_matches_list_loop_on_catalog():
    for name in catalog.names():
        b = catalog.get(name)
        assert charpoly_group_ring(b.q, b.exponents) == list_charpoly_group_ring(b.q, b.exponents), name
    a2 = catalog.get("A2").exponents
    assert charpoly_group_ring(13, a2) == list_charpoly_group_ring(13, a2)


def test_packed_group_ring_matches_list_loop_on_random_grids():
    local = random.Random(1882)
    for q in range(1, 31):
        for n in (local.randrange(1, 7), local.randrange(7, 10)):
            e = [[local.randrange(q) for _ in range(n)] for _ in range(n)]
            assert charpoly_group_ring(q, e) == list_charpoly_group_ring(q, e), (q, e)
    # Deeper blocks, as when spectrum runs H16 and F16.
    for q, n in ((2, 12), (3, 12), (4, 12), (2, 16)) * 3:
        e = [[local.randrange(q) for _ in range(n)] for _ in range(n)]
        assert charpoly_group_ring(q, e) == list_charpoly_group_ring(q, e), (q, e)


def test_packed_group_ring_stays_cheap_on_a_sparse_grid_at_order_30030():
    # Signed values keep a sparse element short. Nonnegative residues M - v
    # would make every negated element Bq bits wide, and this call about 0.9 s.
    e = [[0] * 6 for _ in range(6)]
    e[5][5] = 1
    start = time.process_time()
    out = charpoly_group_ring(30030, e)
    assert time.process_time() - start < 0.25
    assert out == list_charpoly_group_ring(30030, e)


def test_packed_group_ring_matches_list_loop_at_order_2310():
    local = random.Random(2310)
    e = [[local.randrange(2310) for _ in range(5)] for _ in range(5)]
    assert charpoly_group_ring(2310, e) == list_charpoly_group_ring(2310, e)


def test_group_ring_mul_matches_list_product():
    local = random.Random(1982)
    for q in (1, 2, 7, 13, 91):
        for bound in (1, 3, 1000, 1 << 70):
            a = [local.randint(-bound, bound) for _ in range(q)]
            b = [local.randint(-bound, bound) for _ in range(q)]
            assert group_ring_mul(a, b) == list_group_ring_mul(a, b), (q, bound)
    assert group_ring_mul([0, 0], [0, 0]) == [0, 0]
    assert group_ring_mul([1], []) == []


@pytest.mark.parametrize("w", [1, 2, 3, 4, 8, 9])
def test_pack_unpack_round_trip_at_extreme_digits(w):
    top = (1 << 8 * w - 1) - 1
    local = random.Random(w)
    for q in (1, 2, 5, 17):
        for digits in ([top] * q, [-top] * q, [local.choice((top, -top, 0)) for _ in range(q)]):
            v = _pack(digits, w)
            assert _unpack(v, q, w) == digits
            # Any representative of the residue decodes alike, of either sign.
            m = (1 << 8 * w * q) - 1
            assert _unpack(v + 3 * m, q, w) == _unpack(v - 2 * m, q, w) == digits


def test_charpoly_exact_runs_at_the_own_order():
    # F6 written over q = 30030 divides back to q = 6, and its polynomial stays there.
    f6 = catalog.get("F6")
    lifted = ButsonMatrix(30030, [[5005 * x for x in row] for row in f6.exponents])
    p = charpoly_exact(lifted)
    assert p.q == 6
    assert p == charpoly_exact(f6)
    big = charpoly_exact(ButsonMatrix(10 ** 6, [[0, 0], [0, 500000]]))
    assert big.q == 2 and big.e == (-2, 0, 1)  # x^2 - 2


def test_charpoly_matches_sympy_beyond_dimension_eight():
    sympy = pytest.importorskip("sympy")
    z, x = sympy.symbols("z x")
    n, q = 9, 12
    local = random.Random(912)
    grid = [[local.randrange(q) for _ in range(n)] for _ in range(n)]
    ref = sympy.Matrix(n, n, lambda i, j: z ** grid[i][j]).charpoly(x)
    phi = sympy.cyclotomic_poly(q, z)
    width = phi.as_poly(z).degree()
    expected = []
    for c in reversed(ref.all_coeffs()):
        low = [int(v) for v in reversed(sympy.Poly(sympy.rem(c, phi, z), z).all_coeffs())]
        expected.append(tuple(low + [0] * (width - len(low))))
    got = charpoly_exact(ButsonMatrix(q, grid))
    assert [c.coeffs for c in got.e] == expected


def test_charpoly_is_monic():
    for name in ("A1", "M6", "F6"):
        assert charpoly_exact(catalog.get(name)).e[-1] == 1


def test_top_coefficient_is_minus_trace():
    # Independent hand oracle: e5 must equal the negated diagonal sum.
    for name in catalog.names():
        b = catalog.get(name)
        tr = CycInt.from_int(b.q, 0)
        for i in range(6):
            tr = tr + CycInt.zeta(b.q, b.entry(i, i))
        assert charpoly_exact(b).e[5] == -tr, name


def test_charpolys_match_reference_displays():
    for name, ref in REFERENCE_SPECTRAL_FUNCTIONS.items():
        assert poly_eq(scaled(name), ref), name


def test_variant_spectral_functions_pairwise_distinct():
    names = ["A10", "A20", "A30", "A40", "A50", "A60"]
    polys = [scaled(n) for n in names]
    for i in range(6):
        for j in range(i + 1, 6):
            assert not poly_eq(polys[i], polys[j]), (names[i], names[j])


def test_unit_diagonal_forms_share_integer_charpoly():
    expected = [(-216, 0), (216, 0), (-90, 0), (0, 0), (15, 0), (-6, 0), (1, 0)]
    for name in ("A1", "A2", "A3"):
        assert [tuple(c.coeffs) for c in scaled(name).e] == expected, name


def test_a1_charpoly_invariant_under_root_conjugation():
    assert poly_eq(scaled("A1"), charpoly_exact(catalog.get("A1").conjugated()))


def test_charpoly_permutation_conjugation_invariance():
    for base, count in (("A10", 50), ("M6", 50)):
        b = catalog.get(base)
        p = charpoly_exact(b)
        for _ in range(count):
            perm = list(range(6))
            rng.shuffle(perm)
            assert charpoly_exact(b.permuted(perm, perm)) == p


# --- scaling and comparison -------------------------------------------------

def test_scale_binomial_example():
    # (x - 1)^6: the x^5 coefficient of the scaled view is -6/sqrt(6).
    coeffs = [1, -6, 15, -20, 15, -6, 1]
    p = CharPoly(6, 3, tuple(CycInt.from_int(3, c) for c in coeffs))
    s = scale(p, 6)
    assert s is p
    assert s.e[5] == -6
    assert abs(s.complex_coeffs()[5] - (-6 / math.sqrt(6))) < 1e-15


def test_scale_m6_coefficient():
    s = scaled("M6")
    assert s.e[4] == -18
    assert abs(s.complex_coeffs()[4] - (-3.0)) < 1e-15


def test_scale_degree_mismatch():
    p = charpoly_exact(ButsonMatrix(3, [[0]]))
    with pytest.raises(ValueError):
        scale(p, 6)


def test_poly_eq_examples():
    assert poly_eq(scaled("A01"), scaled("A03"))
    assert not poly_eq(scaled("A01"), scaled("A02"))
    p = scaled("A10")
    assert poly_eq(p, p)


def test_poly_eq_across_root_orders():
    # (x^2 - 1)^3 written over the order-3 ring equals M6's order-4 polynomial.
    ints = [-216, 0, 108, 0, -18, 0, 1]
    other = CharPoly(6, 3, tuple(CycInt.from_int(3, c) for c in ints))
    assert poly_eq(other, scaled("M6"))
    assert not poly_eq(other, scaled("A10"))


def test_poly_eq_dimension_mismatch():
    p1 = charpoly_exact(ButsonMatrix(3, [[0]]))
    with pytest.raises(ValueError):
        poly_eq(p1, scaled("A10"))


def test_scaled_poly_requires_monic():
    one, two = CycInt.from_int(3, 1), CycInt.from_int(3, 2)
    with pytest.raises(ValueError):
        CharPoly(1, 3, (one, two))
    with pytest.raises(ValueError):
        CharPoly(2, 3, (two, one))  # one coefficient short of degree 2
    with pytest.raises(ValueError):
        CharPoly(1, 3, (CycInt(4, [0, 1]), CycInt(4, [1])))  # coefficients of order 4


# --- numeric spectra ---------------------------------------------------------

def test_spectrum_of_triple_roots():
    spec = spectrum_numeric(scaled("M6"))
    assert sorted(m for _, m in spec.pairs) == [3, 3]
    assert spectrum_distance(spec, REFERENCE_SPECTRA["M6"]) < 1e-12


def test_spectrum_m61_reference_values():
    spec = spectrum_numeric(scaled("M61"))
    assert spectrum_distance(spec, REFERENCE_SPECTRA["M61"]) < 1e-10
    assert sorted(m for _, m in spec.pairs) == [1, 1, 2, 2]


def test_spectrum_a1_reference_values():
    spec = spectrum_numeric(scaled("A1"))
    assert spectrum_distance(spec, REFERENCE_SPECTRA["A1"]) < 1e-10
    assert sorted(m for _, m in spec.pairs) == [1, 1, 2, 2]
    total = sum(v * m for v, m in spec.pairs)
    assert abs(total - math.sqrt(6)) < 1e-10  # trace/sqrt(6) of a unit diagonal


def test_spectrum_roots_satisfy_polynomial_and_are_unimodular():
    for name in catalog.names():
        p = scaled(name)
        spec = spectrum_numeric(p)
        assert spec.n == 6
        product = 1 + 0j
        for v in spec.values():
            assert abs(_horner(p.complex_coeffs(), v)) <= 1e-8
            assert abs(abs(v) - 1.0) <= 1e-8
            product *= v
        assert abs(abs(product) - 1.0) <= 1e-8


def test_spectrum_matches_lapack_eigenvalues():
    # Cross-check the polynomial-root path against an independent eigensolver.
    for name in ("A10", "A02", "M61"):
        b = catalog.get(name)
        spec = spectrum_numeric(charpoly_exact(b))
        ev = np.linalg.eigvals(b.to_complex() / math.sqrt(6))
        ref = [(complex(v), 1) for v in ev]
        assert spectrum_distance(spec, ref) < 1e-8


def test_spectrum_convergence_error_on_absurd_tolerance():
    with pytest.raises(ConvergenceError):
        spectrum_numeric(scaled("A10"), tol=1e-30)


def test_spectrum_rejects_nonpositive_tol():
    for tol in (0.0, -1e-8, math.nan, math.inf):
        with pytest.raises(ValueError):
            spectrum_numeric(scaled("A10"), tol=tol)


def test_spectrum_distance_requires_equal_size():
    spec = spectrum_numeric(scaled("M6"))
    with pytest.raises(ValueError):
        spectrum_distance(spec, [(1 + 0j, 1)])


@pytest.mark.xfail(
    strict=True, raises=(AssertionError, ConvergenceError),
    reason="roots are grouped within _CLUSTER_RADIUS = 1e-4, but an m-fold root "
           "stalls about eps^(1/m) away, more than that from m = 4 on")
@pytest.mark.parametrize("b, mults", [
    (sylvester(3), [4, 4]),
    (fourier(16), [3, 4, 4, 5]),
], ids=["H8", "F16"])
def test_spectrum_multiplicities_of_fourfold_roots(b, mults):
    # numpy.linalg.eigvals gives these multiplicities. Once multiplicities
    # come from an exact square-free decomposition this passes, and the
    # xfail marker must go.
    spec = spectrum_numeric(charpoly_exact(b))
    assert sorted(m for _, m in spec.pairs) == mults


# --- Haagerup fingerprint ----------------------------------------------------

def test_haagerup_matches_quadruple_loop_on_random_grids(haagerup_reference):
    r = random.Random(606)
    for q in (1, 2, 3, 5, 6, 8, 12, 1 << 62):
        for n in range(1, 8):
            b = ButsonMatrix(q, [[r.randrange(q) for _ in range(n)] for _ in range(n)])
            assert haagerup_set(b) == haagerup_reference(b), (q, n)


def test_row_keys_follow_the_row_permutation():
    # In D1 P1 B P2 D2 row i is row P1(i) of B, up to phases and a column
    # permutation, so it has that row's key.
    r = random.Random(17)
    grids = [catalog.get(name) for name in ("A1", "M6", "F6")]
    for q in (2, 3, 4, 6, 12, 1 << 62):
        grids += [ButsonMatrix(q, [[r.randrange(q) for _ in range(n)] for _ in range(n)])
                  for n in (4, 6, 7)]
    for b in grids:
        keys = row_keys(b)
        for _ in range(5):
            rp, cp = list(range(b.n)), list(range(b.n))
            r.shuffle(rp)
            r.shuffle(cp)
            left = PhaseVector(b.q, tuple(r.randrange(b.q) for _ in range(b.n)))
            right = PhaseVector(b.q, tuple(r.randrange(b.q) for _ in range(b.n)))
            moved = row_keys(rephase(b.permuted(rp, cp), left, right))
            assert moved == [keys[rp[i]] for i in range(b.n)], b


def row_keys_reference(b):
    """Brute-force oracle: row i's sorted list of the Counters of d_j - d_l
    mod q, d = e_i - e_k, one per other row k, each as sorted items."""
    e, n, q = b.exponents, b.n, b.q

    def multiset(i, k):
        d = [(x - y) % q for x, y in zip(e[i], e[k])]
        return tuple(sorted(Counter((dj - dl) % q for dj in d for dl in d).items()))

    return [sorted(multiset(i, k) for k in range(n) if k != i) for i in range(n)]


def test_row_keys_match_brute_force_oracle(haagerup_reference):
    # Packed keys (q <= n^2) and (value, count) keys (q > n^2) must sort
    # into the same equality classes as the oracle, within one grid and
    # across two, and so must their multisets and their Haagerup sums.
    r = random.Random(2323)

    def equal(keys):
        return [[x == y for y in keys] for x in keys]

    for n in range(1, 8):
        for q in sorted({1, 2, 3, n * n - 1, n * n, n * n + 1, 1 << 62} - {0}):
            for trial in range(4):
                x = ButsonMatrix(q, [[r.randrange(q) for _ in range(n)] for _ in range(n)])
                if trial == 0:
                    y = random_standard_transform(x, r)
                elif trial == 1:  # one entry changed: some rows keep their keys
                    rows = [list(row) for row in x.exponents]
                    rows[r.randrange(n)][r.randrange(n)] = r.randrange(q)
                    y = ButsonMatrix(q, rows)
                else:
                    y = ButsonMatrix(q, [[r.randrange(q) for _ in range(n)] for _ in range(n)])
                kx, ky = row_keys(x), row_keys(y)
                ox, oy = row_keys_reference(x), row_keys_reference(y)
                assert equal(kx + ky) == equal(ox + oy), (n, q)
                assert (sorted(kx) == sorted(ky)) == (sorted(ox) == sorted(oy)), (n, q)
                assert ((_haagerup_sum(n, q, kx) == _haagerup_sum(n, q, ky))
                        == (haagerup_reference(x) == haagerup_reference(y))), (n, q)


def test_haagerup_rank_one_pattern_is_trivial():
    r = [rng.randrange(3) for _ in range(6)]
    c = [rng.randrange(3) for _ in range(6)]
    b = ButsonMatrix(3, [[r[i] + c[j] for j in range(6)] for i in range(6)])
    assert haagerup_set(b) == Counter({0: 6 ** 4})


def test_haagerup_m6_equals_m61():
    assert haagerup_set(catalog.get("M6")) == haagerup_set(catalog.get("M61"))


def test_haagerup_separates_a1_from_f6():
    a1 = haagerup_set(catalog.get("A1").to_order(6))
    f6 = haagerup_set(catalog.get("F6"))
    assert a1 != f6
    assert sum(a1.values()) == sum(f6.values()) == 6 ** 4


def test_haagerup_invariant_under_standard_transforms():
    for base in ("A1", "M6"):
        b = catalog.get(base)
        h = haagerup_set(b)
        for _ in range(50):
            assert haagerup_set(random_standard_transform(b)) == h


# --- defect -------------------------------------------------------------------

def test_defect_values():
    assert defect(catalog.get("A1")) == 0
    assert defect(catalog.get("F6")) == 4


def test_defect_agrees_on_dephased_equivalent_pair():
    d6 = defect(dephase(catalog.get("M6"))[0])
    d61 = defect(dephase(catalog.get("M61"))[0])
    assert d6 == d61


def test_defect_invariant_under_standard_transforms():
    for _ in range(10):
        assert defect(random_standard_transform(catalog.get("A1"))) == 0


def test_defect_rejects_non_hadamard():
    with pytest.raises(ValueError):
        defect(ButsonMatrix(3, [[0] * 6 for _ in range(6)]))


def test_defect_of_one_by_one_is_zero():
    # No row pairs: an empty system, rank 0, and defect 1 - 0 - (2 - 1) = 0.
    b = ButsonMatrix(3, [[1]])
    assert deformation_system(b).shape == (0, 1)
    assert defect(b) == 0


def test_deformation_system_shape():
    m = deformation_system(catalog.get("A1"))
    assert m.shape == (30, 36)


def test_defect_rank_gap_is_clean():
    for name in ("A1", "F6"):
        s = np.linalg.svd(deformation_system(catalog.get(name)), compute_uv=False)
        ratios = s / s[0]
        assert all(r < 1e-8 or r > 1e-4 for r in ratios), name


def fourier_defect(n):
    return sum(math.gcd(i, n) for i in range(n)) - (2 * n - 1)


def svd_defect(b):
    # The float oracle: numpy's rank of the real n(n-1) x n^2 system.
    n = b.n
    return n * n - np.linalg.matrix_rank(deformation_system(b)) - (2 * n - 1)


def test_defect_of_fourier_matrices():
    for n in range(1, 13):
        assert defect(fourier(n)) == fourier_defect(n), n


def test_defect_of_random_equivalents_and_lifts():
    sources = [(name, catalog.get(name)) for name in catalog.names()]
    sources += [(f"F{n}", fourier(n)) for n in range(5, 9)]
    for name, b in sources:
        want = svd_defect(b)
        if name.startswith("F"):
            assert want == fourier_defect(b.n), name
        for lift in (1, 2):
            c = random_standard_transform(b.to_order(b.q * lift))
            assert defect(c) == want == svd_defect(c), (name, lift)


def test_defect_at_the_largest_order():
    # The 2x2 Hadamard matrix written over q = 2**62: the system is built at q = 2.
    h2 = ButsonMatrix(1 << 62, [[0, 0], [0, 1 << 61]])
    assert _deformation_exponents(h2) == (2, 2, [(0, 1, [1]), (1, 0, [1])])
    assert defect_certificate(h2) == defect_certificate(fourier(2))
    assert defect(h2) == 0


def test_rank_mod_drops_at_a_dividing_prime():
    rows = [[1, 2], [3, 1]]  # det -5
    assert _rank_mod(rows, 5) == 1
    assert _rank_mod(rows, 7) == 2
    assert _rank_mod([[0, 0], [0, 0]], 7) == 0
    assert _rank_mod([], 7) == 0


def test_certificate_does_not_accept_a_dropped_rank():
    # zeta -> 1 mod 3 is the prime ideal (1 - zeta) of norm 3 in Z[zeta_3];
    # zeta_6 -> 2 mod 3 the one above 3 in Z[zeta_6]. The rank drops there.
    for name, low, ideal in (("A1", 5, (3, 1)), ("F6", 9, (3, 2))):
        n, q, system = _deformation_exponents(catalog.get(name))
        with pytest.raises(ArithmeticError, match=f"rank {low} of 25 is not certified"):
            _certify(n, q, system, [ideal])
        cert = _certify(n, q, system, chain([ideal], _prime_ideals(q)))
        assert cert == defect_certificate(catalog.get(name))
        assert cert.rank > low


def test_prime_ideals_have_order_q():
    for q in (1, 2, 3, 4, 6, 12, 16):
        ideals = list(islice(_prime_ideals(q), 5))
        for p, z in ideals:
            assert p < 2 ** 62 and (p - 1) % q == 0
            assert pow(z, q, p) == 1
            assert all(pow(z, k, p) != 1 for k in range(1, q))
        assert len(set(ideals)) == len(ideals)


def test_is_prime_small_values():
    assert [p for p in range(60) if _is_prime(p)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not _is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5 and 7
    assert not _is_prime(318665857834031151167461)  # strong pseudoprime to bases 2..37


def test_defect_certificate_fields():
    a1 = defect_certificate(catalog.get("A1"))
    assert (a1.rank, a1.columns, a1.primes, a1.bound_bits, a1.defect) == (25, 25, 1, 0, 0)
    f6 = defect_certificate(catalog.get("F6"))
    # (2(n-1))^((r+1) phi(q)/2) = 10^22 < 2^74, and two ~62-bit primes pass it.
    assert (f6.rank, f6.columns, f6.primes, f6.bound_bits, f6.defect) == (21, 25, 2, 74, 4)


# --- real symmetric family -----------------------------------------------------

def test_jacobi_on_all_ones():
    eig = eig_real_symmetric(catalog.agaian_symmetric(1.0))
    assert max(abs(x) for x in eig[:-1]) < 1e-12
    assert abs(eig[-1] - 6.0) < 1e-12


def test_jacobi_a2_zero_hand_oracle():
    # A2(0) = I plus a ones border: eigenvalues 1 +- sqrt(5) and 1 (x4).
    eig = eig_real_symmetric(catalog.agaian_symmetric(0.0))
    expected = sorted([1 - math.sqrt(5), 1.0, 1.0, 1.0, 1.0, 1 + math.sqrt(5)])
    assert max(abs(a - b) for a, b in zip(eig, expected)) < 1e-12


def test_jacobi_identities_across_parameters():
    for a in (0.0, 0.5, 1.0, 2.0, 3.0, -1.7):
        m = catalog.agaian_symmetric(a)
        eig = eig_real_symmetric(m)
        assert abs(sum(eig) - np.trace(m)) < 1e-10
        assert abs(sum(x * x for x in eig) - np.sum(m * m)) < 1e-10


def test_jacobi_matches_exact_sympy_eigenvalues():
    # Independent oracle: sympy's exact eigenvalues of A2(a) at rational a,
    # each repeated by its multiplicity and evaluated to 30 digits.
    sympy = pytest.importorskip("sympy")
    for a in (sympy.Rational(1, 2), sympy.Integer(2), sympy.Rational(-17, 10)):
        values = (1, a, a * a)
        m = sympy.Matrix([[values[e] for e in row] for row in catalog.get("A2").exponents])
        want = []
        for ev, mult in m.eigenvals().items():
            z = complex(sympy.N(ev, 30))
            assert abs(z.imag) < 1e-20
            want += [z.real] * mult
        got = eig_real_symmetric(catalog.agaian_symmetric(float(a)))
        assert max(abs(g - w) for g, w in zip(got, sorted(want))) < 1e-10, a


def test_jacobi_rejects_asymmetric():
    m = np.eye(6)
    m[0, 1] = 1.0
    with pytest.raises(ValueError):
        eig_real_symmetric(m)


def test_jacobi_takes_nested_lists():
    got = eig_real_symmetric([[2, 1], [1, 2]])
    assert all(type(x) is float for x in got)
    assert abs(got[0] - 1.0) < 1e-14 and abs(got[1] - 3.0) < 1e-14


@pytest.mark.parametrize("m", [
    [[1.0, 2.0], [2.0]], [], [[]], np.zeros((0, 0)), [1.0, 2.0], np.ones((2, 3)),
    np.ones((2, 2, 2)),
], ids=["ragged", "empty", "empty-row", "empty-array", "1-D", "non-square", "3-D"])
def test_jacobi_rejects_non_square(m):
    with pytest.raises(ValueError, match="square"):
        eig_real_symmetric(m)


@pytest.mark.parametrize("m", [
    [[math.inf, 0.0], [0.0, 1.0]], [[1.0, math.inf], [math.inf, 1.0]],
    [[1.0, -math.inf], [-math.inf, 1.0]], [[math.nan, 0.0], [0.0, 1.0]],
], ids=["inf-diagonal", "inf-off-diagonal", "-inf", "nan"])
def test_jacobi_rejects_non_finite(m):
    with pytest.raises(ValueError, match="finite"):
        eig_real_symmetric(m)


def test_closed_form_special_values():
    rt6 = math.sqrt(6)
    at1 = sorted(closed_form_A2a(1.0))
    expected1 = sorted([(3 + math.sqrt(7)) / rt6, (3 - math.sqrt(7)) / rt6, 0, 0, 0, 0])
    assert max(abs(a - b) for a, b in zip(at1, expected1)) < 1e-14
    at0 = sorted(closed_form_A2a(0.0))
    expected0 = sorted([(1 + math.sqrt(5)) / rt6, (1 - math.sqrt(5)) / rt6]
                       + [1 / rt6] * 4)
    assert max(abs(a - b) for a, b in zip(at0, expected0)) < 1e-14


def test_closed_form_sum_matches_trace_for_random_parameters():
    # The formula's eigenvalue sum equals trace/sqrt(6) = sqrt(6) for every a,
    # even where individual values disagree with the eigensolver.
    for _ in range(50):
        a = rng.uniform(-5, 5)
        assert abs(sum(closed_form_A2a(a)) - math.sqrt(6)) < 1e-9


def test_closed_form_agrees_with_eigensolver_at_zero():
    eig = sorted(x / math.sqrt(6) for x in eig_real_symmetric(catalog.agaian_symmetric(0.0)))
    formula = sorted(closed_form_A2a(0.0))
    assert max(abs(a - b) for a, b in zip(eig, formula)) < 1e-12


def test_closed_form_disagrees_with_eigensolver_at_one():
    # Documented discrepancy: at a = 1 the matrix is the all-ones grid with
    # spectrum {6, 0^5}, while the formula's first pair is (3 +- sqrt(7))/sqrt(6).
    eig = sorted(x / math.sqrt(6) for x in eig_real_symmetric(catalog.agaian_symmetric(1.0)))
    formula = sorted(closed_form_A2a(1.0))
    assert max(abs(a - b) for a, b in zip(eig, formula)) > 1e-2


def test_closed_form_rejects_non_finite():
    with pytest.raises(ValueError):
        closed_form_A2a(float("inf"))


# --- exact references checked with sympy (tests only) -----------------------

def test_reference_multisets_multiply_out_to_integer_references():
    sympy = pytest.importorskip("sympy")
    x, i = sympy.symbols("x"), sympy.I
    rt2, rt3, rt5, rt6 = (sympy.sqrt(k) for k in (2, 3, 5, 6))
    published = {
        "M61": [-1, -1, 1, 1, (i - rt2) / rt3, -(i + rt2) / rt3],
        "A1": [-1, 1] + [(rt3 - i * rt5) / (2 * rt2)] * 2 + [(rt3 + i * rt5) / (2 * rt2)] * 2,
    }

    def key(v):
        return round(v.real, 9), v.imag

    for name, values in published.items():
        reference = sorted((v for v, m in REFERENCE_SPECTRA[name] for _ in range(m)), key=key)
        exact = sorted((complex(v) for v in values), key=key)
        assert exact == pytest.approx(reference, abs=1e-15)
        poly = sympy.Poly(sympy.expand(sympy.prod([x - rt6 * v for v in values])), x)
        expected = [int(c) for c in reversed(poly.all_coeffs())]
        assert [c.coeffs[0] for c in REFERENCE_SPECTRAL_FUNCTIONS[name].e] == expected, name
        assert all(not any(c.coeffs[1:]) for c in REFERENCE_SPECTRAL_FUNCTIONS[name].e)


def _a2a_sympy():
    sympy = pytest.importorskip("sympy")
    a, x = sympy.symbols("a x")
    grid = catalog.get("A2").exponents
    return sympy, a, x, sympy.Matrix(6, 6, lambda i, j: a ** grid[i][j]).charpoly(x).as_expr()


def _as_poly(rows, a, x):
    return sum(c * a ** j * x ** k for k, row in enumerate(rows) for j, c in enumerate(row))


def test_group_ring_charpoly_of_a2a_matches_sympy():
    # Entries a^e of degree <= 2: no coefficient reaches degree 13 in a, so
    # nothing wraps in Z[a]/(a^13 - 1).
    sympy, a, x, det = _a2a_sympy()
    got = _as_poly(charpoly_group_ring(13, catalog.get("A2").exponents), a, x)
    assert sympy.expand(got - det) == 0


def test_closed_form_table_expands_closed_form_a2a():
    sympy, a, x, det = _a2a_sympy()
    # closed_form_A2a's formula, each value times sqrt(6) (the scaled reading).
    s, t = 1 + a + a ** 2, 2 - a * (1 + a)
    r, u = sympy.sqrt(a ** 2 * (1 + a ** 2) + 5), sympy.sqrt(5 * a ** 2 * (a - 1) ** 2)
    values = [s + r, s - r] + [(u + t) / 2] * 2 + [(-u + t) / 2] * 2
    for value in (0.0, 0.5, 2.0, -1.7):
        numeric = sorted(sympy.N(v.subs(a, value)) / math.sqrt(6) for v in values)
        assert numeric == pytest.approx(sorted(closed_form_A2a(value)), abs=1e-12)
    closed = sympy.expand(sympy.prod([x - v for v in values]))
    first, second = (_as_poly(f, a, x) for f in CLOSED_FORM_A2A)
    assert sympy.expand(closed - first * second ** 2) == 0
    assert sympy.expand(closed - det - 2 * a ** 3 * second ** 2) == 0
    assert sympy.factor(det.subs(a, 1)) == x ** 5 * (x - 6)
