"""Spectral and combinatorial invariants.

Characteristic polynomials are computed exactly over Z[zeta_q] by Berkowitz's
division-free recurrence, carried out in the group ring Z[x]/(x^q - 1) and
reduced modulo the q-th cyclotomic polynomial at the end. It costs O(n^4) ring
operations and has no dimension cap, and the whole pipeline up to root finding
is integer arithmetic. One type, CharPoly(n, q, e), holds the result: e_k is
the x^k coefficient of det(xI - H), and the same tuple describes
det(xI - H/sqrt(n)), whose x^k coefficient is e_k * n^(-(n-k)/2). Every
sqrt(n) power is bookkeeping, so comparing spectra of H/sqrt(n) is an exact
integer-cyclotomic test. The group-ring loop is also public as
charpoly_group_ring: for a matrix with entries a^e and q above every degree in
a it reaches, its unreduced vectors are the characteristic polynomial over
Z[a]. The loop runs on the packed group ring of cyclo.

The defect is exact too: the rank of the deformation system over Q(zeta_q) is
computed by Gaussian elimination modulo prime ideals p of norm p < 2^62. Each
such rank is a lower bound; full rank needs one prime, and a lower rank r is
certified once the ideals at rank r have a norm product above the Hadamard
bound (2(n-1))^((r+1) phi(q)/2) on every (r+1)-minor. No tolerance is involved.
The primes and the ideals come from cyclo (see its module docstring); this
module keeps the elimination and the certificate.
numpy is needed only by deformation_system, which builds the float system for
comparison, and by eig_real_symmetric, which calls LAPACK.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations, permutations
from operator import lshift, mul, sub

from .cyclo import CycInt, _fold, _prime_ideals, _unpack, _width, euler_phi
from .matrices import ButsonMatrix, Record, _divided_order, _own_order, is_hadamard_exact


class ConvergenceError(RuntimeError):
    """Root iteration failed to reach the requested residual."""


class CharPoly(Record):
    """Monic det(xI - H) of an n x n matrix, coefficients e_k in Z[zeta_q].

    e runs from degree 0 upward. Read as det(xI - H/sqrt(n)), the x^k
    coefficient is e_k * n^(-(n-k)/2), which complex_coeffs() evaluates.
    charpoly_exact sets q to the grid's own order, which divides the order
    the grid is written over; poly_eq compares across orders.
    """

    __slots__ = ("n", "q", "e")
    n: int
    q: int
    e: tuple[CycInt, ...]

    def __post_init__(self) -> None:
        if len(self.e) != self.n + 1:
            raise ValueError("need one coefficient per degree 0..n")
        if not all(isinstance(c, CycInt) and c.q == self.q for c in self.e):
            raise ValueError("every coefficient must be a CycInt of root order q")
        if self.e[-1] != 1:
            raise ValueError("characteristic polynomial must be monic")

    def complex_coeffs(self) -> list[complex]:
        n = self.n
        return [ek.embed() * n ** (-(n - k) / 2.0) for k, ek in enumerate(self.e)]


class Spectrum(Record):
    """Eigenvalues with multiplicities; multiplicities sum to the dimension."""

    __slots__ = ("pairs",)
    pairs: tuple[tuple[complex, int], ...]

    @property
    def n(self) -> int:
        return sum(m for _, m in self.pairs)

    def values(self) -> list[complex]:
        return [v for v, m in self.pairs for _ in range(m)]


def charpoly_group_ring(q: int, exponents) -> list[list[int]]:
    """det(xI - B) in the group ring Z[x]/(x^q - 1), by the Samuelson-Berkowitz recurrence.

    B_ij = zeta^exponents[i][j]; the result holds one integer vector per
    coefficient, degree 0 first, indexed by exponent. Peeling row and column k
    off the trailing block A_k = [[a, R], [C, M]] gives
    charpoly(A_k) = T * charpoly(M), with T the lower-triangular Toeplitz
    matrix whose first column is 1, -a, -R C, -R M C, -R M^2 C, ...
    (Berkowitz 1984). The recurrence is division-free and costs O(n^4) ring
    operations, with no cap on n. It runs on packed integers (see the cyclo
    module docstring): a matrix entry zeta^e shifts a term by Be bits, so
    each inner product R M^j C and each entry of M (M^j C) is one sum of
    shifted terms, and each Toeplitz coefficient one sum of integer products,
    with one fold mod 2^(Bq) - 1 carrying the overflow round. Values stay
    signed. When no coefficient reaches degree q in zeta, nothing wraps and
    the vectors are the characteristic polynomial over Z[zeta] with zeta an
    indeterminate. The x^(n-k) coefficient is a sum of n!/(n-k)! <= n!
    signed monomials (Leibniz), so each of its digits has absolute value at
    most n!, the bound that sets the width B.
    """
    n = len(exponents)
    w = _width(math.factorial(n))
    bits = 8 * w * q
    mask = (1 << bits) - 1
    shift = [[8 * w * (x % q) for x in row] for row in exponents]

    poly = [1]  # charpoly of the empty trailing block, leading coefficient first
    for k in range(n - 1, -1, -1):
        row, *block = (s[k + 1:] for s in shift[k:])  # R and M as shifts
        t = [1, -(1 << shift[k][k])]
        col = [1 << s[k] for s in shift[k + 1:]]  # M^j C, starting at j = 0
        for j in range(n - k - 1):
            if j:
                col = [_fold(sum(map(lshift, col, r)), bits, mask) for r in block]
            t.append(-_fold(sum(map(lshift, col, row)), bits, mask))
        poly = [_fold(sum(map(mul, poly, t[i::-1])), bits, mask) for i in range(len(poly) + 1)]
    return [_unpack(v, q, w) for v in reversed(poly)]


def charpoly_exact(b: ButsonMatrix) -> CharPoly:
    """Exact det(xI - B) at the grid's own order: charpoly_group_ring reduced modulo Phi.

    The own order is q/g, g the gcd of q and every exponent
    (zeta_q^(g x) = zeta_(q/g)^x), and the result's q is that order, not
    b.q. Reducing modulo the cyclotomic polynomial once at the end is a ring
    homomorphism onto Z[zeta_(q/g)], and the reduced form is canonical, so
    two polynomials compare exactly after poly_eq lifts them to a common order.
    """
    d = _divided_order(b)
    return CharPoly(b.n, d.q,
                    tuple(CycInt(d.q, v) for v in charpoly_group_ring(d.q, d.exponents)))


def scale(p: CharPoly, n: int) -> CharPoly:
    """Check that p has degree n and return it unchanged.

    A CharPoly already describes det(xI - H/sqrt(n)), so there is nothing to
    convert; only the degree is checked.
    """
    if p.n != n:
        raise ValueError(f"polynomial degree {p.n} does not match n={n}")
    return p


def poly_eq(p1: CharPoly, p2: CharPoly) -> bool:
    """Exact coefficientwise equality, after embedding into a common root order."""
    if p1.n != p2.n:
        raise ValueError("polynomials of different dimension are not comparable")
    q = math.lcm(p1.q, p2.q)
    return all(a.to_order(q) == b.to_order(q) for a, b in zip(p1.e, p2.e))


def _horner(coeffs: list[complex], x: complex) -> complex:
    out = 0j
    for c in reversed(coeffs):
        out = out * x + c
    return out


_DK_MAX_ITER = 1000

# Roots closer than this are one multiple root. The radius must cover the stall
# distance of multiple roots in double precision, roughly eps^(1/m) for an
# m-fold root (5e-6 at m = 3), while staying far below the separation of
# distinct catalog roots (> 0.1).
_CLUSTER_RADIUS = 1e-4


def _durand_kerner(coeffs: list[complex]) -> list[complex]:
    # Simultaneous iteration on the monic polynomial; starting points sit on a
    # circle of radius 1.2 with an irrational angular offset so no iterate
    # coincides with a root or another iterate.
    n = len(coeffs) - 1
    angles = [2.0 * math.pi * k / n + math.sqrt(2.0) / 2.0 for k in range(n)]
    z = [1.2 * complex(math.cos(t), math.sin(t)) for t in angles]
    for _ in range(_DK_MAX_ITER):
        max_step = 0.0
        for i in range(n):
            denom = 1.0 + 0j
            for j in range(n):
                if j != i:
                    denom *= z[i] - z[j]
            step = _horner(coeffs, z[i]) / denom
            z[i] -= step
            max_step = max(max_step, abs(step))
        if max_step < 1e-13:
            break
    return z


def _cluster(points: list[complex], radius: float) -> list[list[complex]]:
    # Single-linkage grouping; fine for a handful of points.
    groups: list[list[complex]] = []
    for p in sorted(points, key=lambda v: (v.real, v.imag)):
        for g in groups:
            if any(abs(p - other) <= radius for other in g):
                g.append(p)
                break
        else:
            groups.append([p])
    return groups


def _poly_derivative(coeffs: list[complex]) -> list[complex]:
    return [k * c for k, c in enumerate(coeffs)][1:]


def _polish_root(coeffs: list[complex], x0: complex, mult: int,
                 trust_radius: float) -> complex:
    # An m-fold root of p is a simple root of the (m-1)-th derivative, where
    # Newton regains quadratic convergence; stalled multiple-root iterates sit
    # O(sqrt(eps)) away, their centroid plus this step lands at O(eps).
    g = list(coeffs)
    for _ in range(mult - 1):
        g = _poly_derivative(g)
    dg = _poly_derivative(g)
    x = x0
    for _ in range(60):
        denom = _horner(dg, x)
        if denom == 0:
            break
        step = _horner(g, x) / denom
        x -= step
        if abs(x - x0) > trust_radius:
            return x0
        if abs(step) < 1e-15:
            break
    return x


def spectrum_numeric(p: CharPoly, tol: float = 1e-8) -> Spectrum:
    """Roots of the scaled polynomial, clustered into multiplicities.

    Roots closer than _CLUSTER_RADIUS count as one multiple root. Raises
    ConvergenceError when a polished representative leaves a residual above
    tol, or when two representatives end up within the radius.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be a positive finite number")
    coeffs = p.complex_coeffs()
    raw = _durand_kerner(coeffs)
    pairs = []
    for group in _cluster(raw, _CLUSTER_RADIUS):
        centroid = sum(group) / len(group)
        root = _polish_root(coeffs, centroid, len(group), 10.0 * _CLUSTER_RADIUS)
        if abs(_horner(coeffs, root)) > tol:
            raise ConvergenceError(
                f"root residual {abs(_horner(coeffs, root)):.3e} exceeds {tol:.3e}"
            )
        pairs.append((root, len(group)))
    pairs.sort(key=lambda vm: (vm[0].real, vm[0].imag))
    for (v1, _), (v2, _) in zip(pairs, pairs[1:]):
        if abs(v1 - v2) <= _CLUSTER_RADIUS:
            raise ConvergenceError("cluster representatives are not separated")
    return Spectrum(tuple(pairs))


def spectrum_distance(spec: Spectrum, reference) -> float:
    """Best max per-eigenvalue distance between spec and (value, mult) pairs.

    Matching is optimal over all pairings of the expanded multisets, so
    coincident or conjugate values cannot be mispaired by sort order.
    """
    left = spec.values()
    right = [v for v, m in reference for _ in range(m)]
    if len(left) != len(right):
        raise ValueError("spectra have different total multiplicity")
    best = math.inf
    for perm in permutations(range(len(right))):
        worst = max(abs(left[i] - right[perm[i]]) for i in range(len(left)))
        if worst < best:
            best = worst
    return best


def _packed_keys(n: int, q: int) -> bool:
    # Dense grids pack their pair multisets (see row_keys).
    return q <= n * n


def row_keys(b: ButsonMatrix) -> list[tuple]:
    """Each row's key: the sorted pair multisets of its row pairs.

    The pair multiset of rows i and k is the count of d_j - d_l mod q over
    all columns j and l, d = e_i - e_k. Row i's key holds n - 1 multisets,
    and every pair sits in the keys of both its rows. A standard equivalence
    D1 P1 b P2 D2 keeps every pair multiset, so row i of the result has the
    key of row P1(i) of b: the keys are a vertex invariant of the rows
    (McKay & Piperno 2014) that refines the Haagerup set.

    A dense grid, q <= n^2, packs each multiset into one integer, its image
    in the group ring Z[x]/(x^q - 1) under x -> X = 2^B (see the cyclo
    module docstring): the product of sum_j X^d_j and sum_j X^-d_j, folded
    once, whose base-X digits are the counts. B is wide enough for n^4, so
    the sum of all keys decodes too (_haagerup_sum). A sparse grid keeps the
    multisets as sorted (value, count) pairs, since a packed key is Bq bits
    wide: rows (k, i) give -d and the same multiset, and permuting d keeps
    it, so its row pairs are grouped by their sorted differences and each
    group is counted once. Packed keys ran 3.8, 2.9 and 1.7 times as fast as
    the pairs at n = 6 for q = 30, 64 and 128, and 0.82 times at q = 256; at
    n = 16, 2.4 and 1.2 times for q = 256 and 512, and 0.59 times at
    q = 1024 (2-core x86-64, Python 3.11). So the crossover lies between
    2n^2 and 7n^2, above the rule. Keys of two grids compare only at one
    (n, q), where both are packed or neither is.
    """
    n, q, e = b.n, b.q, b.exponents
    keys: list[list] = [[] for _ in range(n)]
    if _packed_keys(n, q):
        w = _width(n ** 4)
        bits = 8 * w * q
        mask = (1 << bits) - 1
        # at(d) = X^(d mod q) for -q < d < q, a negative d by Python's indexing.
        at = [1 << 8 * w * d for d in range(q)].__getitem__
        for i, k in combinations(range(n), 2):
            key = _fold(sum(map(at, map(sub, e[i], e[k]))) * sum(map(at, map(sub, e[k], e[i]))),
                        bits, mask)
            keys[i].append(key)
            keys[k].append(key)
    else:
        groups: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for i, k in combinations(range(n), 2):
            d = tuple(sorted([(x - y) % q for x, y in zip(e[i], e[k])]))
            groups.setdefault(d, []).append((i, k))
        for d, pairs in groups.items():
            counts: dict[int, int] = {}
            for x in d:  # cheaper than Counter(d) for rows this short
                counts[x] = counts.get(x, 0) + 1
            found: dict[int, int] = {}
            for dj, cj in counts.items():
                for dl, cl in counts.items():
                    v = (dj - dl) % q
                    found[v] = found.get(v, 0) + cj * cl
            items = tuple(sorted(found.items()))
            for i, k in pairs:
                keys[i].append(items)
                keys[k].append(items)
    return [tuple(sorted(key)) for key in keys]


def _haagerup_sum(n: int, q: int, keys: list[tuple]) -> int | Counter:
    """n^3 zeros, from the n row pairs i = k, plus every pair multiset in
    the row keys of an n x n grid at order q. Each pair (i, k) sits in two
    keys, once for (i, k) and once for (k, i). Packed keys give a packed
    sum: no digit passes n^4, so nothing carries."""
    if _packed_keys(n, q):
        return n ** 3 + sum(map(sum, keys))
    out = Counter()
    out[0] = n ** 3
    for key in keys:
        for items in key:
            for v, c in items:
                out[v] = out.get(v, 0) + c
    return out


def haagerup_set(b: ButsonMatrix) -> Counter:
    """Multiset of e_ij + e_kl - e_il - e_kj mod q over all index quadruples.

    For rows i and k the value is d_j - d_l with d = e_i - e_k, so the set
    is the sum of the pair multisets in the row keys (see row_keys), and
    each of the n pairs i = k gives n^2 zeros. For a dense grid that sum is
    one packed integer, decoded here; it holds only nonzero counts.
    """
    n, q = b.n, b.q
    total = _haagerup_sum(n, q, row_keys(b))
    if not _packed_keys(n, q):
        return total
    return Counter({v: c for v, c in enumerate(_unpack(total, q, _width(n ** 4))) if c})


def deformation_system(b: ButsonMatrix) -> np.ndarray:
    """Real linear system whose kernel holds first-order Hadamard deformations.

    Unknowns are the n^2 real entries of R (flattened row-major); each ordered
    row pair i < j contributes the real and imaginary parts of
    sum_k H_ik conj(H_jk) (R_ik - R_jk) = 0. The shape is (n(n-1), n^2), so a
    1 x 1 matrix gives a system with no rows.
    """
    import numpy as np

    h = b.to_complex()
    n = b.n
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            w = h[i] * np.conj(h[j])
            coef = np.zeros(n * n, dtype=np.complex128)
            coef[i * n:(i + 1) * n] += w
            coef[j * n:(j + 1) * n] -= w
            rows.append(coef.real)
            rows.append(coef.imag)
    return np.array(rows).reshape(-1, n * n)


def _rank_mod(rows: list[list[int]], p: int) -> int:
    """Rank over F_p by Gaussian elimination; row entries are residues mod p.

    Each step consumes the leading column, so the rows shrink as it goes.
    """
    rank = 0
    while rows and rows[0]:
        pivot = next((r for r in rows if r[0]), None)
        if pivot is None:
            rows = [r[1:] for r in rows]
            continue
        rank += 1
        inv = pow(pivot[0], -1, p)
        head = [x * inv % p for x in pivot[1:]]
        rows = [[(x - r[0] * y) % p for x, y in zip(r[1:], head)] if r[0] else r[1:]
                for r in rows if r is not pivot]
    return rank


class RankCertificate(Record):
    """Exact rank of the gauge-fixed deformation system, and what it rests on.

    rank is the rank over Q(zeta_q) of a system with `columns` unknowns, so
    defect = columns - rank. A full rank needs one prime ideal. Otherwise
    `primes` prime ideals saw this rank and their norms multiply past
    2^bound_bits, the Hadamard bound on the norm of every (rank+1)-minor.
    """

    __slots__ = ("rank", "columns", "primes", "bound_bits")
    rank: int
    columns: int
    primes: int
    bound_bits: int

    @property
    def defect(self) -> int:
        return self.columns - self.rank


def _deformation_exponents(b: ButsonMatrix) -> tuple[int, int, list]:
    """(n, q, system): the gauge-fixed deformation system of b in exponent form.

    b is dephased and its order divided by the gcd of the entries. The
    system has one equation per ordered row pair i != j, stored as
    (i, j, ds): the coefficient of R_ik is zeta_q^ds[k-1] and that of R_jk
    its negative, for k >= 1; R is zero on the first row and column.
    """
    d = _own_order(b)
    n, q, e = d.n, d.q, d.exponents
    system = [(i, j, [(e[i][k] - e[j][k]) % q for k in range(1, n)])
              for i in range(n) for j in range(n) if i != j]
    return n, q, system


def _certify(n: int, q: int, system: list, ideals) -> RankCertificate:
    """Exact rank of the system over Q(zeta_q) from its ranks at the given ideals.

    ideals yields distinct prime ideals of prime norm p, each as (p, z) with
    zeta -> z mod p. Raises ArithmeticError if they run out before the rank
    is certified.
    """
    columns = (n - 1) ** 2
    phi = euler_phi(q)
    exps = sorted({x for _, _, ds in system for x in ds})
    rank, primes, bits, bound = -1, 0, 0, 1
    for p, z in ideals:
        image = dict(zip(exps, (pow(z, x, p) for x in exps)))
        rows = []
        for i, j, ds in system:
            row = [0] * columns
            for k, x in enumerate(ds):
                if i:
                    row[(i - 1) * (n - 1) + k] = image[x]
                if j:
                    row[(j - 1) * (n - 1) + k] = p - image[x]
            rows.append(row)
        r = _rank_mod(rows, p)
        if r == columns:
            return RankCertificate(r, columns, 1, 0)
        if r > rank:
            rank, primes, bits = r, 0, 0
            bound = (2 * (n - 1)) ** ((r + 1) * phi)  # the square of the norm bound
        if r == rank:
            primes, bits = primes + 1, bits + p.bit_length() - 1
        # The norm product is at least 2**bits and 2**bound.bit_length() > bound,
        # so this test implies that its square exceeds bound, without forming it.
        if 2 * bits >= bound.bit_length():
            return RankCertificate(rank, columns, primes, ((bound - 1).bit_length() + 1) // 2)
    raise ArithmeticError(f"rank {rank} of {columns} is not certified by the given ideals")


def defect_certificate(b: ButsonMatrix) -> RankCertificate:
    """Exact defect of a Butson Hadamard matrix, by rank modulo prime ideals.

    The first-order deformations R (real n x n) satisfy
    sum_k H_ik conj(H_jk) (R_ik - R_jk) = 0 for every ordered row pair i != j
    (the pair (j, i) is the conjugate equation). The 2n - 1 phase directions
    R_ij = a_i + b_j always solve it, and fixing R to zero on the first row and
    column removes exactly them, so defect = (n-1)^2 - rank of what is left.
    The grid is dephased and its order divided by the gcd of its entries;
    every coefficient is then 0 or +-zeta_q^d.

    Under a degree-one prime ideal (zeta -> z mod p) every minor that survives
    was nonzero over Q(zeta_q), so each rank mod p is a lower bound. Full
    column rank at one prime certifies defect 0. A lower rank r is exact once
    the ideals at rank r have a norm product above (2(n-1))^((r+1) phi(q)/2):
    a nonzero (r+1)-minor would lie in all of them, so its norm would be at
    least that product, while rows of at most 2(n-1) unit entries bound every
    conjugate of the minor by (2(n-1))^((r+1)/2) (Hadamard's inequality). The
    defect follows Tadej & Zyczkowski (2006).
    """
    if not is_hadamard_exact(b):
        raise ValueError("defect is defined for Hadamard matrices only")
    n, q, system = _deformation_exponents(b)
    return _certify(n, q, system, _prime_ideals(q))


def defect(b: ButsonMatrix) -> int:
    """Isolation certificate: 0 means no first-order deformations beyond phases.

    The value is exact (see defect_certificate); no tolerance is involved.
    """
    return defect_certificate(b).defect


def eig_real_symmetric(m) -> list[float]:
    """Eigenvalues of a real symmetric matrix, ascending, from LAPACK.

    m is a nested sequence or a 2-D ndarray, converted to float64. It must be
    square, nonempty, finite and exactly symmetric, or ValueError is raised:
    numpy.linalg.eigvalsh reads only one triangle, so it would not notice an
    asymmetric input. A LinAlgError from LAPACK propagates.
    """
    import numpy as np

    try:
        a = np.array(m, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError("matrix must be square") from None
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError("matrix must be square")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if not (a == a.T).all():
        raise ValueError("matrix must be exactly symmetric")
    return np.linalg.eigvalsh(a).tolist()


def closed_form_A2a(a: float) -> list[float]:
    """The published closed-form spectrum of the symmetric family A2(a).

    Evaluated verbatim for comparison reporting only, never as ground truth:
    the first pair is (1 + a + a^2 +- sqrt(a^2 (1 + a^2) + 5)) / sqrt(6), the
    second (+- sqrt(5 a^2 (a-1)^2) + 2 - a(1+a)) / (2 sqrt(6)) doubled.
    """
    if not math.isfinite(a):
        raise ValueError("parameter must be a finite real number")
    s = 1.0 + a + a * a
    r = math.sqrt(a * a * (1.0 + a * a) + 5.0)
    t = 2.0 - a * (1.0 + a)
    u = math.sqrt(5.0 * a * a * (a - 1.0) * (a - 1.0))
    rt6 = math.sqrt(6.0)
    first = [(s + r) / rt6, (s - r) / rt6]
    second_plus = (u + t) / (2.0 * rt6)
    second_minus = (-u + t) / (2.0 * rt6)
    return [first[0], first[1], second_plus, second_plus, second_minus, second_minus]


# closed_form_A2a read with x = sqrt(6) * lambda, as the two factors of
# first * second^2: quadratics in x whose coefficients (degree 0 first) are
# integer polynomials in a (degree 0 first).
CLOSED_FORM_A2A = (
    ((-4, 2, 2, 2), (-2, -2, -2), (1,)),  # x^2 - 2(1+a+a^2)x + 2a^3+2a^2+2a-4
    ((1, -1, -2, 3, -1), (-2, 1, 1), (1,)),  # x^2 - (2-a-a^2)x + 1-a-2a^2+3a^3-a^4
)


def _poly(q: int, pairs) -> CharPoly:
    return CharPoly(6, q, tuple(CycInt(q, [a, b]) for a, b in pairs))


# Published spectral functions, one e-vector per catalog name, coefficients as
# (integer, zeta-coefficient) pairs for degrees 0..6. These are the reference
# values the computed polynomials are audited against.
REFERENCE_SPECTRAL_FUNCTIONS: dict[str, CharPoly] = {
    "A10": _poly(3, [(-216, 0), (144, 72), (-18, -36), (6, 12), (-3, -6), (-2, 2), (1, 0)]),
    "A20": _poly(3, [(-216, 0), (-144, -72), (-36, -18), (-6, -12), (3, -3), (2, -2), (1, 0)]),
    "A30": _poly(3, [(-216, 0), (-72, -144), (36, 18), (6, 12), (-3, 3), (-2, -4), (1, 0)]),
    "A40": _poly(3, [(-216, 0), (72, 144), (18, -18), (-6, -12), (-6, -3), (2, 4), (1, 0)]),
    "A50": _poly(3, [(-216, 0), (-72, 72), (-18, 18), (6, 12), (6, 3), (4, 2), (1, 0)]),
    "A60": _poly(3, [(-216, 0), (72, -72), (18, 36), (-6, -12), (3, 6), (-4, -2), (1, 0)]),
    "A01": _poly(3, [(-216, 0), (-72, -36), (0, 0), (6, 12), (0, 0), (1, -1), (1, 0)]),
    "A02": _poly(3, [(-216, 0), (-36, 36), (0, 0), (-6, -12), (0, 0), (2, 1), (1, 0)]),
    "A03": _poly(3, [(-216, 0), (-72, -36), (0, 0), (6, 12), (0, 0), (1, -1), (1, 0)]),
    "M6": _poly(4, [(-216, 0), (0, 0), (108, 0), (0, 0), (-18, 0), (0, 0), (1, 0)]),
    # The REFERENCE_SPECTRA multisets multiplied out in x = sqrt(6) * lambda:
    # M61 (x^2-6)^2 (x^2+4x+6), A1 (x^2-6)(x^2-3x+6)^2.
    "M61": _poly(4, [(216, 0), (144, 0), (-36, 0), (-48, 0), (-6, 0), (4, 0), (1, 0)]),
    "A1": _poly(3, [(-216, 0), (216, 0), (-90, 0), (0, 0), (15, 0), (-6, 0), (1, 0)]),
}

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)

# Published eigenvalue multisets (value, multiplicity) for the scaled matrices.
REFERENCE_SPECTRA: dict[str, tuple[tuple[complex, int], ...]] = {
    "M6": ((-1.0 + 0j, 3), (1.0 + 0j, 3)),
    "M61": (
        (-1.0 + 0j, 2),
        (1.0 + 0j, 2),
        ((1j - _SQRT2) / _SQRT3, 1),
        (-(1j + _SQRT2) / _SQRT3, 1),
    ),
    "A1": (
        (-1.0 + 0j, 1),
        (1.0 + 0j, 1),
        ((_SQRT3 - 1j * _SQRT5) / (2.0 * _SQRT2), 2),
        ((_SQRT3 + 1j * _SQRT5) / (2.0 * _SQRT2), 2),
    ),
}
