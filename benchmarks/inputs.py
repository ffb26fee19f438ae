"""Seeded inputs and independent oracles for the hadamard6 benchmark.

Nothing here imports hadamard6. Matrices are (q, grid) pairs of root-of-unity
exponents; every expected answer is computed with numpy or with plain integer
arithmetic on exponents, so a check never trusts the code it measures.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "catalog_copy.json"), encoding="utf-8") as _fh:
    CATALOG = json.load(_fh)  # name -> {"q", "defect", "grid"}; literature defects


# --- exponent grids ----------------------------------------------------------

def fourier(n: int) -> tuple[int, list[list[int]]]:
    return n, [[i * j % n for j in range(n)] for i in range(n)]


def fourier_defect(n: int) -> int:
    """Defect of F_n: sum over i of gcd(i, n), minus 2n - 1."""
    return sum(math.gcd(i, n) for i in range(n)) - (2 * n - 1)


def catalog_matrix(name: str) -> tuple[int, list[list[int]]]:
    e = CATALOG[name]
    return e["q"], [list(r) for r in e["grid"]]


def lift(q: int, grid, q2: int) -> list[list[int]]:
    m = q2 // q
    return [[e * m % q2 for e in row] for row in grid]


def random_grid(rng, q: int, n: int) -> list[list[int]]:
    return [[rng.randrange(q) for _ in range(n)] for _ in range(n)]


def equivalent(rng, q: int, grid, lift_by: int = 1) -> tuple[int, list[list[int]]]:
    """D1 P1 grid P2 D2 with random permutations and q*lift_by-th root phases."""
    n = len(grid)
    q2 = q * lift_by
    g = lift(q, grid, q2)
    rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
    left = [rng.randrange(q2) for _ in range(n)]
    right = [rng.randrange(q2) for _ in range(n)]
    return q2, [[(left[i] + g[rows[i]][cols[j]] + right[j]) % q2 for j in range(n)]
                for i in range(n)]


def similar(rng, q: int, grid) -> tuple[int, list[list[int]]]:
    """D P grid P^T D^-1: a unitary conjugate, so the spectrum is unchanged."""
    n = len(grid)
    p = rng.sample(range(n), n)
    d = [rng.randrange(q) for _ in range(n)]
    return q, [[(d[i] + grid[p[i]][p[j]] - d[j]) % q for j in range(n)] for i in range(n)]


def transpose(grid) -> list[list[int]]:
    return [list(r) for r in zip(*grid)]


def to_complex(q: int, grid) -> np.ndarray:
    return np.exp(2j * np.pi * np.array(grid, dtype=np.float64) / q)


def is_hadamard(h: np.ndarray) -> bool:
    n = h.shape[0]
    unimodular = np.allclose(np.abs(h), 1.0, atol=1e-9)
    return bool(unimodular and np.allclose(h @ h.conj().T, n * np.eye(n), atol=1e-9))


def format_bh(q: int, grid) -> str:
    return f"BH {q} {len(grid)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in grid)


def format_c(h: np.ndarray) -> str:
    rows = [" ".join(f"{repr(float(v.real))},{repr(float(v.imag))}" for v in row) for row in h]
    return f"C {h.shape[0]}\n" + "\n".join(rows) + "\n"


# --- invariants computed here, not by the program ----------------------------

def row_profiles(q: int, grid) -> tuple:
    """Sorted per-row multisets of e_ij + e_kl - e_il - e_kj mod q.

    Row i of D1 P1 B P2 D2 has the profile of row P1(i) of B, so two grids
    whose profile multisets differ are certainly not standard-equivalent.
    """
    e = np.array(grid, dtype=np.int64)
    quad = (e[:, None, :, None] + e[None, :, None, :]
            - e[:, None, None, :] - e[None, :, :, None]) % q
    n = e.shape[0]
    counts = [tuple(np.bincount(quad[i].ravel(), minlength=q)) for i in range(n)]
    return tuple(sorted(counts))


def certified_inequivalent(a, b) -> bool:
    (qa, ga), (qb, gb) = a, b
    q = math.lcm(qa, qb)
    return row_profiles(q, lift(qa, ga, q)) != row_profiles(q, lift(qb, gb, q))


def scaled_poly(q: int, grid) -> np.ndarray:
    """Coefficients of det(xI - H/sqrt(n)), x^0 first, from numpy's eigenvalues."""
    h = to_complex(q, grid)
    return np.poly(h / math.sqrt(h.shape[0]))[::-1]


def same_poly(p1, p2) -> bool | None:
    """True/False when the float comparison is clear-cut, None when it is not."""
    d = float(np.max(np.abs(np.asarray(p1) - np.asarray(p2))))
    if d < 1e-8:
        return True
    if d > 1e-4:
        return False
    return None


def apply_witness(w: dict, b) -> tuple[int, list[list[int]]]:
    """out[i][j] = left[i] + b[row_perm[i]][col_perm[j]] + right[j] over order w["q"]."""
    q, n = w["q"], len(w["row_perm"])
    g = lift(b[0], b[1], q)
    rp, cp, left, right = w["row_perm"], w["col_perm"], w["left"], w["right"]
    return q, [[(left[i] + g[rp[i]][cp[j]] + right[j]) % q for j in range(n)] for i in range(n)]


def same_matrix(a, b) -> bool:
    q = math.lcm(a[0], b[0])
    return lift(a[0], a[1], q) == lift(b[0], b[1], q)


def embed(q: int, coeffs) -> complex:
    return sum(c * complex(math.cos(2 * math.pi * k / q), math.sin(2 * math.pi * k / q))
               for k, c in enumerate(coeffs))


def poly_tol(n: int) -> float:
    """Float tolerance for coefficients whose size grows like binom(n, k) n^(k/2)."""
    return 1e-9 * 2 ** n * n ** (n / 2)


def match_spectrum(pairs, eigvals, tol: float = 1e-6) -> str | None:
    """Greedy nearest matching of (value, mult) pairs against numpy eigenvalues."""
    values = [v for v, m in pairs for _ in range(m)]
    if len(values) != len(eigvals):
        return f"multiplicities sum to {len(values)}, expected {len(eigvals)}"
    left = list(eigvals)
    for v in values:
        k = min(range(len(left)), key=lambda i: abs(left[i] - v))
        if abs(left[k] - v) > tol:
            return f"eigenvalue {v} is {abs(left[k] - v):.2e} from numpy's nearest"
        left.pop(k)
    return None


def expected_classes(labels) -> list[list[int]]:
    """Partition of indices by label, classes ordered by first member."""
    classes: dict = {}
    for i, lab in enumerate(labels):
        classes.setdefault(lab, []).append(i)
    return sorted(classes.values(), key=lambda c: c[0])


def unitary_labels(polys) -> list[int] | None:
    """Class label per polynomial, or None when some pair is not clear-cut."""
    labels: list[int] = []
    for i, p in enumerate(polys):
        verdicts = [same_poly(p, polys[j]) for j in range(i)]
        if None in verdicts:
            return None
        labels.append(next((labels[j] for j, v in enumerate(verdicts) if v), i))
    return labels
