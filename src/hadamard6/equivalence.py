"""Standard and unitary equivalence deciders with checkable witnesses.

Unitary equivalence is exact equality of scaled characteristic polynomials.
Standard equivalence is decided by exhaustive search over row permutations;
for each row permutation the compatible column permutations are recovered by
exact matching of dephased column vectors, which enumerates the same set as a
blind double loop. Dephasing cancels arbitrary unimodular diagonals, so the
decision procedure is complete even though returned witnesses carry only
q-th-root phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

from .invariants import charpoly_exact, haagerup_set, poly_eq, scale
from .matrices import ButsonMatrix, PhaseVector, dephase


@dataclass(frozen=True)
class Witness:
    """(row permutation, column permutation, left phases, right phases)."""

    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]
    left: PhaseVector
    right: PhaseVector

    def __post_init__(self) -> None:
        n = len(self.row_perm)
        if sorted(self.row_perm) != list(range(n)) or sorted(self.col_perm) != list(range(n)):
            raise ValueError("witness permutations must be bijections")
        if len(self.left) != n or len(self.right) != n:
            raise ValueError("witness phase vectors must have length n")


@dataclass(frozen=True)
class EquivVerdict:
    equivalent: bool
    witness: Witness | None
    search_stats: int  # row permutations examined

    def __post_init__(self) -> None:
        if self.equivalent and self.witness is None:
            raise ValueError("an equivalent verdict must carry a witness")


def apply_witness(w: Witness, b: ButsonMatrix) -> ButsonMatrix:
    """Exponent arithmetic: out[i][j] = left[i] + b[row_perm[i]][col_perm[j]] + right[j]."""
    n = b.n
    if len(w.row_perm) != n:
        raise ValueError("witness size does not match the matrix")
    if w.left.q != b.q:
        raise ValueError("witness root order does not match the matrix")
    return ButsonMatrix(
        b.q,
        [[w.left.exps[i] + b.entry(w.row_perm[i], w.col_perm[j]) + w.right.exps[j]
          for j in range(n)] for i in range(n)],
    )


def unitary_equivalent(b1: ButsonMatrix, b2: ButsonMatrix) -> bool:
    """Equality of spectra of B/sqrt(n), tested exactly on scaled polynomials."""
    if b1.n != b2.n:
        raise ValueError("matrices of different dimension are not comparable")
    return poly_eq(scale(charpoly_exact(b1), b1.n), scale(charpoly_exact(b2), b2.n))


def _common_order(b1: ButsonMatrix, b2: ButsonMatrix) -> tuple[ButsonMatrix, ButsonMatrix, int]:
    q = math.lcm(b1.q, b2.q)
    return b1.to_order(q), b2.to_order(q), q


def standard_equivalent(b1: ButsonMatrix, b2: ButsonMatrix,
                        prescreen: bool = True) -> EquivVerdict:
    """Exhaustive, exact decision of b1 = D1 P1 b2 P2 D2.

    Returns the lexicographically smallest (row_perm, col_perm) witness when
    one exists; the witness is verified by apply_witness before returning.
    With prescreen enabled a Haagerup multiset mismatch refutes immediately
    (equal multisets are a necessary condition for equivalence).
    """
    if b1.n != b2.n:
        raise ValueError("matrices of different dimension are not comparable")
    a, b, q = _common_order(b1, b2)
    n = a.n
    if prescreen and haagerup_set(a) != haagerup_set(b):
        return EquivVerdict(False, None, 0)

    target = dephase(a)[0]
    # Column keys of the dephased target, rows 1..n-1 (row 0 is identically 0).
    want: dict[tuple[int, ...], list[int]] = {}
    for j in range(1, n):
        key = tuple(target.entry(i, j) for i in range(1, n))
        want.setdefault(key, []).append(j)

    eb = b.exponents
    examined = 0
    for sigma in permutations(range(n)):
        examined += 1
        # Left-dephased columns of the row-permuted candidate.
        cols = [tuple((eb[sigma[i]][c] - eb[sigma[0]][c]) % q for i in range(1, n))
                for c in range(n)]
        for c0 in range(n):
            base = cols[c0]
            have: dict[tuple[int, ...], list[int]] = {}
            for c in range(n):
                if c != c0:
                    key = tuple((cols[c][i] - base[i]) % q for i in range(n - 1))
                    have.setdefault(key, []).append(c)
            if {k: len(v) for k, v in want.items()} != {k: len(v) for k, v in have.items()}:
                continue
            # Duplicate keys are interchangeable, so ascending assignment per
            # key yields the lexicographically smallest column permutation.
            tau = [0] * n
            tau[0] = c0
            for key, js in want.items():
                for j, c in zip(js, have[key]):
                    tau[j] = c
            witness = _build_witness(a, b, sigma, tuple(tau), q)
            if apply_witness(witness, b) != a:
                raise RuntimeError("witness verification failed; search is inconsistent")
            return EquivVerdict(True, witness, examined)
    return EquivVerdict(False, None, examined)


def _build_witness(a: ButsonMatrix, b: ButsonMatrix, sigma: tuple[int, ...],
                   tau: tuple[int, ...], q: int) -> Witness:
    n = a.n
    ea, eb = a.exponents, b.exponents
    # a's own dephasing phases, and those of the permuted b; their difference
    # carries a's phases onto the permuted grid.
    left = tuple(
        (ea[i][0] - eb[sigma[i]][tau[0]]) % q for i in range(n)
    )
    right = tuple(
        ((ea[0][j] - ea[0][0]) - (eb[sigma[0]][tau[j]] - eb[sigma[0]][tau[0]])) % q
        for j in range(n)
    )
    return Witness(sigma, tau, PhaseVector(q, left), PhaseVector(q, right))


def classify(mats, relation: str) -> list[list[int]]:
    """Partition indices of mats under 'standard' or 'unitary' equivalence.

    Classes are ordered by first member and listed in input order, so the
    output is deterministic.
    """
    mats = list(mats)
    if not mats:
        raise ValueError("classify needs at least one matrix")
    if relation == "unitary":
        # One polynomial per matrix; representatives are compared exactly.
        polys = [scale(charpoly_exact(m), m.n) for m in mats]
        related = lambda i, j: poly_eq(polys[i], polys[j])
    elif relation == "standard":
        related = lambda i, j: standard_equivalent(mats[i], mats[j]).equivalent
    else:
        raise ValueError("relation must be 'standard' or 'unitary'")
    classes: list[list[int]] = []
    for idx in range(len(mats)):
        for cls in classes:
            if related(cls[0], idx):
                cls.append(idx)
                break
        else:
            classes.append([idx])
    return classes
