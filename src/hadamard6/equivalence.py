"""Standard and unitary equivalence deciders with checkable witnesses.

Unitary equivalence is exact equality of scaled characteristic polynomials.
Standard equivalence is decided by exhaustive search over row permutations;
for each row permutation the compatible column permutations are recovered by
exact matching of dephased column vectors, which enumerates the same set as a
blind double loop. Dephasing cancels arbitrary unimodular diagonals, so the
decision procedure is complete even though returned witnesses carry only
q-th-root phases.

The search runs in two steps. A numpy screen takes the row permutations in
blocks and, for every first column c0, compares sorted integer codes of the
dephased columns with those of the target; each flagged (row permutation, c0)
pair is then confirmed by the exact column match, in enumeration order. A
code reads a column's n-1 exponents as digits in base q modulo 2**64, so it
is exact while q**(n-1) <= 2**64 and a hash beyond that. Equal columns always
get equal codes, so the screen never drops a match; a hash collision only
costs one rejected confirmation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, permutations
from typing import TYPE_CHECKING

from .invariants import charpoly_exact, haagerup_set, poly_eq, scale
from .matrices import ButsonMatrix, PhaseVector, dephase

if TYPE_CHECKING:
    import numpy as np

# Largest block of row permutations screened at once. Blocks grow 1, 2, 4, ...
# up to this size, so an early hit costs about one permutation's work, and each
# (B, n-1, n, n) screen temporary stays under 1 MB for n <= 8.
_BLOCK = 256


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

    Row permutations are taken in itertools order, in blocks of 1, 2, 4, ...
    up to _BLOCK. Each block is screened in numpy: the permuted grid is
    dephased against its first row and, for each c0, against column c0, and
    the sorted base-q codes of its columns are compared with the target's.
    The codes are exact while q**(n-1) <= 2**64 and a hash (wrapping mod
    2**64) beyond, so every flagged (row permutation, c0) goes through the
    exact column match before a witness is built. search_stats is the
    1-based position of the row permutation that gave the witness, or n! for
    a miss.
    """
    if b1.n != b2.n:
        raise ValueError("matrices of different dimension are not comparable")
    a, b, q = _common_order(b1, b2)
    n = a.n
    if prescreen and haagerup_set(a) != haagerup_set(b):
        return EquivVerdict(False, None, 0)
    import numpy as np

    target = dephase(a)[0]
    # Column keys of the dephased target, rows 1..n-1 (row 0 is identically 0).
    want: dict[tuple[int, ...], list[int]] = {}
    for j in range(1, n):
        key = tuple(target.entry(i, j) for i in range(1, n))
        want.setdefault(key, []).append(j)
    weights = np.array([pow(q, i, 1 << 64) for i in range(n - 1)], dtype=np.uint64)
    dephased = np.array(target.exponents, dtype=np.int64)
    want_codes = _sorted_codes(dephased[None, 1:], weights, q)[0, 0]

    eb = b.exponents
    grid = np.array(eb, dtype=np.int64)
    perms = permutations(range(n))
    examined, size = 0, 1
    while block := list(islice(perms, size)):
        rows = grid[np.array(block)]
        flags = (_sorted_codes(rows[:, 1:] - rows[:, :1], weights, q) == want_codes).all(axis=2)
        for k, c0 in zip(*np.nonzero(flags)):
            sigma = block[k]
            tau = _match_columns(eb, sigma, int(c0), want, q)
            if tau is None:
                continue
            witness = _build_witness(a, b, sigma, tau, q)
            if apply_witness(witness, b) != a:
                raise RuntimeError("witness verification failed; search is inconsistent")
            return EquivVerdict(True, witness, examined + int(k) + 1)
        examined += len(block)
        size = min(2 * size, _BLOCK)
    return EquivVerdict(False, None, examined)


def _sorted_codes(rows: np.ndarray, weights: np.ndarray, q: int) -> np.ndarray:
    """Screen codes of row-dephased grids rows[B, n-1, n], for every c0.

    Entry [k, c0] holds the n column codes of grid k after dephasing against
    column c0, sorted; column c0 itself has code 0. The differences lie in
    (-2q, 2q), which fits int64 because ButsonMatrix caps q at 2**62.
    """
    import numpy as np

    # One (B, n-1, n, n) temporary, updated in place: digits in [0, q) have
    # the same bits as int64 and uint64, and uint64 products wrap mod 2**64.
    digits = rows[:, :, None, :] - rows[:, :, :, None]
    digits %= q
    terms = digits.view(np.uint64)
    terms *= weights[:, None, None]
    codes = terms.sum(axis=1, dtype=np.uint64)
    codes.sort(axis=2)
    return codes


def _match_columns(eb, sigma: tuple[int, ...], c0: int,
                   want: dict[tuple[int, ...], list[int]], q: int) -> tuple[int, ...] | None:
    """Exact column match of row permutation sigma with first column c0.

    Returns the smallest compatible column permutation, or None.
    """
    n = len(sigma)
    # Left-dephased columns of the row-permuted candidate.
    cols = [tuple((eb[sigma[i]][c] - eb[sigma[0]][c]) % q for i in range(1, n))
            for c in range(n)]
    base = cols[c0]
    have: dict[tuple[int, ...], list[int]] = {}
    for c in range(n):
        if c != c0:
            key = tuple((cols[c][i] - base[i]) % q for i in range(n - 1))
            have.setdefault(key, []).append(c)
    if {k: len(v) for k, v in want.items()} != {k: len(v) for k, v in have.items()}:
        return None
    # Duplicate keys are interchangeable, so ascending assignment per
    # key yields the lexicographically smallest column permutation.
    tau = [0] * n
    tau[0] = c0
    for key, js in want.items():
        for j, c in zip(js, have[key]):
            tau[j] = c
    return tuple(tau)


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
