"""Standard and unitary equivalence deciders with checkable witnesses.

Unitary equivalence is exact equality of scaled characteristic polynomials.
Standard equivalence is decided by exhaustive search over row permutations;
for each row permutation the compatible column permutations are recovered by
exact matching of dephased column vectors, which enumerates the same set as a
blind double loop. Dephasing cancels arbitrary unimodular diagonals, so the
decision procedure is complete even though returned witnesses carry only
q-th-root phases.

The search is pure Python and looks at every row permutation on its own.
Rows of b are dephased against a pivot row and each first column c0, and
bitmasks over c0 record which dephased rows have the exponent multiset of
each target row (row masks) and which pair with a second row as the target's
rows pair with its row 1 (pair masks). Only the c0 left by both go to the
exact test, a comparison of sorted dephased columns. Between Butson Hadamard
matrices of prime order, whose row differences take each value equally
often, row masks filter nothing; pair masks can, except at q = 2.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import islice, permutations

from .invariants import charpoly_exact, haagerup_set, poly_eq
from .matrices import ButsonMatrix, PhaseVector, Record, dephase


class Witness(Record):
    """(row permutation, column permutation, left phases, right phases)."""

    __slots__ = ("row_perm", "col_perm", "left", "right")
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


class EquivVerdict(Record):
    __slots__ = ("equivalent", "witness", "search_stats")
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
    return poly_eq(charpoly_exact(b1), charpoly_exact(b2))


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

    Row permutations sigma are taken in itertools order and first columns c0
    in ascending order. The row masks of pivot sigma[0] and the pair masks of
    sigma[1] (see _masks) are built once and ANDed per sigma; each surviving
    c0 is tested exactly. search_stats is the 1-based position of the row
    permutation that gave the witness, or n! for a miss.
    """
    if b1.n != b2.n:
        raise ValueError("matrices of different dimension are not comparable")
    a, b, q = _common_order(b1, b2)
    n = a.n
    if prescreen and haagerup_set(a) != haagerup_set(b):
        return EquivVerdict(False, None, 0)
    target = dephase(a)[0].exponents
    first = min(1, n - 1)
    by_row, by_pair = _profiles(target), _profiles(target, first)
    target_cols = list(zip(*target[1:]))
    want = sorted(target_cols)
    block = math.factorial(n - 1)
    perms = permutations(range(n))
    for pivot in range(n):
        rows = _dephased_rows(b.exponents, pivot, q)
        # Target row 0 and the pivot row dephase to zeros, so
        # row_masks[0][pivot] is full: at n = 1 it is the only mask.
        row_masks = _masks(rows, by_row)
        pair_masks: dict[int, list[list[int]]] = {}
        for examined, sigma in enumerate(islice(perms, block), pivot * block + 1):
            hits = row_masks[first][sigma[first]]
            if not hits:
                continue
            for i in range(2, n):
                hits &= row_masks[i][sigma[i]]
                if not hits:
                    break
            if hits and n > 2:
                masks = pair_masks.get(sigma[1])
                if masks is None:
                    masks = pair_masks[sigma[1]] = _masks(rows, by_pair, sigma[1])
                for i in range(2, n):
                    hits &= masks[i][sigma[i]]
                    if not hits:
                        break
            while hits:
                c0 = (hits & -hits).bit_length() - 1
                hits &= hits - 1
                cols = list(zip(*[rows[s][c0] for s in sigma[1:]]))
                if sorted(cols) != want:
                    continue
                # Equal columns are interchangeable, so giving each target
                # column the smallest unused equal column yields the smallest tau.
                spare: dict[tuple[int, ...], list[int]] = {}
                for c in reversed(range(n)):
                    if c != c0:
                        spare.setdefault(cols[c], []).append(c)
                tau = (c0, *(spare[col].pop() for col in target_cols[1:]))
                witness = _build_witness(a, b, sigma, tau, q)
                if apply_witness(witness, b) != a:
                    raise RuntimeError("witness verification failed; search is inconsistent")
                return EquivVerdict(True, witness, examined)
    return EquivVerdict(False, None, n * block)


def _profiles(target, k: int | None = None) -> dict[tuple, list[int]]:
    """Target rows i keyed by their exponent multiset or, given row k, by the
    multiset of column pairs of rows (k, i)."""
    found: dict[tuple, list[int]] = {}
    for i, row in enumerate(target):
        key = row if k is None else zip(target[k], row)
        found.setdefault(tuple(sorted(key)), []).append(i)
    return found


def _dephased_rows(eb, r: int, q: int) -> list[list[tuple[int, ...]]]:
    """rows[s][c0] is row s of b dephased against row r and column c0."""
    rows = []
    for s in range(len(eb)):
        u = [x - y for x, y in zip(eb[s], eb[r])]
        rows.append([tuple([(x - y) % q for x in u]) for y in u])
    return rows


def _masks(rows, profiles: dict[tuple, list[int]], anchor: int | None = None) -> list[list[int]]:
    """Bit c0 of masks[i][s] is set when row s, dephased against column c0,
    has the key of target row i in profiles: its exponent multiset or, given
    an anchor row, the multiset of its column pairs with that row."""
    n = len(rows)
    masks = [[0] * n for _ in range(n)]
    for s in range(n):
        for c0, row in enumerate(rows[s]):
            key = row if anchor is None else zip(rows[anchor][c0], row)
            for i in profiles.get(tuple(sorted(key)), ()):
                masks[i][s] |= 1 << c0
    return masks


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
        polys = [charpoly_exact(m) for m in mats]
        related = lambda i, j: poly_eq(polys[i], polys[j])
    elif relation == "standard":
        # One Haagerup multiset per matrix, compared at the batch's common
        # order (value v at order q becomes v * order / q); only pairs with
        # equal multisets are searched.
        if any(m.n != mats[0].n for m in mats):
            raise ValueError("matrices of different dimension are not comparable")
        order = math.lcm(*(m.q for m in mats))
        sets = [Counter({v * (order // m.q): c for v, c in haagerup_set(m).items()})
                for m in mats]
        related = lambda i, j: (sets[i] == sets[j] and standard_equivalent(
            mats[i], mats[j], prescreen=False).equivalent)
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
