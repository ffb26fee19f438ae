"""Catalog of the 6x6 Butson-type Hadamard matrices under study.

Exponent encoding: for root order 3 the entries 1, w, w^2 (w a primitive cube
root of unity) are stored as 0, 1, 2; for root order 4 the entries
1, i, -1, -i are stored as 0, 1, 2, 3. F6 is the 6x6 Fourier matrix, included
as a known-inequivalent comparator.

Most of the A-family is derived rather than transcribed. A10 ... A60
substitute 1, w, w^2 for x, y, z in the three-parameter TEMPLATE under the
assignments in VARIANT_ASSIGNMENTS; A01, A02 and A03 are the standard
(dephased) forms of A10, A20 and A30; A2 and A3 are the unit-diagonal row
permutations of A02 and A03 (diagonal_normalized). A1 is the circulant of
the quadratic character mod 5, bordered by 1s. Only M6 and M61 are literal
grids; F6 is built from its formula.

Two published grids fail exact verification as transcribed and are kept in
DISPUTED_READINGS for audit reporting: A2's reading breaks symmetry and row
orthogonality, and A40's differs from the template output in a single cell.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import TYPE_CHECKING

from .matrices import ButsonMatrix, Record, dephase

if TYPE_CHECKING:
    import numpy as np

# Three-parameter template behind the A-family: each letter x, y, z takes one
# of the values 1, w, w^2.
TEMPLATE = (
    "zxyyxz",
    "xzyxyz",
    "xxxxxx",
    "zxzxyy",
    "xzzyxy",
    "zzxyyx",
)

# Assignment (exponent of x, of y, of z) behind each variant name.
VARIANT_ASSIGNMENTS: dict[str, tuple[int, int, int]] = {
    "A10": (0, 1, 2),
    "A20": (1, 0, 2),
    "A30": (1, 2, 0),
    "A40": (2, 1, 0),
    "A50": (2, 0, 1),
    "A60": (0, 2, 1),
}

_GRID_M6 = (
    (0, 0, 0, 0, 0, 0),
    (0, 2, 1, 1, 3, 3),
    (0, 3, 2, 0, 2, 1),
    (0, 3, 0, 2, 1, 2),
    (0, 1, 2, 3, 0, 2),
    (0, 1, 3, 2, 2, 0),
)

_GRID_M61 = (
    (0, 0, 0, 0, 0, 0),
    (0, 2, 0, 2, 1, 3),
    (0, 0, 2, 1, 2, 3),
    (0, 3, 2, 2, 0, 1),
    (0, 2, 3, 0, 2, 1),
    (0, 1, 1, 3, 3, 2),
)

# Transcribed reference grids that fail exact verification (the A2 rows 5-6
# break both symmetry and row orthogonality; A40 differs from the template in
# cell (5, 3) and breaks orthogonality against the constant row). Kept only so
# the audit report can show the failing reading next to the verified entry.
DISPUTED_READINGS: dict[str, tuple[tuple[int, ...], ...]] = {
    "A2": (
        (0, 0, 0, 0, 0, 0),
        (0, 0, 2, 1, 2, 1),
        (0, 2, 0, 1, 1, 2),
        (0, 1, 1, 0, 2, 2),
        (0, 2, 1, 1, 0, 2),
        (0, 2, 1, 2, 1, 0),
    ),
    "A40": (
        (0, 2, 1, 1, 2, 0),
        (2, 0, 1, 2, 1, 0),
        (2, 2, 2, 2, 2, 2),
        (0, 2, 0, 2, 1, 1),
        (2, 0, 0, 1, 2, 1),
        (0, 0, 2, 2, 1, 2),
    ),
}


class CatalogEntry(Record):
    __slots__ = ("name", "matrix", "note")
    name: str
    matrix: ButsonMatrix
    note: str


def agaian_variant(ex: int, ey: int, ez: int) -> ButsonMatrix:
    """Substitute w^ex, w^ey, w^ez for x, y, z in the three-parameter template.

    Exponents are reduced mod 3 and must then be a permutation of 0, 1, 2.
    """
    exps = {"x": ex % 3, "y": ey % 3, "z": ez % 3}
    if sorted(exps.values()) != [0, 1, 2]:
        raise ValueError("x, y, z must be a permutation of the cube roots of unity")
    return ButsonMatrix(3, [[exps[ch] for ch in row] for row in TEMPLATE])


def diagonal_normalized(b: ButsonMatrix) -> ButsonMatrix:
    """Row permutation placing exponent 0 on the whole diagonal.

    It is the first such permutation in itertools order, the lexicographic
    order in which the standard-equivalence search walks row permutations.
    """
    e = b.exponents
    perm = next((p for p in permutations(range(b.n))
                 if all(e[i][j] == 0 for j, i in enumerate(p))), None)
    if perm is None:
        raise ValueError("no row permutation puts unit entries on the diagonal")
    return b.permuted(perm, range(b.n))


def agaian_symmetric(a: float) -> np.ndarray:
    """Real symmetric family: the A2 pattern with w replaced by a real number a."""
    if not math.isfinite(a):
        raise ValueError("parameter must be a finite real number")
    import numpy as np

    a = float(a)
    values = (1.0, a, a * a)
    return np.array([[values[e] for e in row] for row in get("A2").exponents], dtype=np.float64)


def _build_catalog() -> dict[str, CatalogEntry]:
    variants = {name: agaian_variant(*exps) for name, exps in VARIANT_ASSIGNMENTS.items()}
    a01, a02, a03 = (dephase(variants[name])[0] for name in ("A10", "A20", "A30"))
    # Core entry (i, j) is w where j - i is a nonzero square mod 5, w^2 where
    # it is a non-square, and 1 on the diagonal.
    a1 = ButsonMatrix(3, [[0] * 6] + [[0] + [min((j - i) % 5, (i - j) % 5) for j in range(5)]
                                      for i in range(5)])
    rows = [
        ("A1", a1, "symmetric unit-diagonal form; the isolation candidate"),
        ("A2", diagonal_normalized(a02),
         "diagonal-normalized row permutation of A02 (symmetric; the transcribed "
         "grid in DISPUTED_READINGS is not orthogonal)"),
        ("A3", diagonal_normalized(a03), "symmetric unit-diagonal form derived from A03"),
    ]
    for name, (ex, ey, ez) in VARIANT_ASSIGNMENTS.items():
        note = f"template output for assignment exponents ({ex}, {ey}, {ez})"
        if name == "A40":
            note = ("template output for x=w^2, y=w, z=1 (the transcribed grid in "
                    "DISPUTED_READINGS differs in one cell and is not orthogonal)")
        rows.append((name, variants[name], note))
    rows += [
        ("A01", a01, "standard (dephased) form of A10"),
        ("A02", a02, "standard (dephased) form of A20"),
        ("A03", a03, "standard (dephased) form of A30; coincides with A01 entrywise"),
        ("M6", ButsonMatrix(4, _GRID_M6), "self-adjoint comparator, order-4 entries"),
        ("M61", ButsonMatrix(4, _GRID_M61),
         "row/column-permuted phase-equivalent companion of M6"),
        ("F6", ButsonMatrix(6, [[(i * j) % 6 for j in range(6)] for i in range(6)]),
         "6x6 Fourier matrix, known-inequivalent comparator"),
    ]
    return {name: CatalogEntry(name, matrix, note) for name, matrix, note in rows}


_CATALOG = _build_catalog()


def names() -> list[str]:
    return list(_CATALOG)


def entries() -> list[CatalogEntry]:
    return list(_CATALOG.values())


def get(name: str) -> ButsonMatrix:
    try:
        return _CATALOG[name].matrix
    except KeyError:
        raise KeyError(f"unknown catalog name {name!r}; known: {', '.join(_CATALOG)}")
