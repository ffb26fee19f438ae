"""Butson exponent grids, Hadamard verification, and dephasing.

A Butson matrix of order q is stored as an n x n grid of root-of-unity
exponents reduced mod q. A general complex matrix (a `C` grid) is parsed into
a tuple of row tuples of Python complex; the numeric check and the text
format also take any square nested sequence, numpy arrays included.

numpy is imported inside the functions that build arrays, never at module
level, and no subcommand calls one of them: every subcommand, on `BH` and `C`
grids and catalog names alike, runs without numpy. It is loaded only by the
three functions that return arrays, `ButsonMatrix.to_complex`,
`invariants.deformation_system` and `catalog.agaian_symmetric`, and by
`invariants.eig_real_symmetric`, which calls LAPACK.
"""

from __future__ import annotations

import math
from operator import index
from typing import TYPE_CHECKING

from .cyclo import CycInt

if TYPE_CHECKING:
    import numpy as np

# Largest accepted root order, the bound the BH text format documents.
# Exponents are Python ints everywhere, so this is an input limit, not an
# overflow guard. Exact cyclotomic arithmetic costs O(q) per ring element, so
# the exact checks and charpoly_exact run at the grid's own order (see
# _divided_order), and their results stay there: a grid written over 2**62
# whose own order is 2 costs what it costs at q = 2, while one whose own
# order is large is slow long before the bound.
MAX_ORDER = 1 << 62


class Record:
    """Immutable value with named fields, the base of the library's value types.

    A direct subclass lists its fields in __slots__. The constructor takes
    every field, positionally or by keyword, then calls __post_init__, which
    checks the values and may normalize them with object.__setattr__.
    Afterwards a field can be neither set nor deleted. Records are equal when
    they have the same type and equal fields, and hash accordingly.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if kwargs:
            args += tuple(kwargs.pop(name) for name in names[len(args):] if name in kwargs)
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}, "
                            "each exactly once")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # Rebuild through the constructor: pickle and copy would otherwise
        # restore the slots with the __setattr__ that refuses them.
        return type(self), self._values()


class PhaseVector(Record):
    """Diagonal of q-th-root phases, stored as exponents mod q."""

    __slots__ = ("q", "exps")
    q: int
    exps: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError("root order must be positive")
        object.__setattr__(self, "exps", tuple(index(e) % self.q for e in self.exps))

    def __len__(self) -> int:
        return len(self.exps)


class ButsonMatrix(Record):
    """Square grid of exponents in [0, q), one entry per q-th root of unity."""

    __slots__ = ("q", "exponents")
    q: int
    exponents: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        q = self.q
        if q < 1:
            raise ValueError("root order must be positive")
        if q > MAX_ORDER:
            raise ValueError(f"root order {q} exceeds the supported maximum 2**62")
        rows = tuple(tuple(index(e) % q for e in row) for row in self.exponents)
        n = len(rows)
        if n < 1 or any(len(row) != n for row in rows):
            raise ValueError("exponent grid must be square and nonempty")
        object.__setattr__(self, "exponents", rows)

    @property
    def n(self) -> int:
        return len(self.exponents)

    def entry(self, i: int, j: int) -> int:
        return self.exponents[i][j]

    def to_complex(self) -> np.ndarray:
        import numpy as np

        roots = [
            complex(math.cos(2.0 * math.pi * m / self.q),
                    math.sin(2.0 * math.pi * m / self.q))
            for m in range(self.q)
        ]
        return np.array([[roots[e] for e in row] for row in self.exponents],
                        dtype=np.complex128)

    def to_order(self, q2: int) -> ButsonMatrix:
        """Rewrite the grid over a multiple q2 of q without changing the matrix."""
        if q2 % self.q:
            raise ValueError(f"{self.q} does not divide {q2}")
        m = q2 // self.q
        if m == 1:  # the grid is immutable, so it need not be copied
            return self
        return ButsonMatrix(q2, [[e * m for e in row] for row in self.exponents])

    def conjugated(self) -> ButsonMatrix:
        """Entrywise complex conjugate (exponents negated mod q)."""
        return ButsonMatrix(self.q, [[-e for e in row] for row in self.exponents])

    def permuted(self, row_perm, col_perm) -> ButsonMatrix:
        """Grid with new (i, j) entry taken from (row_perm[i], col_perm[j])."""
        n = self.n
        rp, cp = tuple(row_perm), tuple(col_perm)
        if sorted(rp) != list(range(n)) or sorted(cp) != list(range(n)):
            raise ValueError("permutations must be bijections on row/column indices")
        return _transformed(self, rp, cp, (0,) * n, (0,) * n)


def _transformed(b: ButsonMatrix, row_perm, col_perm, left, right) -> ButsonMatrix:
    """Grid with entry (i, j) = left[i] + b[row_perm[i]][col_perm[j]] + right[j].

    The one formula behind ButsonMatrix.permuted, rephase and
    equivalence.apply_witness, each of which validates its own arguments
    first: permutations of range(n) and exponent sequences of length n.
    """
    e = b.exponents
    return ButsonMatrix(b.q, [[x + e[r][c] + y for c, y in zip(col_perm, right)]
                              for r, x in zip(row_perm, left)])


def is_hadamard_exact(b: ButsonMatrix) -> bool:
    """Exact row orthogonality: every off-diagonal row inner product is 0 in Z[zeta_q].

    The test runs on _own_order(b), whose q is often far smaller than b's.
    """
    d = _own_order(b)
    q, n, e = d.q, d.n, d.exponents
    for i in range(n):
        for j in range(i + 1, n):
            counts = [0] * q
            for k in range(n):
                counts[(e[i][k] - e[j][k]) % q] += 1
            if CycInt(q, counts):
                return False
    return True


def _complex_rows(m) -> list[list[complex]]:
    """Rows of a square nested sequence, each entry converted with complex()."""
    try:
        rows = [[complex(v) for v in row] for row in m]
    except TypeError:
        raise ValueError("matrix must be square") from None
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    return rows


def is_hadamard_numeric(m, tol: float) -> bool:
    """Float check: unimodular entries and M M* = n I within tol.

    m is any square nested sequence of numbers, a 2-D ndarray included; each
    entry is converted with complex(). Each Gram entry is summed with
    math.fsum over its float products, so every sum is correctly rounded.
    Every deviation must be <= tol, which a NaN never is, so a NaN or
    infinite entry gives False.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be a positive finite number")
    rows = _complex_rows(m)
    n = len(rows)
    if not all(abs(abs(v) - 1.0) <= tol for row in rows for v in row):
        return False
    # M M* is Hermitian and fsum of negated terms is the negated sum, so the
    # upper triangle decides.
    for i, a in enumerate(rows):
        for j in range(i, n):
            pairs = list(zip(a, rows[j]))
            re = math.fsum(p for x, y in pairs for p in (x.real * y.real, x.imag * y.imag))
            im = math.fsum(p for x, y in pairs for p in (x.imag * y.real, -x.real * y.imag))
            if not abs(complex(re - (n if i == j else 0), im)) <= tol:
                return False
    return True


def dephase(b: ButsonMatrix) -> tuple[ButsonMatrix, PhaseVector, PhaseVector]:
    """Standard form plus the phase vectors that reconstruct the input.

    Left phases (inverses of the first column) are applied first, then right
    phases clear the resulting first row, so the result has first row and
    column all exponent 0 and is unique for a fixed row/column order. The
    returned vectors satisfy rephase(dephased, left, right) == b.
    """
    q, n, e = b.q, b.n, b.exponents
    left = PhaseVector(q, tuple(e[i][0] for i in range(n)))
    right = PhaseVector(q, tuple((e[0][j] - e[0][0]) % q for j in range(n)))
    return ButsonMatrix(q, _dephased_exponents(e, q)), left, right


def _dephased_exponents(e, q: int) -> list[list[int]]:
    """The exponent grid of dephase(ButsonMatrix(q, e))[0], without building it."""
    return [[(x - row[0] - y + e[0][0]) % q for x, y in zip(row, e[0])] for row in e]


def _divided_order(b: ButsonMatrix) -> ButsonMatrix:
    """b over its own order: q and every entry divided by their gcd.

    Dividing keeps every entry, since zeta_q^(g x) = zeta_(q/g)^x.
    """
    g = math.gcd(b.q, *(x for row in b.exponents for x in row))
    return b if g == 1 else ButsonMatrix(b.q // g, [[x // g for x in r] for r in b.exponents])


def _own_order(b: ButsonMatrix) -> ButsonMatrix:
    """The dephased grid of b over its own order (see _divided_order).

    Dephasing multiplies each row inner product by a unit and dividing keeps
    every entry, so both steps keep row orthogonality.
    """
    return _divided_order(dephase(b)[0])


def rephase(b: ButsonMatrix, left: PhaseVector, right: PhaseVector) -> ButsonMatrix:
    """Apply diagonal phases on both sides: entry (i, j) gains left[i] + right[j]."""
    if left.q != b.q or right.q != b.q:
        raise ValueError("phase vectors must share the matrix root order")
    if len(left) != b.n or len(right) != b.n:
        raise ValueError("phase vectors must have length n")
    return _transformed(b, range(b.n), range(b.n), left.exps, right.exps)


def format_matrix(m) -> str:
    """Render in the text interchange format (`BH q n` or `C n` header).

    A ButsonMatrix gives a `BH` grid. Anything else is a square nested
    sequence, a 2-D ndarray included, whose entries are converted with
    complex() and written as repr(real),repr(imag), so parse_matrix gives
    back every entry float for float.
    """
    if isinstance(m, ButsonMatrix):
        lines = [f"BH {m.q} {m.n}"]
        lines += [" ".join(str(e) for e in row) for row in m.exponents]
        return "\n".join(lines) + "\n"
    rows = _complex_rows(m)
    lines = [f"C {len(rows)}"]
    lines += [" ".join(f"{v.real!r},{v.imag!r}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


# Header fields of each text format; the last one is the dimension n.
_HEADERS = {"BH": "BH <q> <n>", "C": "C <n>"}


def _complex_entry(tok: str) -> complex:
    re_s, _, im_s = tok.partition(",")
    if not im_s:
        raise ValueError(f"complex token must be 're,im', got {tok!r}")
    return complex(float(re_s), float(im_s))


def parse_matrix(text: str) -> ButsonMatrix | tuple[tuple[complex, ...], ...]:
    """Parse the text interchange format; raises ValueError on malformed input.

    A `BH q n` grid gives a ButsonMatrix and a `C n` grid a tuple of n row
    tuples of complex. Both formats need n >= 1.
    """
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix input")
    header = lines[0].split()
    kind = header[0]
    if kind not in _HEADERS:
        raise ValueError(f"unknown matrix header {kind!r}")
    if len(header) != len(_HEADERS[kind].split()):
        raise ValueError(f"{kind} header must be '{_HEADERS[kind]}'")
    sizes = [int(tok) for tok in header[1:]]
    n = sizes[-1]
    if n < 1:
        raise ValueError(f"matrix dimension must be positive, got {n}")
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} matrix rows, got {len(lines) - 1}")
    grid = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != n:
            raise ValueError(f"expected {n} entries per row")
        grid.append(tuple(int(tok) if kind == "BH" else _complex_entry(tok) for tok in toks))
    return ButsonMatrix(sizes[0], grid) if kind == "BH" else tuple(grid)
