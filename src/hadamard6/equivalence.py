"""Standard and unitary equivalence deciders with checkable witnesses.

Unitary equivalence is exact equality of scaled characteristic polynomials,
tested trace first: a polynomial is computed only for a grid whose exact
trace ties with the one it is compared against.
Standard equivalence is decided by exhaustive search over row permutations;
for each row permutation the compatible column permutations are recovered by
exact matching of dephased column vectors, which enumerates the same set as a
blind double loop. Dephasing cancels arbitrary unimodular diagonals, so the
decision procedure is complete even though returned witnesses carry only
q-th-root phases.

The search is pure Python and depth first: a row permutation is extended
one row at a time, in itertools order. Rows of b are dephased against a
pivot row and each first column c0, and bitmasks over c0 record which
dephased rows have the exponent multiset of each target row (row masks) and
which pair with a second row as the target's rows pair with its row 1 (pair
masks). A prefix that leaves no c0 is pruned with every permutation below
it, which is 2-dimensional refinement in the sense of McKay & Piperno (2014)
with pairs anchored at one row. The c0 left at a full permutation go to the
exact test, a comparison of sorted dephased columns. Between Butson Hadamard
matrices of prime order, whose row differences take each value equally
often, row masks filter nothing; pair masks can, except at q = 2.

Row masks are packed on dense grids, q <= n^2, the rule row_keys shares:
row s minus the pivot row, u, is one integer P = sum_j X^u_j, and its
multiset dephased against c0 is P rotated down by u[c0] digits, so each
distinct value of the row costs one rotation and one lookup among the
target rows, packed alike, and no tuple is built or sorted. The tuples of
dephased rows, which the pair masks and the exact test read, are built from
the same u only for a pivot whose prefix reaches a leaf, and the target's
pair profiles at the first leaf that reads them; a sparse grid keys its row
masks by those tuples from the start. The choice is made once per target
(_row_masker).

With the prescreen on, rows are also coloured by their keys
(invariants.row_keys): the Haagerup pair multisets of each row with every
other row, which a witness carries from row sigma(k) of b onto row k of a.
At q <= n^2 each multiset is one packed integer, so keys and their sums
compare as integers; both grids are keyed at one (n, q), which is all the
keys need to compare. Grids whose key multisets differ are a miss without a
walk; the keys also sum to the Haagerup sets (invariants.haagerup_set), and
the miss counts 0 row permutations where those differ and all n! where they
agree. Otherwise the walk tries as sigma(k) only rows of b with the key of
row k, so pivots of another colour build no masks. With the prescreen off
the walk runs on the masks alone, as described above. classify lifts the
batch to one root order, keys each matrix once and searches only pairs with
equal key multisets, with the same colours; the target side of a walk
(_Target) is built once per class.

Each search is bounded by SEARCH_BUDGET nodes, the exact tests at the
leaves included; a search that spends it raises SearchBudgetExceeded
instead of answering.
"""

from __future__ import annotations

import math
from functools import cache
from operator import add

from .cyclo import CycInt
from .invariants import _haagerup_sum, _packed_keys, charpoly_exact, poly_eq, row_keys
from .matrices import ButsonMatrix, PhaseVector, Record, _dephased_exponents, _transformed


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
        if self.left.q != self.right.q:
            raise ValueError("witness phase vectors must share one root order")


class EquivVerdict(Record):
    __slots__ = ("equivalent", "witness", "search_stats")
    equivalent: bool
    witness: Witness | None
    search_stats: int  # row permutations covered, pruned ones included

    def __post_init__(self) -> None:
        if self.equivalent and self.witness is None:
            raise ValueError("an equivalent verdict must carry a witness")
        if not self.equivalent and self.witness is not None:
            raise ValueError("a miss carries no witness")


def apply_witness(w: Witness, b: ButsonMatrix) -> ButsonMatrix:
    """Exponent arithmetic: out[i][j] = left[i] + b[row_perm[i]][col_perm[j]] + right[j]."""
    if len(w.row_perm) != b.n:
        raise ValueError("witness size does not match the matrix")
    if w.left.q != b.q:
        raise ValueError("witness root order does not match the matrix")
    return _transformed(b, w.row_perm, w.col_perm, w.left.exps, w.right.exps)


def unitary_equivalent(b1: ButsonMatrix, b2: ButsonMatrix) -> bool:
    """Equality of spectra of B/sqrt(n), tested exactly on scaled polynomials:
    the unitary relation of classify, trace first, on one pair."""
    return classify([b1, b2], "unitary") == [[0, 1]]


def _trace(b: ButsonMatrix) -> CycInt:
    """sum_i zeta^e_ii, exactly, at the order of the diagonal: q over the gcd
    of q and the diagonal exponents, which divides the grid's own order (see
    charpoly_exact) and is cheaper to find."""
    diagonal = [row[i] for i, row in enumerate(b.exponents)]
    g = math.gcd(b.q, *diagonal)
    counts = [0] * (max(diagonal) // g + 1)
    for x in diagonal:
        counts[x // g] += 1
    return CycInt(b.q // g, counts)


def _same_trace(t1: CycInt, t2: CycInt) -> bool:
    # Compared at the lcm of the two orders, as poly_eq compares coefficients.
    q = math.lcm(t1.q, t2.q)
    return t1.to_order(q) == t2.to_order(q)


def _common_order(mats: list[ButsonMatrix]) -> list[ButsonMatrix]:
    """mats lifted to the lcm of their root orders, so their exponents and
    row keys compare."""
    q = math.lcm(*(m.q for m in mats))
    return [m.to_order(q) for m in mats]


# Node budget of standard_equivalent, read at each call. A node is one
# (prefix, row) extension tried or one first column c0 tested exactly at a
# leaf. A full tree at n has sum n!/(n - k)! extensions over k = 1..n and at
# most n * n! exact tests; this is that worst case at n = 9 (986,409 +
# 3,265,920), so no search with n <= 9 trips it.
SEARCH_BUDGET = 4_252_329


class SearchBudgetExceeded(RuntimeError):
    """The standard search tried its budget of nodes without a verdict."""

    def __init__(self, nodes: int, covered: int) -> None:
        super().__init__(f"standard search stopped after {nodes} nodes, "
                         f"with {covered} row permutations covered")
        self.nodes = nodes
        self.covered = covered


def standard_equivalent(b1: ButsonMatrix, b2: ButsonMatrix, prescreen: bool = True) -> EquivVerdict:
    """Exhaustive, exact decision of b1 = D1 P1 b2 P2 D2.

    Returns the lexicographically smallest (row_perm, col_perm) witness when
    one exists; the witness is verified by apply_witness before returning.
    With prescreen enabled a Haagerup multiset mismatch refutes immediately
    (equal multisets are a necessary condition for equivalence), and the
    row keys of both grids (see row_keys) colour the rows: a mismatch of
    their multisets is a miss of all n! row permutations, and otherwise
    sigma[k] = s only where row s of b2 has the key of row k of b1.

    Row permutations sigma are walked depth first, as prefixes
    sigma[0..k] in itertools order. The row masks of pivot sigma[0] are
    built once per pivot (see _row_masker), and its tuple rows and the pair
    masks of sigma[1] (see _masks) the first time a row-mask chain under it
    reaches a leaf with first columns c0 left; from then on the pair masks
    are ANDed at every depth of that subtree. A prefix whose last row has
    the wrong colour, or that has no c0 left, is pruned with its
    (n - k - 1)! leaves, and each c0 left at a leaf is tested exactly, in
    ascending order. search_stats is the 1-based itertools position of the
    row permutation that gave the witness, or n! for a miss.

    At most SEARCH_BUDGET nodes are tried, a node being one (prefix, row)
    extension or one exact test of a c0; the exact tests at a leaf are
    charged before they run. Running out raises SearchBudgetExceeded.
    """
    if b1.n != b2.n:
        raise ValueError("matrices of different dimension are not comparable")
    a, b = _common_order([b1, b2])
    n = a.n
    if not prescreen:
        return _search(_Target(a), b, [(1 << n) - 1] * n)
    ka, kb = row_keys(a), row_keys(b)
    if sorted(ka) != sorted(kb):
        refuted = _haagerup_sum(n, a.q, ka) != _haagerup_sum(n, a.q, kb)
        return EquivVerdict(False, None, 0 if refuted else math.factorial(n))
    return _search(_Target(a), b, _colours(ka, kb))


def _colours(ka: list[tuple], kb: list[tuple]) -> list[int]:
    """Bit s of colours[k] is set when row s of b has the key of row k of a."""
    rows_of: dict[tuple, int] = {}
    for s, key in enumerate(kb):
        rows_of[key] = rows_of.get(key, 0) | 1 << s
    return [rows_of.get(key, 0) for key in ka]


class _Target:
    """The target side of a walk, built once per target grid a: a dephased
    (rows), its columns 1..n-1 (cols) and their sorted list (want), the row
    masks of a pivot against a (row_masks, see _row_masker) and a's pair
    profiles (pairs, see _profiles), which the walk builds at the first leaf
    that reads them."""

    __slots__ = ("a", "rows", "cols", "want", "row_masks", "pairs")

    def __init__(self, a: ButsonMatrix) -> None:
        q = a.q
        self.a = a
        self.rows = _dephased_exponents(a.exponents, q)
        self.cols = list(zip(*self.rows[1:]))
        self.want = sorted(self.cols)
        self.row_masks = _row_masker(self.rows, q)
        self.pairs = None


def _search(t: _Target, b: ButsonMatrix, colours: list[int]) -> EquivVerdict:
    """The depth-first walk of standard_equivalent over t.a and b, both at
    one order q, with sigma[k] among the rows set in colours[k]."""
    a = t.a
    n, q = a.n, a.q
    limit = SEARCH_BUDGET
    eb = b.exponents
    # leaves[k]: row permutations under a prefix sigma[0..k].
    leaves = [math.factorial(n - 1 - k) for k in range(n)]
    sigma = [0] * n
    hits = [0] * n  # hits[k]: the c0 left by sigma[0..k]
    nxt = [0] * n  # nxt[k]: the next row to try at depth k
    nodes, covered, used, k = n, 0, 0, 0  # the root tries n pivots
    if nodes > limit:
        raise SearchBudgetExceeded(0, 0)
    pair = None  # the pair masks of sigma[1], once built
    while k >= 0:
        s = nxt[k]
        while s < n and used >> s & 1:
            s += 1
        if s == n:
            k -= 1
            used ^= 1 << sigma[k]
            if k <= 1:
                pair = None
            continue
        nxt[k] = s + 1
        if not colours[k] >> s & 1:
            covered += leaves[k]
            continue
        if k:
            h = hits[k - 1] & row_masks[k][s]
            if h and pair is not None:
                h &= pair[k][s]
            if not h:
                covered += leaves[k]
                continue
        else:
            pivoted = _pivoted(eb, s, q)
            # Target row 0 and the pivot row s dephase to zeros, so the
            # pivot's own row mask is full and h starts full.
            row_masks, table = t.row_masks(pivoted)
            h = (1 << n) - 1
        sigma[k] = s
        if k < n - 1:
            hits[k] = h
            used |= 1 << s
            k += 1
            if nodes + n - k > limit:
                raise SearchBudgetExceeded(nodes, covered)
            nodes += n - k
            nxt[k] = 0
            continue
        if table is None:  # the first leaf under this pivot
            table = _dephased_rows(pivoted, q)
        rows, groups = table
        if pair is None and n > 2:
            if t.pairs is None:
                t.pairs = _profiles(t.rows, 1, q)
            pair = _masks(groups, t.pairs, sigma[1], q)
            for i in range(2, n):
                h &= pair[i][sigma[i]]
        tests = h.bit_count()
        if nodes + tests > limit:
            raise SearchBudgetExceeded(nodes, covered)
        nodes += tests
        tau = _exact(rows, sigma, h, t.cols, t.want)
        if tau:
            witness = _build_witness(a, b, tuple(sigma), tau, q)
            if apply_witness(witness, b) != a:
                raise RuntimeError("witness verification failed; search is inconsistent")
            return EquivVerdict(True, witness, covered + 1)
        covered += 1
    return EquivVerdict(False, None, covered)


def _exact(rows, sigma, hits: int, target_cols, want) -> tuple[int, ...] | None:
    """The smallest column permutation tau, over the first columns c0 in hits,
    under which row permutation sigma maps the dephased target onto b."""
    while hits:
        c0 = (hits & -hits).bit_length() - 1
        hits &= hits - 1
        cols = list(zip(*[rows[s][c0] for s in sigma[1:]]))
        if sorted(cols) != want:
            continue
        # Equal columns are interchangeable, so giving each target
        # column the smallest unused equal column yields the smallest tau.
        spare: dict[tuple[int, ...], list[int]] = {}
        for c in reversed(range(len(cols))):
            if c != c0:
                spare.setdefault(cols[c], []).append(c)
        return (c0, *(spare[col].pop() for col in target_cols[1:]))
    return None


def _profiles(target, k: int, q: int) -> dict[tuple, list[int]]:
    """Target rows i keyed by the multiset of column pairs of rows (k, i),
    each pair (x, y) encoded as x*q + y. Row 0 of a dephased target is all
    zeros, so with k = 0 the key is the exponent multiset of row i."""
    scaled = [x * q for x in target[k]]
    found: dict[tuple, list[int]] = {}
    for i, row in enumerate(target):
        found.setdefault(tuple(sorted(map(add, scaled, row))), []).append(i)
    return found


def _pivoted(eb, r: int, q: int):
    """(us, cols): each row u of b minus its pivot row r, mod q, and the
    columns of u grouped by value, {y: bitmask of the c0 with u[c0] = y}."""
    us, cols = [], []
    for row in eb:
        u = [(x - y) % q for x, y in zip(row, eb[r])]
        col: dict[int, int] = {}
        for c0, y in enumerate(u):
            col[y] = col.get(y, 0) | 1 << c0
        us.append(u)
        cols.append(col)
    return us, cols


def _row_masker(target, q: int):
    """The row-mask builder of a walk against target, chosen once by the
    order: a function from a pivot (see _pivoted) to (masks, table), masks
    as _masks builds them.

    A dense grid, q <= n^2 as in invariants.row_keys, keys each target row
    by its exponent multiset packed into one integer, sum_j X^target[i][j]
    with X = 2^w, and packs row s of b once, P = sum_j X^u_j; the multiset
    of u - u[c0] is P rotated down by u[c0] digits, so each distinct value
    of the row costs one rotation and one lookup, and table is None. A digit
    of w bits holds any count up to n. A sparse grid keys the sorted tuples
    of _dephased_rows, and table is that (rows, groups).

    The rule is the one row_keys uses, not the crossover of the masks:
    with either path forced, prescreen-off walks ran 1.5 to 2.5 times as
    fast on packed masks as on tuples for misses (random pairs) and 1.0 to
    1.7 times for hits (random transforms) at n^2 < q <= 4n^2, n = 4, 6 and
    8; hits broke even near q = 16n^2, misses between 16n^2 and 64n^2
    (2-core x86-64, Python 3.11). Tuples stay for orders where a packed row,
    wq bits, is too wide to pay, such as q = 2^62.
    """
    n = len(target)
    if not _packed_keys(n, q):
        by_tuple = _profiles(target, 0, q)

        def tuple_masks(pivoted):
            table = _dephased_rows(pivoted, q)
            return _masks(table[1], by_tuple), table
        return tuple_masks
    w = n.bit_length()
    bits = w * q
    full = (1 << bits) - 1
    at = [1 << w * x for x in range(q)].__getitem__
    by_packed: dict[int, list[int]] = {}
    for i, row in enumerate(target):
        by_packed.setdefault(sum(map(at, row)), []).append(i)

    def packed_masks(pivoted):
        masks = [[0] * n for _ in range(n)]
        for s, (u, col) in enumerate(zip(*pivoted)):
            packed = sum(map(at, u))
            for y, m in col.items():
                shift = w * y
                for i in by_packed.get(packed >> shift | (packed << bits - shift) & full, ()):
                    masks[i][s] |= m
        return masks, None
    return packed_masks


def _dephased_rows(pivoted, q: int):
    """(rows, groups) for the rows of b under one pivot (see _pivoted):
    rows[s][c0] is row s dephased against column c0 too. Columns c0 holding
    the same value of row s share one tuple, and groups[s] lists each
    distinct tuple once with its bitmask of c0."""
    rows, groups = [], []
    for u, col in zip(*pivoted):
        shifted = {y: tuple([(x - y) % q for x in u]) for y in col}
        rows.append([shifted[y] for y in u])
        groups.append([(shifted[y], m) for y, m in col.items()])
    return rows, groups


def _masks(groups, profiles: dict[tuple, list[int]], anchor: int | None = None,
           q: int = 0) -> list[list[int]]:
    """Bit c0 of masks[i][s] is set when row s, dephased against column c0,
    has the key of target row i in profiles (see _profiles): its exponent
    multiset or, given an anchor row, the multiset of its column pairs with
    that row. Each distinct dephased row, or pair of them, is keyed once."""
    n = len(groups)
    masks = [[0] * n for _ in range(n)]
    if anchor is None:
        for s, group in enumerate(groups):
            for row, m in group:
                for i in profiles.get(tuple(sorted(row)), ()):
                    masks[i][s] |= m
        return masks
    leads = [([x * q for x in row], m) for row, m in groups[anchor]]
    for s, group in enumerate(groups):
        for lead, m in leads:
            for row, ms in group:
                bits = m & ms
                if bits:
                    for i in profiles.get(tuple(sorted(map(add, lead, row))), ()):
                        masks[i][s] |= bits
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


def _partition(size: int, related) -> list[list[int]]:
    # Indices 0..size-1 in classes, each index compared with the first member
    # of every class so far and appended to the first it is related to.
    classes: list[list[int]] = []
    for idx in range(size):
        for cls in classes:
            if related(cls[0], idx):
                cls.append(idx)
                break
        else:
            classes.append([idx])
    return classes


def classify(mats, relation: str) -> list[list[int]]:
    """Partition indices of mats under 'standard' or 'unitary' equivalence.

    Classes are built by _partition: ordered by first member and listed in
    input order, so the output is deterministic. The unitary relation is
    equality of scaled characteristic polynomials, tested trace first: the
    trace is minus the x^(n-1) coefficient, so each matrix's polynomial is
    computed at most once, and not at all when no matrix it is compared with
    has its trace.
    """
    mats = list(mats)
    if not mats:
        raise ValueError("classify needs at least one matrix")
    if any(m.n != mats[0].n for m in mats):
        raise ValueError("matrices of different dimension are not comparable")
    if relation == "unitary":
        # Trace first: a matrix's polynomial is computed once, and only when
        # its trace ties with the trace it is compared against.
        traces = [_trace(m) for m in mats]
        poly = cache(lambda i: charpoly_exact(mats[i]))
        related = lambda i, j: (_same_trace(traces[i], traces[j])
                                and poly_eq(poly(i), poly(j)))
    elif relation == "standard":
        # Each matrix is lifted to the batch's common order and keyed once;
        # only pairs with equal multisets of row keys are searched, with the
        # rows coloured by their keys as in standard_equivalent. A class's
        # first member is the target of every search against it, and its
        # target side is built once.
        mats = _common_order(mats)
        keys = [row_keys(m) for m in mats]
        key_sets = [sorted(k) for k in keys]
        target = cache(lambda i: _Target(mats[i]))
        related = lambda i, j: (key_sets[i] == key_sets[j] and _search(
            target(i), mats[j], _colours(keys[i], keys[j])).equivalent)
    else:
        raise ValueError("relation must be 'standard' or 'unitary'")
    return _partition(len(mats), related)
