import math
import random
from functools import partial
from itertools import permutations

import pytest

from hadamard6 import catalog, equivalence
from hadamard6.equivalence import (
    EquivVerdict,
    SearchBudgetExceeded,
    Witness,
    apply_witness,
    classify,
    standard_equivalent,
    unitary_equivalent,
)
from hadamard6.invariants import charpoly_exact, haagerup_set, poly_eq, row_keys
from hadamard6.matrices import ButsonMatrix, PhaseVector, dephase, rephase

rng = random.Random(99)


def identity_witness(b):
    n = b.n
    zero = PhaseVector(b.q, (0,) * n)
    return Witness(tuple(range(n)), tuple(range(n)), zero, zero)


def test_unitary_examples():
    assert unitary_equivalent(catalog.get("A01"), catalog.get("A03"))
    assert not unitary_equivalent(catalog.get("M6"), catalog.get("M61"))
    b = catalog.get("A10")
    assert unitary_equivalent(b, b)


def counting_charpolys(monkeypatch):
    """The grids equivalence computes polynomials of, in call order."""
    calls = []

    def counting(b):
        calls.append(b)
        return charpoly_exact(b)

    monkeypatch.setattr(equivalence, "charpoly_exact", counting)
    return calls


def test_unitary_equivalent_compares_traces_first(monkeypatch):
    calls = counting_charpolys(monkeypatch)
    g = catalog.get
    # Traces 2 - 2z and -2 + 2z; -4 (q = 4) and 0 (F6, lifted to q = 12).
    assert not unitary_equivalent(g("A10"), g("A20"))
    assert not unitary_equivalent(g("M61"), g("F6").to_order(12))
    assert calls == []
    # Equal traces (0, and 6 on the unit diagonals) need the polynomials.
    assert not unitary_equivalent(g("M6"), g("F6"))
    assert unitary_equivalent(g("A1"), g("A2").to_order(6))
    assert calls == [g("M6"), g("F6"), g("A1"), g("A2").to_order(6)]


def similar_transform(r, b):
    """P D b D^-1 P^T: the same characteristic polynomial, the diagonal permuted."""
    perm = list(range(b.n))
    r.shuffle(perm)
    d = [r.randrange(b.q) for _ in range(b.n)]
    return rephase(b.permuted(perm, perm), PhaseVector(b.q, tuple(d)),
                   PhaseVector(b.q, tuple(-x % b.q for x in d)))


def test_classify_unitary_matches_pairwise_polynomials():
    # Batches of random grids that share one diagonal, so their traces tie
    # while their polynomials differ, with similar transforms of them and
    # copies lifted to twice their order.
    r = random.Random(808)
    tied_apart = 0
    for _ in range(12):
        n, q = r.choice((3, 4, 5, 6)), r.choice((2, 3, 4, 6))
        diagonal = [r.randrange(q) for _ in range(n)]
        sources = []
        for _ in range(3):
            rows = [[r.randrange(q) for _ in range(n)] for _ in range(n)]
            for i, x in enumerate(diagonal):
                rows[i][i] = x
            sources.append(ButsonMatrix(q, rows))
        sources.append(random_grid(r, n, q))
        batch = []
        for _ in range(8):
            b = similar_transform(r, r.choice(sources))
            batch.append(b.to_order(2 * q) if r.random() < 0.3 else b)
        polys = [charpoly_exact(b) for b in batch]
        expected = []
        for idx in range(len(batch)):
            for cls in expected:
                if poly_eq(polys[cls[0]], polys[idx]):
                    cls.append(idx)
                    break
            else:
                expected.append([idx])
        assert classify(batch, "unitary") == expected
        traces = [equivalence._trace(b) for b in batch]
        tied_apart += sum(equivalence._same_trace(traces[i], traces[j])
                          and not poly_eq(polys[i], polys[j])
                          for i in range(len(batch)) for j in range(i))
    assert tied_apart >= 100


def test_unitary_dimension_mismatch():
    with pytest.raises(ValueError):
        unitary_equivalent(catalog.get("A1"), ButsonMatrix(3, [[0]]))


def test_apply_witness_identity():
    b = catalog.get("A1")
    assert apply_witness(identity_witness(b), b) == b


def test_apply_witness_row_swap():
    b = catalog.get("A1")
    n = b.n
    zero = PhaseVector(b.q, (0,) * n)
    w = Witness((1, 0, 2, 3, 4, 5), tuple(range(n)), zero, zero)
    swapped = apply_witness(w, b)
    assert swapped.exponents[0] == b.exponents[1]
    assert swapped.exponents[1] == b.exponents[0]
    assert swapped.exponents[2:] == b.exponents[2:]
    # permuted, rephase and apply_witness against the entrywise formula.
    r = random.Random(20261019)
    for n, q in [(1, 5), (1, 1 << 62), (2, 2), (4, 3), (6, 1 << 62), (7, 12)]:
        e = [[r.randrange(q) for _ in range(n)] for _ in range(n)]
        rp, cp = r.sample(range(n), n), r.sample(range(n), n)
        left, right = [r.randrange(q) for _ in range(n)], [r.randrange(q) for _ in range(n)]
        b, ident, zero = ButsonMatrix(q, e), list(range(n)), [0] * n
        lv, rv = PhaseVector(q, left), PhaseVector(q, right)
        cases = [(b.permuted(rp, cp), rp, cp, zero, zero),
                 (rephase(b, lv, rv), ident, ident, left, right),
                 (apply_witness(Witness(tuple(rp), tuple(cp), lv, rv), b), rp, cp, left, right)]
        for got, rows, cols, lft, rgt in cases:
            assert got.exponents == tuple(
                tuple((lft[i] + e[rows[i]][cols[j]] + rgt[j]) % q for j in range(n))
                for i in range(n))


def test_apply_witness_validates_sizes():
    b = catalog.get("A1")
    small = identity_witness(ButsonMatrix(3, [[0]]))
    with pytest.raises(ValueError):
        apply_witness(small, b)


def test_witness_validation():
    zero = PhaseVector(3, (0,) * 6)
    with pytest.raises(ValueError):
        Witness((0, 0, 1, 2, 3, 4), tuple(range(6)), zero, zero)
    with pytest.raises(ValueError):
        EquivVerdict(True, None, 1)
    # Phase vectors of two root orders: applied to BH 2 [[0, 0], [0, 1]],
    # zeta_3 would be read as -1.
    with pytest.raises(ValueError):
        Witness((0, 1), (0, 1), PhaseVector(2, (0, 0)), PhaseVector(3, (0, 1)))
    with pytest.raises(ValueError):
        EquivVerdict(False, Witness(tuple(range(6)), tuple(range(6)), zero, zero), 3)


def test_m6_m61_standard_equivalent_with_verified_witness():
    m6, m61 = catalog.get("M6"), catalog.get("M61")
    verdict = standard_equivalent(m6, m61)
    assert verdict.equivalent
    assert apply_witness(verdict.witness, m61) == m6
    assert verdict.search_stats >= 1


def test_standard_equivalence_is_symmetric_and_reflexive():
    m6, m61 = catalog.get("M6"), catalog.get("M61")
    assert standard_equivalent(m61, m6).equivalent
    v = standard_equivalent(m6, m6)
    assert v.equivalent and apply_witness(v.witness, m6) == m6


def test_unit_diagonal_forms_all_standard_equivalent():
    a1, a2, a3 = (catalog.get(n) for n in ("A1", "A2", "A3"))
    for x, y in ((a1, a2), (a1, a3), (a2, a3)):
        verdict = standard_equivalent(x, y)
        assert verdict.equivalent
        assert apply_witness(verdict.witness, y) == x


def test_transitivity_by_witness_composition():
    # Composing the A1~A2 and A2~A3 witnesses transports A3 all the way to A1.
    a1, a2, a3 = (catalog.get(n) for n in ("A1", "A2", "A3"))
    w12 = standard_equivalent(a1, a2).witness
    w23 = standard_equivalent(a2, a3).witness
    assert apply_witness(w12, apply_witness(w23, a3)) == a1
    assert standard_equivalent(a1, a3).equivalent


def test_equivalent_pairs_share_invariants():
    # Standard equivalence must preserve the Haagerup multiset and the defect.
    from hadamard6.invariants import defect, haagerup_set
    for x, y in (("M6", "M61"), ("A1", "A2"), ("A1", "A3")):
        bx, by = catalog.get(x), catalog.get(y)
        assert standard_equivalent(bx, by).equivalent
        assert haagerup_set(bx) == haagerup_set(by)
        assert defect(bx) == defect(by)


def test_a1_f6_refuted_with_and_without_prescreen():
    a1, f6 = catalog.get("A1"), catalog.get("F6")
    pre = standard_equivalent(a1, f6)
    assert not pre.equivalent and pre.witness is None and pre.search_stats == 0
    full = standard_equivalent(a1, f6, prescreen=False)
    assert not full.equivalent and full.search_stats == 720


def test_witness_is_deterministic_and_lex_minimal():
    m6, m61 = catalog.get("M6"), catalog.get("M61")
    w1 = standard_equivalent(m6, m61).witness
    w2 = standard_equivalent(m6, m61).witness
    assert w1 == w2
    # For a constructed row swap the returned witness must verify and be
    # lexicographically no larger than the swap itself (the matrix has
    # symmetries, so a smaller witness may exist and must win the tie-break).
    b = catalog.get("A10")
    swapped = b.permuted((1, 0, 2, 3, 4, 5), range(6))
    w = standard_equivalent(b, swapped).witness
    assert apply_witness(w, swapped) == b
    assert (w.row_perm, w.col_perm) <= ((1, 0, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5))


def test_random_transforms_are_recognized():
    b = catalog.get("M6")
    for _ in range(5):
        rp, cp = list(range(6)), list(range(6))
        rng.shuffle(rp)
        rng.shuffle(cp)
        left = PhaseVector(4, tuple(rng.randrange(4) for _ in range(6)))
        right = PhaseVector(4, tuple(rng.randrange(4) for _ in range(6)))
        other = rephase(b.permuted(rp, cp), left, right)
        verdict = standard_equivalent(b, other)
        assert verdict.equivalent
        assert apply_witness(verdict.witness, other) == b


def test_standard_equivalence_across_root_orders():
    # The same matrix written over order 3 and order 6 must be equivalent.
    a1 = catalog.get("A1")
    verdict = standard_equivalent(a1, a1.to_order(6))
    assert verdict.equivalent


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        standard_equivalent(catalog.get("A1"), ButsonMatrix(3, [[0]]))


def test_classify_unitary_counts(monkeypatch):
    calls = counting_charpolys(monkeypatch)
    for names, expected, computed in (
        # Six distinct traces: no polynomial at all.
        (("A10", "A20", "A30", "A40", "A50", "A60"), [[0], [1], [2], [3], [4], [5]], []),
        # A02's trace is its own; A01 and A03 are one grid.
        (("A01", "A02", "A03"), [[0, 2], [1]], [0, 2]),
        (("A1", "A2", "A3"), [[0, 1, 2]], [0, 1, 2]),
    ):
        calls.clear()
        # Distinct objects, so each call names its matrix by identity.
        mats = [ButsonMatrix(m.q, m.exponents) for m in map(catalog.get, names)]
        assert classify(mats, "unitary") == expected
        called = [next(i for i, m in enumerate(mats) if m is b) for b in calls]
        assert called == computed
        # At most one polynomial per matrix, and none for a matrix whose
        # trace no other matrix of the batch shares.
        traces = [equivalence._trace(m) for m in mats]
        tied = {i for i in range(len(mats)) for j in range(len(mats))
                if i != j and equivalence._same_trace(traces[i], traces[j])}
        assert len(set(called)) == len(called) and set(called) <= tied


def test_classify_standard(monkeypatch):
    calls = []

    def counting(b):
        calls.append(b)
        return row_keys(b)

    targets = []
    target_of = equivalence._Target
    monkeypatch.setattr(equivalence, "row_keys", counting)
    monkeypatch.setattr(equivalence, "_Target", lambda a: targets.append(a) or target_of(a))
    mats = [catalog.get(n) for n in ("A1", "A2", "A3", "F6")]
    # F6 has different row keys, so it lands alone.
    f6_at_order = mats[3]
    batch = [m.to_order(6) for m in mats[:3]] + [f6_at_order]
    classes = classify(batch, "standard")
    assert classes == [[0, 1, 2], [3]]
    assert calls == batch  # one set of row keys per matrix, none recomputed
    # A2 and A3 are both searched against A1, whose target side is built once.
    assert targets == [batch[0]]
    # Mixed root orders are keyed once each, lifted to their common order.
    mixed = [mats[0], mats[1].to_order(6), mats[2], mats[3]]
    calls.clear()
    targets.clear()
    assert classify(mixed, "standard") == [[0, 1, 2], [3]]
    assert calls == [m.to_order(6) for m in mixed]
    assert targets == [mixed[0].to_order(6)]


def test_classify_rejects_mixed_dimensions(monkeypatch):
    # Both relations refuse the batch before computing any invariant.
    def never(b):
        raise AssertionError("invariant computed for a batch of mixed dimension")

    monkeypatch.setattr(equivalence, "charpoly_exact", never)
    monkeypatch.setattr(equivalence, "row_keys", never)
    for relation in ("standard", "unitary"):
        with pytest.raises(ValueError, match="matrices of different dimension"):
            classify([catalog.get("A1"), catalog.get("F6"), ButsonMatrix(3, [[0]])], relation)


def test_classify_validates():
    with pytest.raises(ValueError):
        classify([], "unitary")
    with pytest.raises(ValueError):
        classify([catalog.get("A1")], "spectral")


# --- the masked search against a blind search over every (sigma, c0) -------

@pytest.fixture
def reference_standard(haagerup_reference):
    return partial(blind_standard, haagerup_reference)


def blind_standard(haagerup, b1, b2, prescreen=True):
    """Blind search: every (row permutation, c0) pair, exact column keys."""
    a, b = equivalence._common_order([b1, b2])
    q = a.q
    n = a.n
    if prescreen and haagerup(a) != haagerup(b):
        return EquivVerdict(False, None, 0)
    target = dephase(a)[0]
    want = {}
    for j in range(1, n):
        want.setdefault(tuple(target.entry(i, j) for i in range(1, n)), []).append(j)
    eb = b.exponents
    examined = 0
    for sigma in permutations(range(n)):
        examined += 1
        cols = [tuple((eb[sigma[i]][c] - eb[sigma[0]][c]) % q for i in range(1, n))
                for c in range(n)]
        for c0 in range(n):
            have = {}
            for c in range(n):
                if c != c0:
                    key = tuple((cols[c][i] - cols[c0][i]) % q for i in range(n - 1))
                    have.setdefault(key, []).append(c)
            if {k: len(v) for k, v in want.items()} != {k: len(v) for k, v in have.items()}:
                continue
            tau = [0] * n
            tau[0] = c0
            for key, js in want.items():
                for j, c in zip(js, have[key]):
                    tau[j] = c
            witness = equivalence._build_witness(a, b, sigma, tuple(tau), q)
            assert apply_witness(witness, b) == a
            return EquivVerdict(True, witness, examined)
    return EquivVerdict(False, None, examined)


def random_grid(r, n, q):
    return ButsonMatrix(q, [[r.randrange(q) for _ in range(n)] for _ in range(n)])


def random_transform(r, b, lift=1):
    """D1 P1 b P2 D2 over order q*lift, with random permutations and phases."""
    b = b.to_order(b.q * lift)
    rp, cp = list(range(b.n)), list(range(b.n))
    r.shuffle(rp)
    r.shuffle(cp)
    left = PhaseVector(b.q, tuple(r.randrange(b.q) for _ in range(b.n)))
    right = PhaseVector(b.q, tuple(r.randrange(b.q) for _ in range(b.n)))
    return rephase(b.permuted(rp, cp), left, right)


def transposed(b):
    return ButsonMatrix(b.q, list(zip(*b.exponents)))


def fourier(n):
    return ButsonMatrix(n, [[i * j for j in range(n)] for i in range(n)])


def oracle_pairs():
    """Seeded hits, transpose misses and unrelated pairs, n = 1..6 and three at n = 7."""
    r = random.Random(2024)
    pairs = []
    for idx in range(48):
        n = 1 + idx % 6
        q = r.choice((1, 2, 3, 4, 5, 6, 8, 12))
        b = random_grid(r, n, q)
        kind = (idx // 6) % 3
        if kind == 0:
            other = random_transform(r, b, lift=r.choice((1, 1, 2, 3)))
        elif kind == 1:
            other = random_transform(r, transposed(b), lift=r.choice((1, 2)))
        else:
            other = random_grid(r, n, r.choice((1, 2, 3, 4, 5, 6, 8, 12)))
        pairs.append((b, other))
    b7 = random_grid(r, 7, 6)
    pairs.append((b7, random_transform(r, b7, lift=2)))
    pairs.append((b7, random_transform(r, transposed(b7))))
    # Every row difference of F7 takes each value once, so every row mask is
    # full and only the pair masks filter before the exact comparison.
    pairs.append((fourier(7), random_transform(r, fourier(7))))
    return pairs


def test_screen_matches_reference_on_catalog_pairs(reference_standard):
    # Past the prescreen the search ignores the flag, so one reference run
    # covers both modes unless the prescreen refutes. Every catalog miss is
    # refuted that way (different Haagerup multisets, which equivalent
    # matrices share), so without prescreen the reference can only answer a
    # miss after 720 row permutations; at ~50 ms per such run it is run in
    # full once, on C8's A1 vs F6.
    mats = [catalog.get(name) for name in catalog.names()]
    exhaustive_miss = EquivVerdict(False, None, 720)
    for x in mats:
        for y in mats:
            # Verdicts compare on (equivalent, witness, search_stats).
            pre = reference_standard(x, y)
            assert standard_equivalent(x, y) == pre
            full = pre if pre.search_stats else exhaustive_miss
            assert standard_equivalent(x, y, prescreen=False) == full
    a1, f6 = catalog.get("A1"), catalog.get("F6")
    assert reference_standard(a1, f6, prescreen=False) == exhaustive_miss


def test_screen_matches_reference_on_random_pairs(reference_standard):
    for x, y in oracle_pairs():
        pre = reference_standard(x, y)
        assert standard_equivalent(x, y) == pre
        full = pre if pre.search_stats else reference_standard(x, y, prescreen=False)
        assert standard_equivalent(x, y, prescreen=False) == full


def transpose_pairs():
    """B against a random transform of B^T at n = 4..7: equal Haagerup sets,
    and row keys that differ unless B^T happens to be equivalent to B."""
    r = random.Random(404)
    pairs = []
    for n, count in ((4, 12), (5, 12), (6, 8), (7, 3)):
        for _ in range(count):
            b = random_grid(r, n, r.choice((2, 3, 4, 6)))
            pairs.append((b, random_transform(r, transposed(b), lift=r.choice((1, 2)))))
    return pairs


def equal_key_pairs():
    """Independent random q = 2 grids at n = 4..6 whose row keys agree as
    multisets, so the walk with coloured rows decides them, drawn until
    three pairs have column keys (the row keys of the transposes) that
    differ, which makes them misses."""
    r = random.Random(606)
    pairs, misses = [], 0
    while misses < 3:
        n = r.choice((4, 5, 6))
        x, y = random_grid(r, n, 2), random_grid(r, n, 2)
        if sorted(row_keys(x)) == sorted(row_keys(y)):
            pairs.append((x, y))
            misses += sorted(row_keys(transposed(x))) != sorted(row_keys(transposed(y)))
    return pairs


def test_row_colours_match_reference(reference_standard):
    keyed_apart, misses = 0, 0
    for x, y in transpose_pairs():
        a, b = equivalence._common_order([x, y])
        assert haagerup_set(a) == haagerup_set(b)
        keyed_apart += sorted(row_keys(a)) != sorted(row_keys(b))
        assert standard_equivalent(x, y) == reference_standard(x, y)
        hit = random_transform(random.Random(x.n), x)
        assert standard_equivalent(x, hit) == reference_standard(x, hit)
    for x, y in equal_key_pairs():
        verdict = standard_equivalent(x, y)
        assert verdict == reference_standard(x, y)
        misses += not verdict.equivalent
    assert keyed_apart == 21 and misses >= 3


def reference_classes(reference_standard, mats):
    classes = []
    for idx, m in enumerate(mats):
        for cls in classes:
            if reference_standard(mats[cls[0]], m).equivalent:
                cls.append(idx)
                break
        else:
            classes.append([idx])
    return classes


def test_classify_standard_matches_reference_with_transposes(reference_standard):
    r = random.Random(505)
    for n in (4, 5, 5, 6):
        sources = [random_grid(r, n, r.choice((2, 3, 4))) for _ in range(2)]
        sources += [transposed(s) for s in sources]
        batch = [random_transform(r, r.choice(sources), lift=r.choice((1, 2))) for _ in range(6)]
        assert classify(batch, "standard") == reference_classes(reference_standard, batch)


def test_one_changed_row_is_an_exhaustive_miss(reference_standard):
    # b is a with its last row moved by a non-constant vector: under the
    # identity row permutation rows 0..4 still match, and the miss rests on
    # the last row alone, through all 720 row permutations.
    r = random.Random(7)
    q, n = 1 << 16, 6
    a = random_grid(r, n, q)
    shift = [r.randrange(q) for _ in range(n)]
    shift[0] = (shift[1] + 1) % q
    b = ButsonMatrix(q, list(a.exponents[:-1]) + [[e + s for e, s in zip(a.exponents[-1], shift)]])
    verdict = standard_equivalent(a, b, prescreen=False)
    assert not verdict.equivalent and verdict.search_stats == 720
    assert verdict == reference_standard(a, b, prescreen=False)


def row_masks(a, b, p):
    """The row masks of pivot p of b against a, as the walk builds them."""
    row_masker = equivalence._row_masker(dephase(a)[0].exponents, a.q)
    return row_masker(equivalence._pivoted(b.exponents, p, b.q))[0]


def full_row_mask_pivots(a, b):
    """Pivots p of b for which masks[i][s] is full for all i >= 1 and s != p."""
    n, full = a.n, (1 << a.n) - 1
    pivots = []
    for p in range(n):
        masks = row_masks(a, b, p)
        if all(masks[i][s] == full for i in range(1, n) for s in range(n) if s != p):
            pivots.append(p)
    return pivots


def tuple_row_masks(a, b, p):
    """The row masks of pivot p keyed by sorted tuples, as sparse grids key them."""
    by_row = equivalence._profiles(dephase(a)[0].exponents, 0, a.q)
    _, groups = equivalence._dephased_rows(equivalence._pivoted(b.exponents, p, b.q), b.q)
    return equivalence._masks(groups, by_row)


def mask_pairs(n, q, r):
    """Pairs (a, b) at one order q: random grids, a random transform of a
    (at q/2, lifted, when q is even) and a with a repeated row."""
    pairs = []
    for _ in range(2):
        a = random_grid(r, n, q)
        pairs += [(a, random_grid(r, n, q)), (a, random_transform(r, a)),
                  (a, repeated_row_copy(a))]
        if q % 2 == 0:
            half = random_grid(r, n, q // 2)
            pairs.append((half.to_order(q), random_transform(r, half, lift=2)))
    return pairs


@pytest.mark.parametrize("n", range(2, 9))
def test_packed_row_masks_match_the_tuple_table(n):
    r = random.Random(n)
    checked = 0
    for q in sorted({2, 3, 4, 6, 12, 24, n * n}):
        if q > n * n:
            continue
        for a, b in mask_pairs(n, q, r):
            row_masker = equivalence._row_masker(dephase(a)[0].exponents, q)
            for p in range(n):
                pivoted = equivalence._pivoted(b.exponents, p, q)
                masks, table = row_masker(pivoted)
                assert table is None  # dense: no tuple is built at a pivot
                assert masks == tuple_row_masks(a, b, p), (n, q, a, b, p)
                checked += 1
    # Repeated-row copies of Butson Hadamard matrices: full masks.
    for a in {6: [catalog.get("A1"), catalog.get("F6")], 7: [fourier(7)],
              8: [sylvester(3)]}.get(n, []):
        b = repeated_row_copy(a)
        for p in range(n):
            assert row_masks(a, b, p) == tuple_row_masks(a, b, p)
    assert checked >= 14 * n


@pytest.mark.parametrize("n, q", [(4, 17), (6, 37), (4, 1 << 62), (6, 1 << 62)])
def test_sparse_grids_take_the_tuple_path(n, q):
    # Above q = n^2 the row masks are keyed by sorted tuples, and the tuple
    # table built at the pivot is the one the leaves read.
    r = random.Random(q % 1000)
    a = random_grid(r, n, q)
    row_masker = equivalence._row_masker(dephase(a)[0].exponents, q)
    for b in (random_transform(r, a), repeated_row_copy(a)):
        for p in range(n):
            pivoted = equivalence._pivoted(b.exponents, p, q)
            masks, table = row_masker(pivoted)
            assert table == equivalence._dephased_rows(pivoted, q)
            assert masks == tuple_row_masks(a, b, p)


def test_tuple_rows_and_pair_profiles_are_built_at_leaves_only(monkeypatch):
    calls = {"rows": 0, "profiles": 0}
    dephased_rows, profiles = equivalence._dephased_rows, equivalence._profiles

    def counting_rows(pivoted, q):
        calls["rows"] += 1
        return dephased_rows(pivoted, q)

    def counting_profiles(target, k, q):
        calls["profiles"] += 1
        return profiles(target, k, q)

    monkeypatch.setattr(equivalence, "_dephased_rows", counting_rows)
    monkeypatch.setattr(equivalence, "_profiles", counting_profiles)
    a1, f6 = catalog.get("A1"), catalog.get("F6")
    # C8: A1 against F6 without the prescreen prunes every prefix before a
    # leaf, so no tuple row and no pair profile is built.
    assert standard_equivalent(a1, f6, prescreen=False) == EquivVerdict(False, None, 720)
    assert calls == {"rows": 0, "profiles": 0}
    # A hit reaches a leaf under its first pivot: one table, one profile.
    assert standard_equivalent(a1, a1).search_stats == 1
    assert calls == {"rows": 1, "profiles": 1}
    # A sparse grid builds its tuple table at every pivot it tries, and
    # keys its target rows by tuples: one profile, with no leaf reached.
    calls.update(rows=0, profiles=0)
    r = random.Random(3)
    x, y = random_grid(r, 4, 37), random_grid(r, 4, 37)
    assert standard_equivalent(x, y, prescreen=False) == EquivVerdict(False, None, 24)
    assert calls == {"rows": 4, "profiles": 1}


def repeated_row_copy(a):
    """a with its last row replaced by zeta times the row before it."""
    return ButsonMatrix(a.q, list(a.exponents[:-1]) + [[e + 1 for e in a.exponents[-2]]])


def sylvester(k):
    n = 1 << k
    return ButsonMatrix(2, [[bin(i & j).count("1") % 2 for j in range(n)] for i in range(n)])


def test_repeated_row_miss_with_full_row_masks(reference_standard):
    # A1 with its last row replaced by w times row 4: every other row
    # difference stays uniform, so against pivots 0..3 every row mask is full.
    a = catalog.get("A1")
    b = repeated_row_copy(a)
    assert full_row_mask_pivots(a, b) == [0, 1, 2, 3]
    verdict = standard_equivalent(a, b, prescreen=False)
    assert not verdict.equivalent and verdict.search_stats == 720
    assert verdict == reference_standard(a, b, prescreen=False)


def worst_case_nodes(n):
    """Every (prefix, row) extension of a full tree, and n exact tests at
    each of its n! leaves."""
    return sum(math.perm(n, k) for k in range(1, n + 1)) + n * math.factorial(n)


def test_sylvester_repeated_row_miss_covers_every_row_permutation(monkeypatch):
    # At q = 2 the masks prune little; pruned prefixes still count their
    # leaves, so the miss reads 8!, and the worst-case node count at n = 8
    # is budget enough.
    monkeypatch.setattr(equivalence, "SEARCH_BUDGET", worst_case_nodes(8))
    h8 = sylvester(3)
    verdict = standard_equivalent(h8, repeated_row_copy(h8), prescreen=False)
    assert verdict == EquivVerdict(False, None, 40320)


def test_default_budget_covers_every_search_up_to_n_9():
    assert equivalence.SEARCH_BUDGET == worst_case_nodes(9) == 986_409 + 3_265_920


def small_pairs():
    """(x, y, equivalent) at n = 1, 2 and 3; at n <= 2 there are no pair masks."""
    h2, f3 = ButsonMatrix(2, [[0, 0], [0, 1]]), fourier(3)
    g3 = ButsonMatrix(3, [[0, 0, 0], [0, 1, 2], [0, 1, 1]])
    return [
        (ButsonMatrix(3, [[1]]), ButsonMatrix(4, [[3]]), True),
        (ButsonMatrix(1, [[0]]), ButsonMatrix(6, [[5]]), True),
        (h2, rephase(h2.to_order(4).permuted((1, 0), (1, 0)), PhaseVector(4, (1, 3)),
                     PhaseVector(4, (2, 0))), True),
        (h2, ButsonMatrix(2, [[0, 0], [0, 0]]), False),
        (h2, ButsonMatrix(4, [[0, 1], [0, 1]]), False),
        (f3, rephase(f3.permuted((2, 0, 1), (1, 2, 0)), PhaseVector(3, (1, 0, 2)),
                     PhaseVector(3, (0, 2, 2))), True),
        (f3, transposed(g3), False),
        (g3, transposed(g3), True),
    ]


@pytest.mark.parametrize("x, y, equivalent", small_pairs())
def test_walk_matches_reference_at_small_n(reference_standard, x, y, equivalent):
    for prescreen in (True, False):
        verdict = standard_equivalent(x, y, prescreen=prescreen)
        assert verdict == reference_standard(x, y, prescreen=prescreen)
        assert verdict.equivalent == equivalent


def test_budget_counts_extensions_and_exact_tests(monkeypatch):
    # A first-leaf hit at n = 3 tries 3 pivots, then 2 rows at depth 1 and
    # 1 at depth 2, and keeps all 3 first columns for the exact test: 6
    # extensions and 3 tests, charged before the tests run.
    b = ButsonMatrix(2, [[0] * 3] * 3)
    monkeypatch.setattr(equivalence, "SEARCH_BUDGET", 9)
    assert standard_equivalent(b, b).search_stats == 1
    monkeypatch.setattr(equivalence, "SEARCH_BUDGET", 8)
    with pytest.raises(SearchBudgetExceeded) as exc:
        standard_equivalent(b, b)
    assert (exc.value.nodes, exc.value.covered) == (6, 0)
    monkeypatch.setattr(equivalence, "SEARCH_BUDGET", 5)
    with pytest.raises(SearchBudgetExceeded) as exc:
        standard_equivalent(b, b)
    assert (exc.value.nodes, exc.value.covered) == (5, 0)


def test_search_budget_on_a_small_miss(monkeypatch):
    a = catalog.get("A1")
    b = repeated_row_copy(a)
    assert standard_equivalent(a, b, prescreen=False) == EquivVerdict(False, None, 720)
    monkeypatch.setattr(equivalence, "SEARCH_BUDGET", 50)
    with pytest.raises(SearchBudgetExceeded) as exc:
        standard_equivalent(a, b, prescreen=False)
    assert isinstance(exc.value, RuntimeError)
    assert 0 < exc.value.nodes <= 50 and 0 < exc.value.covered < 720
    assert str(exc.value.nodes) in str(exc.value)


def dephased_butson_hadamard(n, q):
    """Every dephased BH(n, q), q prime, whose rows from row 1 on are sorted.

    For prime q a row difference is orthogonal exactly when it takes each
    value n / q times. Sorting the columns by row 1 and the rows below row 0
    brings any dephased BH(n, q) to one of these, so they meet every class.
    """
    def uniform(u, v):
        d = [(x - y) % q for x, y in zip(u, v)]
        return all(d.count(x) == n // q for x in range(q))

    row1 = tuple(sorted(x for x in range(q) for _ in range(n // q)))
    rows = sorted({p for p in permutations(row1) if p[0] == 0 and uniform(p, row1)})
    found = []

    def extend(chosen, allowed):
        if len(chosen) == n - 2:
            found.append(ButsonMatrix(q, [[0] * n, row1, *chosen]))
        for k, row in enumerate(allowed):
            extend(chosen + [row], [r for r in allowed[k + 1:] if uniform(r, row)])

    extend([], rows)
    return found


@pytest.mark.parametrize("n, q", [(6, 3), (7, 7), (8, 2)])
def test_prime_order_butson_hadamard_matrices_form_one_class(n, q):
    # Between two of these every row mask is full, and they are all
    # equivalent: no search between two of them ends in a miss.
    found = dephased_butson_hadamard(n, q)
    base = {6: catalog.get("A1"), 7: fourier(7)}.get(n, found[0])
    for b in found:
        assert full_row_mask_pivots(base, b) == list(range(n))
        assert standard_equivalent(base, b).equivalent
    assert len(found) == {6: 2, 7: 1, 8: 6}[n]


def test_largest_root_order_does_not_overflow(reference_standard):
    # At the largest accepted order q = 2**62 the exponent differences reach
    # (-2q, 2q); the search must still agree with the blind search.
    from hadamard6.matrices import MAX_ORDER
    r = random.Random(11)
    a = random_grid(r, 4, MAX_ORDER)
    hit = random_transform(r, a)
    for other in (hit, random_transform(r, transposed(a))):
        for prescreen in (True, False):
            want = reference_standard(a, other, prescreen=prescreen)
            assert standard_equivalent(a, other, prescreen=prescreen) == want
    assert standard_equivalent(a, hit).equivalent
