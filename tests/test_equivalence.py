import random

import pytest

from hadamard6 import catalog, equivalence
from hadamard6.equivalence import (
    EquivVerdict,
    Witness,
    apply_witness,
    classify,
    standard_equivalent,
    unitary_equivalent,
)
from hadamard6.invariants import charpoly_exact
from hadamard6.matrices import ButsonMatrix, PhaseVector, rephase

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
    calls = []

    def counting(b):
        calls.append(b)
        return charpoly_exact(b)

    monkeypatch.setattr(equivalence, "charpoly_exact", counting)
    for names, expected in (
        (("A10", "A20", "A30", "A40", "A50", "A60"), [[0], [1], [2], [3], [4], [5]]),
        (("A01", "A02", "A03"), [[0, 2], [1]]),
        (("A1", "A2", "A3"), [[0, 1, 2]]),
    ):
        calls.clear()
        mats = [catalog.get(n) for n in names]
        assert classify(mats, "unitary") == expected
        assert calls == mats  # one polynomial per matrix, none recomputed


def test_classify_standard():
    mats = [catalog.get(n) for n in ("A1", "A2", "A3", "F6")]
    # F6 has a different Haagerup multiset, so it lands alone.
    f6_at_order = mats[3]
    classes = classify([m.to_order(6) for m in mats[:3]] + [f6_at_order], "standard")
    assert classes == [[0, 1, 2], [3]]


def test_classify_validates():
    with pytest.raises(ValueError):
        classify([], "unitary")
    with pytest.raises(ValueError):
        classify([catalog.get("A1")], "spectral")
