import random

import numpy as np
import pytest

from hadamard6 import catalog
from hadamard6.catalog import (
    DISPUTED_READINGS,
    VARIANT_ASSIGNMENTS,
    agaian_symmetric,
    agaian_variant,
    diagonal_normalized,
)
from hadamard6.matrices import ButsonMatrix, is_hadamard_exact

rng = random.Random(77)

EXPECTED_NAMES = {"A1", "A2", "A3", "A10", "A20", "A30", "A40", "A50", "A60",
                  "A01", "A02", "A03", "M6", "M61", "F6"}


def test_catalog_names():
    assert set(catalog.names()) == EXPECTED_NAMES


def test_unknown_name():
    with pytest.raises(KeyError):
        catalog.get("A99")


def test_m6_uses_fourth_roots():
    assert catalog.get("M6").q == 4
    assert catalog.get("M61").q == 4


def test_f6_is_fourier():
    f = catalog.get("F6")
    assert f.q == 6
    assert all(f.entry(i, j) == (i * j) % 6 for i in range(6) for j in range(6))


def test_every_catalog_matrix_is_hadamard():
    for name in catalog.names():
        assert is_hadamard_exact(catalog.get(name)), name


def test_variant_assignment_validation():
    with pytest.raises(ValueError):
        agaian_variant(1, 1, 0)
    # Exponents are reduced mod 3 before the permutation check.
    assert agaian_variant(3, 4, 5) == agaian_variant(0, 1, 2)


def test_derived_catalog_reproduces_published_grids(published_catalog):
    # The A-family is derived from the template; the published grids pin it.
    assert list(published_catalog) == catalog.names()
    for name, ref in published_catalog.items():
        b = catalog.get(name)
        assert (b.q, [list(row) for row in b.exponents]) == (ref["q"], ref["grid"]), name


def test_all_variants_hadamard_and_pairwise_distinct():
    grids = [agaian_variant(*e) for e in VARIANT_ASSIGNMENTS.values()]
    for g in grids:
        assert is_hadamard_exact(g)
    for i, a in enumerate(grids):
        for b in grids[i + 1:]:
            assert a != b


def test_disputed_readings_fail_verification():
    # The transcribed A2 and A40 grids are kept only as audit evidence: both
    # break exact row orthogonality, which is why the catalog derives its
    # entries instead.
    for name, grid in DISPUTED_READINGS.items():
        assert not is_hadamard_exact(ButsonMatrix(3, grid)), name


def test_a40_differs_from_disputed_reading_in_one_cell():
    good = catalog.get("A40").exponents
    bad = DISPUTED_READINGS["A40"]
    diff = [(i, j) for i in range(6) for j in range(6) if good[i][j] != bad[i][j]]
    assert diff == [(5, 3)]


def test_a2_is_the_diagonal_normalization_of_a02():
    assert catalog.get("A2") == diagonal_normalized(catalog.get("A02"))


def test_a3_matches_the_diagonal_normalization_of_a03():
    assert catalog.get("A3") == diagonal_normalized(catalog.get("A03"))


def test_a2_does_not_coincide_with_a1():
    assert catalog.get("A2") != catalog.get("A1")
    assert catalog.get("A3") != catalog.get("A1")


def test_a01_and_a03_coincide_entrywise():
    assert catalog.get("A01") == catalog.get("A03")


def test_unit_diagonal_forms_are_symmetric():
    for name in ("A1", "A2", "A3"):
        b = catalog.get(name)
        assert all(b.entry(i, j) == b.entry(j, i)
                   for i in range(6) for j in range(6)), name
        assert all(b.entry(i, i) == 0 for i in range(6)), name


def test_diagonal_normalized_rejects_impossible():
    with pytest.raises(ValueError):
        diagonal_normalized(ButsonMatrix(3, [[1, 1], [1, 1]]))


def backtracking_diagonal_normalized(b):
    """Reference: the column-by-column backtracking diagonal_normalized replaced.

    Column j takes the smallest unused row with exponent 0 there, backing up
    when a later column has none left; the first complete assignment is the
    lexicographically least unit-diagonal row permutation.
    """
    n = b.n
    candidates = [[i for i in range(n) if b.entry(i, j) == 0] for j in range(n)]

    def assign(j, used, acc):
        if j == n:
            return list(acc)
        for i in candidates[j]:
            if i not in used:
                used.add(i)
                acc.append(i)
                found = assign(j + 1, used, acc)
                if found is not None:
                    return found
                acc.pop()
                used.remove(i)
        return None

    perm = assign(0, set(), [])
    if perm is None:
        raise ValueError("no row permutation puts unit entries on the diagonal")
    return b.permuted(perm, range(n))


def test_diagonal_normalized_matches_backtracking_reference():
    # Exponent 0 with probability 0.55, so most grids have a unit-diagonal
    # row permutation and some have none.
    local = random.Random(20261018)
    found = refused = 0
    for t in range(240):
        n = t % 6 + 1
        b = ButsonMatrix(3, [[0 if local.random() < 0.55 else local.randrange(1, 3)
                              for _ in range(n)] for _ in range(n)])
        try:
            expected = backtracking_diagonal_normalized(b)
        except ValueError:
            refused += 1
            with pytest.raises(ValueError):
                diagonal_normalized(b)
        else:
            found += 1
            assert diagonal_normalized(b) == expected
    assert found > refused > 0


def test_agaian_symmetric_special_values():
    assert np.array_equal(agaian_symmetric(1.0), np.ones((6, 6)))
    m0 = agaian_symmetric(0.0)
    pattern = catalog.get("A2").exponents
    expected = np.array([[1.0 if e == 0 else 0.0 for e in row] for row in pattern])
    assert np.array_equal(m0, expected)
    m2 = agaian_symmetric(2.0)
    assert set(np.unique(m2)) == {1.0, 2.0, 4.0}


def test_agaian_symmetric_is_symmetric_for_random_parameters():
    for _ in range(100):
        a = rng.uniform(-10, 10)
        m = agaian_symmetric(a)
        assert np.array_equal(m, m.T)


def test_agaian_symmetric_rejects_non_finite():
    with pytest.raises(ValueError):
        agaian_symmetric(float("nan"))


def test_entry_notes_present():
    for e in catalog.entries():
        assert e.name and e.note
