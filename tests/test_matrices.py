import copy
import pickle
import random

import numpy as np
import pytest

from hadamard6 import (
    CatalogEntry,
    CharPoly,
    CycInt,
    EquivVerdict,
    RankCertificate,
    Spectrum,
    Witness,
    catalog,
)
from hadamard6.cli import CONFIRMED, REFUTED, ClaimRecord
from hadamard6.matrices import (
    MAX_ORDER,
    ButsonMatrix,
    PhaseVector,
    _own_order,
    dephase,
    format_matrix,
    is_hadamard_exact,
    is_hadamard_numeric,
    parse_matrix,
    rephase,
)

rng = random.Random(20260809)

J6 = ButsonMatrix(3, [[0] * 6 for _ in range(6)])


def random_butson(q, n):
    return ButsonMatrix(q, [[rng.randrange(q) for _ in range(n)] for _ in range(n)])


def test_constructor_reduces_mod_q():
    b = ButsonMatrix(3, [[4, -1], [3, 7]])
    assert b.exponents == ((1, 2), (0, 1))


def test_exponents_must_be_integers():
    # A float exponent is refused, not truncated; numpy integers still work.
    with pytest.raises(TypeError):
        ButsonMatrix(3, [[0.0, 1.9], [2.5, 0]])
    with pytest.raises(TypeError):
        PhaseVector(3, (1.5, 4))
    b = ButsonMatrix(3, np.array([[4, -1], [3, 7]], dtype=np.int64))
    assert b.exponents == ((1, 2), (0, 1))
    assert all(type(e) is int for row in b.exponents for e in row)
    assert PhaseVector(3, tuple(np.arange(2, 5, dtype=np.int64))).exps == (2, 0, 1)


_WITNESS_FIELDS = {"row_perm": (1, 0), "col_perm": (0, 1), "left": PhaseVector(2, (0, 1)),
                   "right": PhaseVector(2, (0, 0))}

# (record type, valid fields in declaration order, (field, another valid value))
RECORD_CASES = [
    (PhaseVector, {"q": 3, "exps": (0, 1, 2)}, ("exps", (0, 1, 1))),
    (ButsonMatrix, {"q": 3, "exponents": ((0, 0), (0, 1))}, ("exponents", ((0, 0), (0, 2)))),
    (CatalogEntry, {"name": "F2", "matrix": ButsonMatrix(2, [[0, 0], [0, 1]]), "note": "Fourier"},
     ("note", "")),
    (ClaimRecord, {"id": "C1", "claim": "A1 is Hadamard", "computed": "true",
                   "status": CONFIRMED}, ("status", REFUTED)),
    (Witness, _WITNESS_FIELDS, ("col_perm", (1, 0))),
    (EquivVerdict, {"equivalent": True, "witness": Witness(**_WITNESS_FIELDS), "search_stats": 2},
     ("search_stats", 3)),
    (CharPoly, {"n": 1, "q": 3, "e": (CycInt.from_int(3, -1), CycInt.from_int(3, 1))},
     ("e", (CycInt.from_int(3, 0), CycInt.from_int(3, 1)))),
    (Spectrum, {"pairs": ((1 + 0j, 1), (-1 + 0j, 1))}, ("pairs", ((1 + 0j, 2),))),
    (RankCertificate, {"rank": 9, "columns": 9, "primes": 1, "bound_bits": 0}, ("primes", 2)),
]


@pytest.mark.parametrize("cls, fields, changed", RECORD_CASES,
                         ids=[case[0].__name__ for case in RECORD_CASES])
def test_record_semantics(cls, fields, changed):
    assert cls.__slots__ == tuple(cls.__annotations__)
    r = cls(**fields)
    same = cls(*fields.values())
    assert r == same and hash(r) == hash(same)
    assert r != cls(**{**fields, changed[0]: changed[1]})
    assert r != tuple(fields.values())
    assert repr(r) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(r, name, value)
        with pytest.raises(AttributeError):
            delattr(r, name)
    with pytest.raises(AttributeError):
        r.extra = 1
    assert r == same
    first = next(iter(fields))
    with pytest.raises(TypeError):
        cls(*list(fields.values())[:-1])
    with pytest.raises(TypeError):
        cls(*fields.values(), **{first: fields[first]})
    with pytest.raises(TypeError):
        cls(**fields, extra=1)
    assert copy.copy(r) == r and pickle.loads(pickle.dumps(r)) == r


def test_constructor_rejects_non_square():
    with pytest.raises(ValueError):
        ButsonMatrix(3, [[0, 1], [0, 1], [0, 1]])
    with pytest.raises(ValueError):
        ButsonMatrix(3, [])


def test_root_order_above_2_62_rejected():
    # The documented bound of the BH format: 2**62 is accepted, anything
    # above it is refused, also when reached through to_order.
    big = ButsonMatrix(MAX_ORDER, [[0, 1], [1, MAX_ORDER - 1]])
    assert big.q == 1 << 62
    with pytest.raises(ValueError):
        ButsonMatrix(MAX_ORDER + 1, [[0]])
    with pytest.raises(ValueError):
        big.to_order(2 * MAX_ORDER)


def test_exact_check_runs_at_the_own_order():
    # The 2x2 Hadamard matrix written over q = 2**62 is checked at q = 2; the
    # order-4 grid [[1, 1], [1, i]] over q = 2**62 is refused at q = 4.
    h2 = ButsonMatrix(MAX_ORDER, [[5, 5], [7, 7 + (1 << 61)]])
    assert _own_order(h2) == ButsonMatrix(2, [[0, 0], [0, 1]])
    assert is_hadamard_exact(h2)
    off = ButsonMatrix(MAX_ORDER, [[0, 0], [0, 1 << 60]])
    assert _own_order(off).q == 4
    assert not is_hadamard_exact(off)


def test_exact_check_agrees_with_numeric_on_lifts():
    mats = [catalog.get(name) for name in ("A1", "M6", "F6", "A10")]
    mats += [random_butson(q, n) for _ in range(10)
             for q, n in [(2, 2), (3, 3), (4, 4), (6, 2)]]
    for b in mats:
        for lift in (1, 5, 12):
            c = b.to_order(b.q * lift)
            assert is_hadamard_exact(c) == is_hadamard_numeric(c.to_complex(), 1e-9), (b, lift)


def test_all_zero_grid_is_all_ones_matrix():
    assert np.allclose(J6.to_complex(), np.ones((6, 6)))
    assert not is_hadamard_exact(J6)


def test_catalog_examples_exact():
    assert is_hadamard_exact(catalog.get("A1"))
    assert is_hadamard_exact(catalog.get("M6"))
    assert is_hadamard_exact(catalog.get("M61"))


def test_exact_and_numeric_paths_agree_on_catalog():
    for name in catalog.names():
        b = catalog.get(name)
        assert is_hadamard_exact(b) == is_hadamard_numeric(b.to_complex(), 1e-10)
    assert not is_hadamard_numeric(J6.to_complex(), 1e-10)


def test_numeric_rejects_non_unimodular():
    m = catalog.agaian_symmetric(0.5).astype(np.complex128)
    assert not is_hadamard_numeric(m, 1e-10)


def test_numeric_requires_positive_tol():
    for tol in (0.0, -1e-10, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            is_hadamard_numeric(np.eye(2, dtype=np.complex128), tol)


@pytest.mark.parametrize("m", [
    [1, 1], np.ones(3), [[1, 1], [1]], [[1], [1, 1]], [[1, 1, 1], [1, 1, 1]],
    np.ones((2, 3)), np.ones((2, 2, 2)), [], np.zeros((0, 0)),
], ids=["1d-list", "1d-array", "ragged-short", "ragged-long", "2x3-list", "2x3-array",
        "3d-array", "empty-list", "empty-array"])
def test_numeric_and_format_reject_non_square(m):
    with pytest.raises(ValueError, match="matrix must be square"):
        is_hadamard_numeric(m, 1e-10)
    with pytest.raises(ValueError, match="matrix must be square"):
        format_matrix(m)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                 complex(0, float("nan")), complex(1, -float("inf"))],
                         ids=["nan", "inf", "-inf", "nan-imag", "-inf-imag"])
def test_numeric_non_finite_entry_is_not_hadamard(bad):
    # Every position, so a NaN that is not the first item of a reduction is caught.
    base = ButsonMatrix(3, [[i * j for j in range(3)] for i in range(3)]).to_complex()
    assert is_hadamard_numeric(base, 1e-10)
    for r in range(3):
        for c in range(3):
            m = [list(row) for row in base]
            m[r][c] = bad
            assert not is_hadamard_numeric(m, 1e-10), (r, c)


def _numpy_oracle(m, tol):
    """The ndarray formula of the numeric check, with NaN counted as a failure."""
    a = np.asarray(m, dtype=np.complex128)
    n = a.shape[0]
    return bool(np.all(np.abs(np.abs(a) - 1.0) <= tol)
                and np.all(np.abs(a @ a.conj().T - n * np.eye(n)) <= tol))


def _phased_hadamard(r, n):
    """Fourier matrix F_n under random left and right phases, as nested lists."""
    a = [r.random() for _ in range(n)]
    b = [r.random() for _ in range(n)]
    return [[complex(np.exp(2j * np.pi * (j * k / n + a[j] + b[k]))) for k in range(n)]
            for j in range(n)]


def test_numeric_agrees_with_numpy_oracle():
    r = random.Random(20261018)
    verdicts = {True: 0, False: 0}
    for trial in range(300):
        n = r.randrange(1, 9)
        tol = r.choice([1e-6, 1e-8, 1e-9])
        m = _phased_hadamard(r, n)
        kind = trial % 4
        if kind == 1:
            # Phase jitter on one entry, from far below tol to far above it.
            m[r.randrange(n)][r.randrange(n)] *= np.exp(1j * 10 ** r.uniform(-12, 0))
        elif kind in (2, 3):
            # Deviation placed at tol * (1 -+ 1e-3): far outside rounding error.
            side = r.choice([-1, 1])
            dev = tol * (1 + side * 1e-3)
            i = r.randrange(n)
            if kind == 2 and n > 1:
                # Phase on one entry: off-diagonal Gram deviation 2 sin(theta / 2).
                m[i][r.randrange(n)] *= np.exp(2j * np.arcsin(dev / 2))
            else:
                # Scale one row by 1 + s: diagonal Gram deviation n (2s + s^2).
                s = np.sqrt(1 + dev / n) - 1
                m[i] = [v * (1 + s) for v in m[i]]
            assert is_hadamard_numeric(m, tol) == (side < 0), (n, tol, kind)
        got = is_hadamard_numeric(m, tol)
        assert got == is_hadamard_numeric(np.array(m), tol) == _numpy_oracle(m, tol), (n, tol, kind)
        verdicts[got] += 1
    assert min(verdicts.values()) > 50, verdicts


def test_trivial_one_by_one_is_hadamard():
    b = ButsonMatrix(4, [[3]])
    assert is_hadamard_exact(b)
    d, left, right = dephase(b)
    assert d.exponents == ((0,),)
    assert rephase(d, left, right) == b


def test_dephase_catalog_identities():
    assert dephase(catalog.get("A10"))[0] == catalog.get("A01")
    assert dephase(catalog.get("A20"))[0] == catalog.get("A02")
    assert dephase(catalog.get("A30"))[0] == catalog.get("A03")


def test_dephase_idempotent():
    d1 = dephase(catalog.get("A10"))[0]
    d2, left, right = dephase(d1)
    assert d2 == d1
    assert set(left.exps) == {0} and set(right.exps) == {0}


def test_dephase_round_trip_catalog_and_random():
    mats = [catalog.get(name) for name in catalog.names()]
    mats += [random_butson(q, n) for _ in range(25) for q, n in [(2, 4), (3, 6), (4, 5), (6, 3)]]
    assert len(mats) >= 100 + len(catalog.names()) - 15
    for b in mats:
        d, left, right = dephase(b)
        assert all(e == 0 for e in d.exponents[0])
        assert all(row[0] == 0 for row in d.exponents)
        assert rephase(d, left, right) == b


def test_permutation_preserves_hadamard():
    for base in ("A1", "M6", "F6"):
        b = catalog.get(base)
        for _ in range(10):
            rp = list(range(6))
            cp = list(range(6))
            rng.shuffle(rp)
            rng.shuffle(cp)
            assert is_hadamard_exact(b.permuted(rp, cp))


def test_permuted_validates_bijection():
    with pytest.raises(ValueError):
        catalog.get("A1").permuted([0, 0, 1, 2, 3, 4], range(6))


def test_conjugated_negates_exponents():
    b = catalog.get("A10")
    c = b.conjugated()
    assert all((b.entry(i, j) + c.entry(i, j)) % 3 == 0 for i in range(6) for j in range(6))


def test_to_order_preserves_values():
    b = catalog.get("A1")
    b6 = b.to_order(6)
    assert b6.q == 6
    assert np.allclose(b6.to_complex(), b.to_complex())
    with pytest.raises(ValueError):
        b.to_order(4)


def test_phase_vector_normalizes():
    pv = PhaseVector(3, (-1, 4, 3))
    assert pv.exps == (2, 1, 0)


def test_rephase_validates():
    b = catalog.get("A1")
    with pytest.raises(ValueError):
        rephase(b, PhaseVector(4, (0,) * 6), PhaseVector(3, (0,) * 6))
    with pytest.raises(ValueError):
        rephase(b, PhaseVector(3, (0,) * 5), PhaseVector(3, (0,) * 6))


def test_bh_text_round_trip():
    for name in ("A1", "M6", "F6"):
        b = catalog.get(name)
        assert parse_matrix(format_matrix(b)) == b


def test_complex_text_round_trip():
    m = catalog.get("M6").to_complex()
    back = parse_matrix(format_matrix(m))
    assert type(back) is tuple and all(type(row) is tuple for row in back)
    assert all(type(v) is complex for row in back for v in row)
    assert np.array_equal(back, m)


def test_format_matrix_of_ndarray_matches_numpy_formula():
    def numpy_formula(m):
        arr = np.asarray(m, dtype=np.complex128)
        lines = [f"C {arr.shape[0]}"]
        for row in arr:
            lines.append(" ".join(f"{repr(float(v.real))},{repr(float(v.imag))}" for v in row))
        return "\n".join(lines) + "\n"

    r = np.random.default_rng(20261018)
    odd = np.array([[-0.0, complex(5e-324, -0.0)], [np.nan, complex(np.inf, -np.inf)]])
    for m in (catalog.get("M6").to_complex(), odd, np.eye(3), np.arange(4).reshape(2, 2),
              (r.standard_normal((5, 5)) + 1j * r.standard_normal((5, 5))).astype(np.complex64),
              r.standard_normal((7, 7)) * 1e300):
        assert format_matrix(m) == numpy_formula(m)


@pytest.mark.parametrize("text", [
    "",
    "XX 3 6",
    "BH 3",
    "BH 3 2\n0 0",
    "BH 3 2\n0 0 0\n0 0 0",
    "C 1\n1.0",
    "C 1\nnope,1.0",
    "C 2\n1,0 1,0",
    "C 2\n1,0\n1,0 1,0",
    "C 1 2\n1,0",
    "C 0",
    "C -1",
    "BH 3 0",
    "BH 3 2 1\n0 0\n0 0",
])
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_matrix(text)
