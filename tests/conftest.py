import json
from collections import Counter
from pathlib import Path

import pytest

# The benchmark's own copy of the published grids, read here as an oracle
# that does not come from the catalog's derivation.
_PUBLISHED = Path(__file__).resolve().parent.parent / "benchmarks" / "catalog_copy.json"


def _haagerup_quadruples(b):
    """Brute-force oracle: one value per index quadruple (i, j, k, l)."""
    e, n, q = b.exponents, b.n, b.q
    return Counter((e[i][j] + e[k][l] - e[i][l] - e[k][j]) % q
                   for i in range(n) for j in range(n)
                   for k in range(n) for l in range(n))


@pytest.fixture
def haagerup_reference():
    return _haagerup_quadruples


@pytest.fixture(scope="session")
def published_catalog():
    """Published root order and exponent grid of each catalog entry, by name."""
    with open(_PUBLISHED, encoding="utf-8") as fh:
        return json.load(fh)
