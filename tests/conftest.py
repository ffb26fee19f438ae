from collections import Counter

import pytest


def _haagerup_quadruples(b):
    """Brute-force oracle: one value per index quadruple (i, j, k, l)."""
    e, n, q = b.exponents, b.n, b.q
    return Counter((e[i][j] + e[k][l] - e[i][l] - e[k][j]) % q
                   for i in range(n) for j in range(n)
                   for k in range(n) for l in range(n))


@pytest.fixture
def haagerup_reference():
    return _haagerup_quadruples
