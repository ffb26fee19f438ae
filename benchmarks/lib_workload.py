"""In-process library workload `equiv_search`: standard_equivalent and classify.

Inputs are exponent grids made from the seed (inputs.py) and handed to the
library as ButsonMatrix values. Every miss is certified inequivalent by the
benchmark's own row-profile invariant when it is generated, every witness is
re-applied here, and every expected partition comes from the generator's
labels or from numpy's characteristic polynomials.
"""

from __future__ import annotations

import math

import inputs as gen

# One cycle of ops: (kind, n), one of each part of the mix. By count, half the
# ops are cheap (hits, standard classify, n = 6 misses); by time, the n = 7
# exhaustive searches take about three quarters, so the CPU-per-op metric and
# the tail move when a search gets faster. Half of that n = 7 time is
# prescreen-passing misses, which refinement should speed up, and half is
# prescreen=False misses, which must stay exhaustive.
EQUIV_MIX = [
    ("hit", 6), ("miss", 6), ("nopre", 6), ("cls_std", 6),
    ("hit", 7), ("miss", 7), ("nopre", 7), ("cls_uni", 6),
]
EQUIV_CYCLES = 40
EQUIV_PARAMS = {"cycles": EQUIV_CYCLES, "random_q": [3, 4], "lift_by": [1, 2],
                "batch": 8, "cls_std_sources": 3, "cls_uni_sources": 2, "similar_share": 0.6}

CATALOG_NAMES = sorted(gen.CATALOG)
NOT_F6 = [x for x in CATALOG_NAMES if x != "F6"]


def _random_nonsymmetric(rng, n: int):
    q = rng.choice(EQUIV_PARAMS["random_q"])
    while True:
        g = gen.random_grid(rng, q, n)
        if g != gen.transpose(g):
            return q, g


def _hit(rng, n: int) -> dict:
    if n == 6:
        a = gen.catalog_matrix(rng.choice(CATALOG_NAMES))
    else:
        a = gen.fourier(n) if rng.random() < 0.5 else _random_nonsymmetric(rng, n)
    b = gen.equivalent(rng, *a, rng.choice(EQUIV_PARAMS["lift_by"]))
    return {"fn": "standard_equivalent", "args": [a, b], "kwargs": {}, "expect": {"a": a, "b": b}}


def _certified_pair(make_a, make_b):
    while True:
        a, b = make_a(), make_b()
        if gen.certified_inequivalent(a, b):
            return a, b


def _miss(rng, n: int) -> dict:
    """B against a random equivalent of B^T: same Haagerup set, certified inequivalent."""
    while True:
        b = _random_nonsymmetric(rng, n)
        c = gen.equivalent(rng, b[0], gen.transpose(b[1]))
        if gen.certified_inequivalent(b, c):
            return {"fn": "standard_equivalent", "args": [b, c], "kwargs": {},
                    "expect": {"equivalent": False}}


def _nopre(rng, n: int) -> dict:
    if n == 6:
        a, b = _certified_pair(
            lambda: gen.equivalent(rng, *gen.catalog_matrix(rng.choice(NOT_F6))),
            lambda: gen.equivalent(rng, *gen.fourier(6)))
    else:
        a, b = _certified_pair(lambda: _random_nonsymmetric(rng, n),
                               lambda: gen.equivalent(rng, *_random_nonsymmetric(rng, n)))
    return {"fn": "standard_equivalent", "args": [a, b], "kwargs": {"prescreen": False},
            "expect": {"equivalent": False}}


def _distinct_sources(rng, k: int) -> list:
    """k catalog sources that are pairwise certified inequivalent."""
    chosen: list = []
    for name in rng.sample(CATALOG_NAMES, len(CATALOG_NAMES)):
        m = gen.catalog_matrix(name)
        if all(gen.certified_inequivalent(m, c) for c in chosen):
            chosen.append(m)
            if len(chosen) == k:
                return chosen
    raise RuntimeError("catalog has too few certified-distinct classes")


def _cls_std(rng, n: int) -> dict:
    sources = _distinct_sources(rng, EQUIV_PARAMS["cls_std_sources"])
    labels = [rng.randrange(len(sources)) for _ in range(EQUIV_PARAMS["batch"])]
    batch = [gen.equivalent(rng, *sources[i], rng.choice(EQUIV_PARAMS["lift_by"])) for i in labels]
    return {"fn": "classify", "args": [batch, "standard"], "kwargs": {},
            "expect": {"classes": gen.expected_classes(labels)}}


def _cls_uni(rng, n: int) -> dict:
    while True:
        sources = [gen.catalog_matrix(x) for x in rng.sample(CATALOG_NAMES, EQUIV_PARAMS["cls_uni_sources"])]
        batch = []
        for _ in range(EQUIV_PARAMS["batch"]):
            src = rng.choice(sources)
            if rng.random() < EQUIV_PARAMS["similar_share"]:
                batch.append(gen.similar(rng, *src))
            else:
                batch.append(gen.equivalent(rng, *src))
        labels = gen.unitary_labels([gen.scaled_poly(*m) for m in batch])
        if labels is not None:
            return {"fn": "classify", "args": [batch, "unitary"], "kwargs": {},
                    "expect": {"classes": gen.expected_classes(labels)}}


MAKERS = {"hit": _hit, "miss": _miss, "nopre": _nopre, "cls_std": _cls_std, "cls_uni": _cls_uni}


def equiv_ops(rng) -> list[dict]:
    ops = []
    for _ in range(EQUIV_CYCLES):
        for kind, n in EQUIV_MIX:
            op = MAKERS[kind](rng, n)
            op["kind"] = f"{kind}{n}"
            ops.append(op)
    return ops


def bind(ops: list[dict], hadamard6) -> None:
    """Turn every (q, grid) argument into a ButsonMatrix before timing starts."""
    def to_matrix(x):
        if isinstance(x, tuple):
            return hadamard6.ButsonMatrix(*x)
        if isinstance(x, list):
            return [to_matrix(y) for y in x]
        return x
    for op in ops:
        op["bound"] = [to_matrix(a) for a in op["args"]]


def call(op: dict, hadamard6):
    return getattr(hadamard6, op["fn"])(*op["bound"], **op["kwargs"])


def check(op: dict, result) -> str | None:
    e = op["expect"]
    if "classes" in e:
        return None if result == e["classes"] else f"classes {result}, expected {e['classes']}"
    if "a" not in e:
        return None if result.equivalent is False else "certified-inequivalent pair reported equivalent"
    if not result.equivalent:
        return "hit pair reported inequivalent"
    w = result.witness
    witness = {"q": w.left.q, "row_perm": list(w.row_perm), "col_perm": list(w.col_perm),
               "left": list(w.left.exps), "right": list(w.right.exps)}
    if witness["q"] % math.lcm(e["a"][0], e["b"][0]):
        return "witness order is not a multiple of the common order"
    ok = gen.same_matrix(gen.apply_witness(witness, e["b"]), e["a"])
    return None if ok else "witness does not map the second matrix onto the first"
