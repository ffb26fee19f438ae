"""Fresh-process CLI workloads: `report` and `cli_mix`.

Each op is one `python -m hadamard6.cli ARGS` child. Its output is parsed
here and checked against an expectation that was computed at generation time
with numpy or exponent arithmetic (inputs.py), never with hadamard6.
"""

from __future__ import annotations

import json
import math
import os
import re

import numpy as np

import inputs as gen

# Statuses of the seed commit's audit; a later change to them is a failure.
REPORT_STATUSES = {
    "C1": "DISCREPANCY-DOCUMENTED", "C2": "CONFIRMED", "C3": "CONFIRMED",
    "C4": "CONFIRMED", "C5": "CONFIRMED", "C6": "CONFIRMED", "C7": "CONFIRMED",
    "C8": "CONFIRMED", "C9": "CONFIRMED", "C10": "CONFIRMED",
    "C11": "DISCREPANCY-DOCUMENTED",
}

# The README's example commands (all but `report`), run exactly as written.
README_OPS = [
    ("catalog_list", ["catalog", "list"], {}),
    ("catalog_show", ["catalog", "show", "A1"], {"name": "A1"}),
    ("verify", ["verify", "A1"], {"source": "A1"}),
    ("charpoly", ["charpoly", "A10", "--json"], {"source": "A10"}),
    ("spectrum", ["spectrum", "M61"], {"source": "M61"}),
    ("dephase", ["dephase", "A10"], {"source": "A10"}),
    ("defect", ["defect", "A1"], {"source": "A1"}),
    ("equiv_standard", ["equiv", "standard", "M6", "M61"], {"pair": ("M6", "M61")}),
    ("equiv_unitary", ["equiv", "unitary", "A01", "A02"], {"pair": ("A01", "A02")}),
]

# One cycle of generated cli_mix ops: (kind, n, variant). The n = 8 charpoly,
# spectrum and unitary ops are spread through the cycle so that any stretch
# of it holds about the same share of them.
CLI_MIX = [
    ("verify", 7, "bh_hadamard"), ("charpoly", 8, "hadamard"), ("dephase", 6, "hadamard"),
    ("spectrum", 5, "hadamard"), ("defect", 6, "hadamard"),
    ("spectrum", 8, "hadamard"), ("equiv_standard", 5, "hit"), ("verify", 6, "bh_random"),
    ("charpoly", 5, "random"), ("defect", 7, "hadamard"),
    ("equiv_unitary", 8, "similar"), ("catalog_show", 6, "random"), ("charpoly", 6, "hadamard"),
    ("spectrum", 6, "hadamard"), ("refuse", 6, "c_grid"),
    ("charpoly", 8, "random"), ("verify", 8, "c_hadamard"), ("equiv_standard", 6, "hit"),
    ("defect", 8, "hadamard"), ("dephase", 8, "random"),
    ("spectrum", 8, "hadamard"), ("equiv_unitary", 6, "similar"), ("defect", 6, "random"),
    ("charpoly", 7, "hadamard"), ("catalog_list", 6, "json"),
    ("equiv_unitary", 8, "equivalent"), ("verify", 5, "c_perturbed"), ("spectrum", 7, "hadamard"),
    ("defect", 5, "hadamard"), ("equiv_standard", 6, "hit"),
    ("charpoly", 8, "hadamard"), ("equiv_unitary", 6, "equivalent"), ("spectrum", 8, "hadamard"),
]
CLI_MIX_CYCLES = 4
CLI_MIX_PARAMS = {"cycles": CLI_MIX_CYCLES, "lift_by": [1, 2], "random_q": [3, 4],
                  "c_phase_jitter": 0.1}


def hadamard_source(rng, n: int):
    """(q, grid, defect) of a named Hadamard matrix of size n: F_n or a catalog entry."""
    if n == 6:
        name = rng.choice(sorted(gen.CATALOG))
        q, grid = gen.catalog_matrix(name)
        return q, grid, gen.CATALOG[name]["defect"]
    q, grid = gen.fourier(n)
    return q, grid, gen.fourier_defect(n)


class Writer:
    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.count = 0

    def __call__(self, text: str) -> str:
        self.count += 1
        path = os.path.join(self.directory, f"m{self.count:04d}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def _generated_op(rng, write, kind: str, n: int, variant: str) -> tuple[str, list, dict]:
    q, grid, dfct = hadamard_source(rng, n)
    q, grid = gen.equivalent(rng, q, grid, rng.choice(CLI_MIX_PARAMS["lift_by"]))
    if variant == "random" or variant == "bh_random":
        q = rng.choice(CLI_MIX_PARAMS["random_q"])
        grid = gen.random_grid(rng, q, n)
        while gen.is_hadamard(gen.to_complex(q, grid)):
            grid = gen.random_grid(rng, q, n)
    m = (q, grid)
    if kind == "verify" and variant.startswith("c_"):
        left, right = (np.exp(2j * np.pi * np.array([rng.random() for _ in range(n)]))
                       for _ in range(2))
        h = left[:, None] * gen.to_complex(q, grid) * right[None, :]
        if variant == "c_perturbed":
            h[rng.randrange(n), rng.randrange(n)] *= np.exp(1j * CLI_MIX_PARAMS["c_phase_jitter"])
        return kind, ["verify", write(gen.format_c(h))], {"hadamard": gen.is_hadamard(h)}
    if kind == "refuse":
        return kind, ["spectrum", write(gen.format_c(gen.to_complex(q, grid)))], {}
    if kind == "catalog_show":
        name = rng.choice(sorted(gen.CATALOG))
        return kind, ["catalog", "show", name, "--json"], {"name": name}
    if kind == "catalog_list":
        return kind, ["catalog", "list", "--json"], {}
    if kind == "defect":
        expect = {"refuse": True} if variant == "random" else {"defect": dfct}
        return kind, ["defect", write(gen.format_bh(q, grid)), "--json"], expect
    if kind == "verify":
        argv = ["verify", write(gen.format_bh(q, grid)), "--json"]
        return kind, argv, {"hadamard": gen.is_hadamard(gen.to_complex(q, grid))}
    if kind in ("charpoly", "spectrum", "dephase"):
        return kind, [kind, write(gen.format_bh(q, grid)), "--json"], {"matrix": m}
    if kind == "equiv_standard":
        src = hadamard_source(rng, n)[:2]
        b = gen.equivalent(rng, *src, rng.choice(CLI_MIX_PARAMS["lift_by"]))
        argv = ["equiv", "standard", write(gen.format_bh(*src)), write(gen.format_bh(*b)), "--json"]
        return kind, argv, {"a": src, "b": b}
    if kind == "equiv_unitary":
        b = gen.similar(rng, q, grid) if variant == "similar" else gen.equivalent(rng, q, grid)
        argv = ["equiv", "unitary", write(gen.format_bh(q, grid)), write(gen.format_bh(*b)), "--json"]
        return kind, argv, {"equivalent": gen.same_poly(gen.scaled_poly(q, grid), gen.scaled_poly(*b))}
    raise ValueError(f"unknown op kind {kind}")


def _readme_expect(kind: str, expect: dict) -> dict:
    if "source" in expect:
        m = gen.catalog_matrix(expect["source"])
        if kind == "verify":
            return {"hadamard": gen.is_hadamard(gen.to_complex(*m))}
        if kind == "defect":
            return {"defect": gen.CATALOG[expect["source"]]["defect"]}
        return {"matrix": m}
    if kind == "equiv_standard":
        return {"a": gen.catalog_matrix(expect["pair"][0]), "b": gen.catalog_matrix(expect["pair"][1])}
    if kind == "equiv_unitary":
        a, b = (gen.catalog_matrix(x) for x in expect["pair"])
        return {"equivalent": gen.same_poly(gen.scaled_poly(*a), gen.scaled_poly(*b))}
    return expect


def cli_mix_ops(rng, directory: str) -> list[dict]:
    """CLI_MIX_CYCLES cycles of CLI_MIX with the README ops spread through each."""
    write = Writer(directory)
    ops = []
    for _ in range(CLI_MIX_CYCLES):
        readme = iter(README_OPS)
        for i, slot in enumerate(CLI_MIX):
            kind, argv, expect = _generated_op(rng, write, *slot)
            if expect.get("equivalent", True) is None:
                raise RuntimeError("generated a unitary pair that numpy cannot decide")
            ops.append({"kind": kind, "group": f"{kind}{slot[1]}", "argv": argv, "expect": expect})
            if i % 4 == 3 or i == len(CLI_MIX) - 1:
                kind, argv, expect = next(readme)
                ops.append({"kind": kind, "group": f"readme_{kind}", "argv": argv,
                            "expect": _readme_expect(kind, expect)})
    return ops


def report_ops() -> list[dict]:
    return [{"kind": "report", "argv": ["report", "--json"], "expect": {}}]


# --- parsing -----------------------------------------------------------------

def _ints(line: str) -> list[int]:
    return [int(t) for t in line.split(":", 1)[1].split()]


def _parse_plain(kind: str, text: str) -> dict:
    lines = text.splitlines()
    if kind == "catalog_list":
        found = [re.match(r"(\S+)\s+q=(\d+) n=(\d+)", ln) for ln in lines]
        return {"entries": {m[1]: (int(m[2]), int(m[3])) for m in found}}
    if kind in ("catalog_show", "dephase"):
        q, n = (int(t) for t in lines[0].split()[1:])
        out = {"q": q, "grid": [[int(t) for t in ln.split()] for ln in lines[1:n + 1]]}
        if kind == "dephase":
            out["left"], out["right"] = _ints(lines[n + 1]), _ints(lines[n + 2])
        return out
    if kind == "verify":
        return {"hadamard": lines[0].startswith("hadamard: true")}
    if kind == "spectrum":
        pairs = []
        for ln in lines:
            re_s, im_s, mult = ln.split()
            pairs.append((complex(float(re_s), float(im_s)), int(mult[1:])))
        return {"pairs": pairs}
    if kind == "defect":
        return {"defect": int(lines[0].split(":")[1])}
    if kind == "equiv_standard":
        out = {"equivalent": lines[0] == "equivalent: true"}
        if out["equivalent"]:
            out["witness"] = {"row_perm": _ints(lines[1]), "col_perm": _ints(lines[2]),
                              "left": _ints(lines[3]), "right": _ints(lines[4])}
        return out
    if kind == "equiv_unitary":
        return {"equivalent": lines[0] == "equivalent: true"}
    raise ValueError(f"no plain-text parser for {kind}")


def _parse_json(kind: str, text: str) -> dict:
    d = json.loads(text)
    if kind == "catalog_list":
        return {"entries": {e["name"]: (e["q"], e["n"]) for e in d["catalog"]}}
    if kind == "catalog_show":
        return {"q": d["q"], "grid": d["matrix"]}
    if kind == "verify":
        return {"hadamard": d["hadamard"]}
    if kind == "charpoly":
        return {"q": d["q"], "e": d["charpoly"]["e"]}
    if kind == "spectrum":
        return {"pairs": [(complex(p["re"], p["im"]), p["mult"]) for p in d["spectrum"]]}
    if kind == "dephase":
        return {"q": d["q"], "grid": d["matrix"], "left": d["left"], "right": d["right"]}
    if kind == "defect":
        return {"defect": d["defect"]}
    if kind in ("equiv_standard", "equiv_unitary"):
        return d["equiv"]
    raise ValueError(f"no JSON parser for {kind}")


# --- oracles -----------------------------------------------------------------

def check(op: dict, rc: int, out: str, err: str) -> str | None:
    """None when the op's exit code and output agree with its expectation."""
    kind, e = op["kind"], op["expect"]
    if kind == "refuse" or e.get("refuse"):
        if rc == 2 and not out and err.startswith("error:"):
            return None
        return f"expected a clean exit 2, got exit {rc}"
    want_rc = 0
    if kind == "verify":
        want_rc = 0 if e["hadamard"] else 1
    elif kind == "equiv_unitary":
        want_rc = 0 if e["equivalent"] else 1
    if rc != want_rc:
        return f"exit {rc}, expected {want_rc}: {err.strip()[-200:]}"
    try:
        r = (_parse_json if "--json" in op["argv"] else _parse_plain)(kind, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output ({type(exc).__name__}: {exc})"
    return _check_result(kind, e, r)


def _check_result(kind: str, e: dict, r: dict) -> str | None:
    if kind == "catalog_list":
        want = {name: (c["q"], len(c["grid"])) for name, c in gen.CATALOG.items()}
        return None if r["entries"] == want else "catalog listing differs"
    if kind == "catalog_show":
        ok = (r["q"], r["grid"]) == gen.catalog_matrix(e["name"])
        return None if ok else f"catalog grid of {e['name']} differs"
    if kind == "verify":
        return None if r["hadamard"] == e["hadamard"] else "wrong Hadamard verdict"
    if kind == "equiv_unitary":
        return None if r["equivalent"] == e["equivalent"] else "wrong unitary verdict"
    if kind == "defect":
        return None if r["defect"] == e["defect"] else f"defect {r['defect']}, expected {e['defect']}"
    q, grid = e["matrix"] if "matrix" in e else (None, None)
    if kind == "charpoly":
        n = len(grid)
        want = np.poly(gen.to_complex(q, grid))[::-1]
        got = np.array([gen.embed(r["q"], c) for c in r["e"]])
        if len(got) != n + 1:
            return f"{len(got)} coefficients for n={n}"
        dev = float(np.max(np.abs(got - want)))
        return None if dev <= gen.poly_tol(n) else f"coefficients off numpy.poly by {dev:.2e}"
    if kind == "spectrum":
        h = gen.to_complex(q, grid)
        return gen.match_spectrum(r["pairs"], np.linalg.eigvals(h / math.sqrt(len(grid))))
    if kind == "dephase":
        d, left, right = r["grid"], r["left"], r["right"]
        n = len(grid)
        if any(d[0][j] for j in range(n)) or any(d[i][0] for i in range(n)):
            return "first row or column is not zero"
        rebuilt = [[(d[i][j] + left[i] + right[j]) % q for j in range(n)] for i in range(n)]
        return None if rebuilt == grid else "phases do not reconstruct the input"
    if kind == "equiv_standard":
        if not r["equivalent"]:
            return "hit pair reported inequivalent"
        w = dict(r["witness"])
        w.setdefault("q", math.lcm(e["a"][0], e["b"][0]))
        ok = gen.same_matrix(gen.apply_witness(w, e["b"]), e["a"])
        return None if ok else "witness does not map the second matrix onto the first"
    raise ValueError(f"no oracle for {kind}")


class ReportOracle:
    """The first report fixes the reference stdout; later ones must match it byte for byte."""

    def __init__(self) -> None:
        self.reference: str | None = None

    def __call__(self, op: dict, rc: int, out: str, err: str) -> str | None:
        if rc != 0:
            return f"exit {rc}: {err.strip()[-200:]}"
        if self.reference is not None:
            return None if out == self.reference else "stdout differs from the run's first report"
        try:
            statuses = {c["id"]: c["status"] for c in json.loads(out)["claims"]}
        except (ValueError, KeyError, TypeError) as exc:
            return f"unparseable report ({exc})"
        if statuses != REPORT_STATUSES:
            return f"statuses {statuses} differ from the expected C1-C11 set"
        self.reference = out
        return None
