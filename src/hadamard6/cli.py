"""Command-line surface: matrix I/O, invariant queries, equivalence queries,
and a one-shot audit report with one record per published claim.

Exit codes: 0 success / property true, 1 property false or a refuted claim,
2 usage or malformed input, 3 numeric failure (root convergence in `spectrum`;
the report is exact and float-free) or an `equiv standard` search that ran out
of its node budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog
from .cyclo import group_ring_mul
from .equivalence import (
    SearchBudgetExceeded,
    _partition,
    apply_witness,
    standard_equivalent,
    unitary_equivalent,
)
from .invariants import (
    CLOSED_FORM_A2A,
    REFERENCE_SPECTRAL_FUNCTIONS,
    ConvergenceError,
    RankCertificate,
    charpoly_exact,
    charpoly_group_ring,
    defect_certificate,
    poly_eq,
    spectrum_numeric,
)
from .matrices import (
    ButsonMatrix,
    Record,
    dephase,
    format_matrix,
    is_hadamard_exact,
    is_hadamard_numeric,
    parse_matrix,
)

CONFIRMED = "CONFIRMED"
REFUTED = "REFUTED"
DISCREPANCY = "DISCREPANCY-DOCUMENTED"


class ClaimRecord(Record):
    __slots__ = ("id", "claim", "computed", "status")
    id: str
    claim: str
    computed: str
    status: str

    def __post_init__(self) -> None:
        if self.status in (REFUTED, DISCREPANCY) and not self.computed:
            raise ValueError("a refuted or discrepant claim must carry its counter-value")


def _f(x: float) -> str:
    """Fixed 15-significant-digit float rendering for reproducible output."""
    return f"{float(x):.15g}"


def _resolve(source: str) -> tuple[str, ButsonMatrix | tuple[tuple[complex, ...], ...]]:
    # The name the JSON output reports, without a "catalog:" prefix, and the matrix.
    name = source.removeprefix("catalog:")
    if source == "-":
        return name, parse_matrix(sys.stdin.read())
    if name != source:
        return name, catalog.get(name)
    if os.path.exists(source):
        with open(source, encoding="utf-8") as fh:
            return name, parse_matrix(fh.read())
    try:
        return name, catalog.get(source)
    except KeyError:
        raise ValueError(
            f"{source!r} is neither a readable file nor a catalog name"
        ) from None


def _resolve_exact(source: str) -> tuple[str, ButsonMatrix]:
    name, m = _resolve(source)
    if not isinstance(m, ButsonMatrix):
        raise ValueError("this command needs an exact BH matrix, not a complex one")
    return name, m


def _emit(args, payload: dict, plain: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(plain, end="" if plain.endswith("\n") else "\n")


def cmd_catalog(args) -> int:
    if args.action == "list":
        entries = catalog.entries()
        payload = {"catalog": [{"name": e.name, "q": e.matrix.q, "n": e.matrix.n,
                                "note": e.note} for e in entries]}
        _emit(args, payload, "\n".join(
            f"{e.name:4s} q={e.matrix.q} n={e.matrix.n}  {e.note}" for e in entries))
        return 0
    b = catalog.get(args.name)
    payload = {"name": args.name, "q": b.q, "n": b.n,
               "matrix": [list(r) for r in b.exponents]}
    _emit(args, payload, format_matrix(b))
    return 0


def cmd_verify(args) -> int:
    name, m = _resolve(args.matrix)
    if isinstance(m, ButsonMatrix):
        ok = is_hadamard_exact(m)
        method = "exact"
    else:
        ok = is_hadamard_numeric(m, args.tol)
        method = "numeric"
    payload = {"name": name, "hadamard": ok, "method": method}
    _emit(args, payload, f"hadamard: {str(ok).lower()} ({method})")
    return 0 if ok else 1


def cmd_charpoly(args) -> int:
    name, b = _resolve_exact(args.matrix)
    p = charpoly_exact(b)
    payload = {"name": name, "q": p.q, "n": b.n,
               "charpoly": {"e": [list(c.coeffs) for c in p.e]}}
    lines = [f"scaled charpoly over the order-{p.q} ring "
             f"(x^k coefficient = e_k * {b.n}^(-({b.n}-k)/2)):"]
    for k, c in enumerate(p.e):
        lines.append(f"  e{k} = {c}")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_spectrum(args) -> int:
    name, b = _resolve_exact(args.matrix)
    spec = spectrum_numeric(charpoly_exact(b))
    payload = {"name": name, "q": b.q, "n": b.n,
               "spectrum": [
                   {"re": float(_f(v.real)), "im": float(_f(v.imag)), "mult": m}
                   for v, m in spec.pairs
               ]}
    lines = [f"{_f(v.real)} {_f(v.imag)} x{m}" for v, m in spec.pairs]
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_dephase(args) -> int:
    name, b = _resolve_exact(args.matrix)
    d, left, right = dephase(b)
    payload = {"name": name, "q": b.q, "n": b.n,
               "matrix": [list(r) for r in d.exponents],
               "left": list(left.exps), "right": list(right.exps)}
    plain = format_matrix(d) + \
        "left: " + " ".join(map(str, left.exps)) + "\n" + \
        "right: " + " ".join(map(str, right.exps))
    _emit(args, payload, plain)
    return 0


def cmd_defect(args) -> int:
    name, b = _resolve_exact(args.matrix)
    cert = defect_certificate(b)
    payload = {"name": name, "q": b.q, "n": b.n, "defect": cert.defect,
               "rank": cert.rank, "primes": cert.primes}
    _emit(args, payload, f"defect: {cert.defect}")
    return 0


def _witness_payload(w) -> dict:
    return {"row_perm": list(w.row_perm), "col_perm": list(w.col_perm),
            "q": w.left.q, "left": list(w.left.exps), "right": list(w.right.exps)}


def cmd_equiv(args) -> int:
    _, b1 = _resolve_exact(args.matrix1)
    _, b2 = _resolve_exact(args.matrix2)
    if args.mode == "unitary":
        eq = unitary_equivalent(b1, b2)
        payload = {"equiv": {"mode": "unitary", "equivalent": eq, "witness": None}}
        _emit(args, payload, f"equivalent: {str(eq).lower()}")
        return 0 if eq else 1
    verdict = standard_equivalent(b1, b2)
    payload = {"equiv": {
        "mode": "standard",
        "equivalent": verdict.equivalent,
        "witness": _witness_payload(verdict.witness) if verdict.witness else None,
        "row_perms_examined": verdict.search_stats,
    }}
    lines = [f"equivalent: {str(verdict.equivalent).lower()}"]
    if verdict.witness:
        w = verdict.witness
        lines.append("row_perm: " + " ".join(map(str, w.row_perm)))
        lines.append("col_perm: " + " ".join(map(str, w.col_perm)))
        lines.append("left:  " + " ".join(map(str, w.left.exps)))
        lines.append("right: " + " ".join(map(str, w.right.exps)))
    _emit(args, payload, "\n".join(lines))
    return 0 if verdict.equivalent else 1


# --- claim audit -----------------------------------------------------------

# The variants, dephased forms and unit-diagonal forms, whose unitary classes
# claims C5-C7 and C10 read.
_VARIANTS = ("A10", "A20", "A30", "A40", "A50", "A60")
_FAMILIES = (_VARIANTS, ("A01", "A02", "A03"), ("A1", "A2", "A3"))


def _claim_hadamard() -> ClaimRecord:
    bad = [e.name for e in catalog.entries() if not is_hadamard_exact(e.matrix)]
    ones = ButsonMatrix(3, [[0] * 6 for _ in range(6)])
    ones_fails = not is_hadamard_exact(ones)
    disputed = {
        name: is_hadamard_exact(ButsonMatrix(3, grid))
        for name, grid in catalog.DISPUTED_READINGS.items()
    }
    computed = (
        f"all {len(catalog.names())} catalog matrices orthogonal exactly; all-ones grid fails; "
        f"transcribed readings for {', '.join(sorted(disputed))} fail orthogonality and were "
        f"replaced by the derived grids (A2 from diagonal-normalizing A02, A40 from the template)"
    )
    if bad or not ones_fails:
        return ClaimRecord("C1", "every catalog matrix is Hadamard",
                           f"failing: {', '.join(bad) or 'all-ones passed'}", REFUTED)
    status = DISCREPANCY if (disputed and not any(disputed.values())) else CONFIRMED
    return ClaimRecord("C1", "every catalog matrix is Hadamard", computed, status)


def _claim_reference_poly(cid: str, polys: dict, name: str, claim: str) -> ClaimRecord:
    p = polys[name]
    ok = poly_eq(p, REFERENCE_SPECTRAL_FUNCTIONS[name])
    return ClaimRecord(
        cid, claim,
        "exact match" if ok else "coefficients differ: " + str([str(c) for c in p.e]),
        CONFIRMED if ok else REFUTED)


def _claim_m6_m61_standard() -> ClaimRecord:
    verdict = standard_equivalent(catalog.get("M6"), catalog.get("M61"))
    ok = verdict.equivalent and \
        apply_witness(verdict.witness, catalog.get("M61")) == catalog.get("M6")
    return ClaimRecord(
        "C4", "M6 and M61 are standard-equivalent with a verifiable witness",
        (f"witness rows {list(verdict.witness.row_perm)} cols {list(verdict.witness.col_perm)}, "
         f"verified exactly; {verdict.search_stats} row permutations examined")
        if ok else "no witness found",
        CONFIRMED if ok else REFUTED)


def _claim_variant_polys(polys: dict, classes: list[list[int]]) -> ClaimRecord:
    mismatched = [n for n in _VARIANTS if not poly_eq(polys[n], REFERENCE_SPECTRAL_FUNCTIONS[n])]
    if len(classes) != len(_VARIANTS):
        return ClaimRecord("C5", "the six variant spectral functions are pairwise distinct",
                           "a pair of variants shares its polynomial", REFUTED)
    if mismatched:
        return ClaimRecord(
            "C5", "variant spectral functions match the reference displays and are distinct",
            f"pairwise distinct, but computed polynomials for {', '.join(mismatched)} differ "
            "from the displays", DISCREPANCY)
    return ClaimRecord(
        "C5", "variant spectral functions match the reference displays and are distinct",
        "all six match the displays exactly; all 15 pairs distinct", CONFIRMED)


def _claim_dephased_collapse(classes: list[list[int]]) -> ClaimRecord:
    ok = classes == [[0, 2], [1]]
    return ClaimRecord(
        "C6", "A01 and A03 share their spectral function; A02 differs",
        "f(A01) = f(A03) != f(A02), exact" if ok else "collapse pattern violated",
        CONFIRMED if ok else REFUTED)


def _claim_shared_spectrum(polys: dict, classes: list[list[int]]) -> ClaimRecord:
    p1 = polys["A1"]
    same = len(classes) == 1
    reference = poly_eq(p1, REFERENCE_SPECTRAL_FUNCTIONS["A1"])
    conj_invariant = poly_eq(p1, charpoly_exact(catalog.get("A1").conjugated()))
    return ClaimRecord(
        "C7", "A1, A2, A3 share their scaled charpoly, matching the reference spectrum "
              "(x^2-6)(x^2-3x+6)^2 in x = sqrt6*lambda, independent of the root choice",
        (f"identical exactly: {same}; reference matched exactly: {reference}; "
         f"conjugation-invariant: {conj_invariant}"),
        CONFIRMED if same and reference and conj_invariant else REFUTED)


def _claim_standard_classes() -> ClaimRecord:
    v12 = standard_equivalent(catalog.get("A1"), catalog.get("A2"))
    v13 = standard_equivalent(catalog.get("A1"), catalog.get("A3"))
    vf = standard_equivalent(catalog.get("A1"), catalog.get("F6"), prescreen=False)
    ok = v12.equivalent and v13.equivalent and not vf.equivalent \
        and vf.search_stats == 720
    return ClaimRecord(
        "C8", "A1 = A2 = A3 under standard equivalence; A1 vs F6 refuted exhaustively",
        (f"witnesses verified for A1~A2 and A1~A3; A1 vs F6 refuted after "
         f"{vf.search_stats} row permutations"),
        CONFIRMED if ok else REFUTED)


def _rank_text(cert: RankCertificate) -> str:
    if cert.rank == cert.columns:
        return f"rank {cert.rank} of {cert.columns} mod one prime"
    return (f"rank {cert.rank} of {cert.columns}, certified by {cert.primes} prime "
            f"ideals whose norms multiply past the Hadamard bound 2^{cert.bound_bits}")


def _claim_isolation() -> ClaimRecord:
    c1 = defect_certificate(catalog.get("A1"))
    cf = defect_certificate(catalog.get("F6"))
    ok = c1.defect == 0 and cf.defect == 4
    return ClaimRecord(
        "C9", "defect(A1) = 0 certifies isolation; control defect(F6) = 4",
        (f"defect(A1)={c1.defect}, defect(F6)={cf.defect}; exact ranks over Q(zeta): "
         f"A1 {_rank_text(c1)}; F6 {_rank_text(cf)}"),
        CONFIRMED if ok else REFUTED)


def _claim_class_counts(classes: list[list[list[int]]]) -> ClaimRecord:
    counts = tuple(map(len, classes))
    ok = counts == (6, 2, 1)
    return ClaimRecord(
        "C10", "unitary class counts: variants 6, dephased forms 2, unit-diagonal forms 1",
        f"counts {counts[0]}/{counts[1]}/{counts[2]}",
        CONFIRMED if ok else REFUTED)


def _packed(coeffs) -> list[int]:
    # A polynomial in x and a, x^k a^j at index 13k + j (Kronecker substitution).
    # Every polynomial of the C11 audit has degree at most 6 in x and 12 in a, so
    # group_ring_mul multiplies two of them without wrapping round.
    out = [0] * 91
    for k, poly in enumerate(coeffs):
        out[13 * k:13 * k + len(poly)] = poly
    return out


def _claim_symmetric_family() -> ClaimRecord:
    # A2(a) has the entries a^e for A2's exponents e, so the group-ring Berkowitz
    # loop at order 13, above every degree in a it reaches, gives det(xI - A2(a))
    # over Z[a]. The closed form is read with x = sqrt6*lambda.
    det = _packed(charpoly_group_ring(13, catalog.get("A2").exponents))
    first, second = (_packed(f) for f in CLOSED_FORM_A2A)
    square = group_ring_mul(second, second)
    closed = group_ring_mul(first, square)
    difference = [c - d for c, d in zip(closed, det)]
    documented = difference == group_ring_mul(_packed([(0, 0, 0, 2)]), square)
    rank_one = [sum(det[k:k + 13]) for k in range(0, 91, 13)] == [0, 0, 0, 0, 0, -6, 1]
    # Both x^5 coefficients -6: the roots sum to 6 in x, so the unscaled values to sqrt6.
    sum_six = closed[65:78] == det[65:78] == [-6] + [0] * 12
    computed = (
        "exact over Z[a], x = sqrt6*lambda: closed form minus det(xI - A2(a)) "
        + ("is 2a^3 (x^2 - (2-a-a^2)x + 1-a-2a^2+3a^3-a^4)^2, zero only at a=0"
           if documented else "is not 2a^3 times the square of its second factor")
        + "; a=1 gives " + ("x^5(x-6), spectrum {6, 0^5}" if rank_one else "not x^5(x-6)")
        + ("; read unscaled, the closed form sums to sqrt6 against trace 6" if sum_six
           else "; the closed form's x^5 coefficient differs from -trace"))
    status = DISCREPANCY if any(difference) else CONFIRMED
    return ClaimRecord(
        "C11", "symmetric family A2(a): a=1 gives {6, 0^5}; published closed-form "
               "spectrum compared with det(xI - A2(a)) over Z[a]",
        computed, status if rank_one else REFUTED)


def build_claims() -> list[ClaimRecord]:
    # One exact polynomial per distinct grid that C2, C3, C5-C7 and C10 read
    # (A01 and A03 are one grid), looked up by name.
    grids = {name: catalog.get(name) for name in sum(_FAMILIES, ("M6", "M61"))}
    table = {b: charpoly_exact(b) for b in dict.fromkeys(grids.values())}
    polys = {name: table[b] for name, b in grids.items()}
    classes = [_partition(len(f), lambda i, j: poly_eq(polys[f[i]], polys[f[j]]))
               for f in _FAMILIES]
    return [
        _claim_hadamard(),
        _claim_reference_poly("C2", polys, "M6",
                              "scaled charpoly of M6 equals (x^2-1)^3 coefficientwise"),
        _claim_reference_poly("C3", polys, "M61",
                              "spectrum of M61 is the reference eigenvalue multiset: "
                              "(x^2-6)^2(x^2+4x+6) in x = sqrt6*lambda"),
        _claim_m6_m61_standard(),
        _claim_variant_polys(polys, classes[0]),
        _claim_dephased_collapse(classes[1]),
        _claim_shared_spectrum(polys, classes[2]),
        _claim_standard_classes(),
        _claim_isolation(),
        _claim_class_counts(classes),
        _claim_symmetric_family(),
    ]


def cmd_report(args) -> int:
    claims = build_claims()
    payload = {"claims": [
        {"id": c.id, "claim": c.claim, "computed": c.computed, "status": c.status}
        for c in claims
    ]}
    lines = ["# Claim audit", "", "| id | status | claim |", "|----|--------|-------|"]
    lines += [f"| {c.id} | {c.status} | {c.claim} |" for c in claims]
    lines.append("")
    for c in claims:
        lines.append(f"{c.id} [{c.status}]")
        lines.append(f"  claim:    {c.claim}")
        lines.append(f"  computed: {c.computed}")
    _emit(args, payload, "\n".join(lines))
    return 1 if any(c.status == REFUTED for c in claims) else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hadamard6",
        description="Exact toolkit for the 6x6 Butson-type Hadamard catalog",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list the catalog or show one matrix")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?", help="catalog name (for 'show')")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("verify", help="Hadamard verdict (exact for BH, numeric for C)")
    p.add_argument("matrix", help="catalog name, file path, or - for stdin")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("charpoly", help="exact scaled characteristic polynomial")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_charpoly)

    p = sub.add_parser("spectrum", help="numeric spectrum with multiplicities")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("dephase", help="standard form plus reconstructing phases")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_dephase)

    p = sub.add_parser("defect", help="first-order deformation defect (exact)")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_defect)

    p = sub.add_parser("equiv", help="decide equivalence of two matrices")
    p.add_argument("mode", choices=["standard", "unitary"])
    p.add_argument("matrix1")
    p.add_argument("matrix2")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("report", help="audit every published claim")
    p.set_defaults(func=cmd_report)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog" and (args.action == "show") != (args.name is not None):
        parser.error("catalog show needs a name, and catalog list takes none")
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except SearchBudgetExceeded as exc:
        print(f"search budget exceeded: {exc}", file=sys.stderr)
        return 3
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
