"""Command-line surface: matrix I/O, invariant queries, equivalence queries,
and a one-shot audit report with one record per published claim.

Exit codes: 0 success / property true, 1 property false or a refuted claim,
2 usage or malformed input, 3 numeric failure (root convergence in `spectrum`;
the report is exact and float-free) or an `equiv standard` search that ran out
of its node budget.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

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


def cmd_catalog(args) -> tuple[int, dict, str]:
    if args.action == "list":
        entries = catalog.entries()
        payload = {"catalog": [{"name": e.name, "q": e.matrix.q, "n": e.matrix.n,
                                "note": e.note} for e in entries]}
        return 0, payload, "\n".join(
            f"{e.name:4s} q={e.matrix.q} n={e.matrix.n}  {e.note}" for e in entries)
    b = catalog.get(args.name)
    payload = {"name": args.name, "q": b.q, "n": b.n,
               "matrix": [list(r) for r in b.exponents]}
    return 0, payload, format_matrix(b)


def cmd_verify(args) -> tuple[int, dict, str]:
    name, m = _resolve(args.matrix)
    if isinstance(m, ButsonMatrix):
        ok = is_hadamard_exact(m)
        method = "exact"
    else:
        ok = is_hadamard_numeric(m, args.tol)
        method = "numeric"
    payload = {"name": name, "hadamard": ok, "method": method}
    return 0 if ok else 1, payload, f"hadamard: {str(ok).lower()} ({method})"


def cmd_charpoly(args) -> tuple[int, dict, str]:
    name, b = _resolve_exact(args.matrix)
    p = charpoly_exact(b)
    payload = {"name": name, "q": p.q, "n": b.n,
               "charpoly": {"e": [list(c.coeffs) for c in p.e]}}
    lines = [f"scaled charpoly over the order-{p.q} ring "
             f"(x^k coefficient = e_k * {b.n}^(-({b.n}-k)/2)):"]
    lines += [f"  e{k} = {c}" for k, c in enumerate(p.e)]
    return 0, payload, "\n".join(lines)


def cmd_spectrum(args) -> tuple[int, dict, str]:
    name, b = _resolve_exact(args.matrix)
    spec = spectrum_numeric(charpoly_exact(b))
    payload = {"name": name, "q": b.q, "n": b.n,
               "spectrum": [
                   {"re": float(_f(v.real)), "im": float(_f(v.imag)), "mult": m}
                   for v, m in spec.pairs
               ]}
    lines = [f"{_f(v.real)} {_f(v.imag)} x{m}" for v, m in spec.pairs]
    return 0, payload, "\n".join(lines)


def cmd_dephase(args) -> tuple[int, dict, str]:
    name, b = _resolve_exact(args.matrix)
    d, left, right = dephase(b)
    payload = {"name": name, "q": b.q, "n": b.n,
               "matrix": [list(r) for r in d.exponents],
               "left": list(left.exps), "right": list(right.exps)}
    text = format_matrix(d) + \
        "left: " + " ".join(map(str, left.exps)) + "\n" + \
        "right: " + " ".join(map(str, right.exps))
    return 0, payload, text


def cmd_defect(args) -> tuple[int, dict, str]:
    name, b = _resolve_exact(args.matrix)
    cert = defect_certificate(b)
    payload = {"name": name, "q": b.q, "n": b.n, "defect": cert.defect,
               "rank": cert.rank, "primes": cert.primes}
    return 0, payload, f"defect: {cert.defect}"


def cmd_equiv(args) -> tuple[int, dict, str]:
    _, b1 = _resolve_exact(args.matrix1)
    _, b2 = _resolve_exact(args.matrix2)
    if args.mode == "unitary":
        eq = unitary_equivalent(b1, b2)
        payload = {"equiv": {"mode": "unitary", "equivalent": eq, "witness": None}}
        return 0 if eq else 1, payload, f"equivalent: {str(eq).lower()}"
    verdict = standard_equivalent(b1, b2)
    w = verdict.witness
    witness = {"row_perm": list(w.row_perm), "col_perm": list(w.col_perm), "q": w.left.q,
               "left": list(w.left.exps), "right": list(w.right.exps)} if w else None
    payload = {"equiv": {
        "mode": "standard",
        "equivalent": verdict.equivalent,
        "witness": witness,
        "row_perms_examined": verdict.search_stats,
    }}
    # The text lines read row_perm:, col_perm:, left: and right: padded to
    # six characters, so the values of left and right line up.
    lines = [f"equivalent: {str(verdict.equivalent).lower()}"]
    if witness:
        lines += [f"{key + ':':6} " + " ".join(map(str, witness[key]))
                  for key in ("row_perm", "col_perm", "left", "right")]
    return 0 if verdict.equivalent else 1, payload, "\n".join(lines)


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
    status = DISCREPANCY if (disputed and not any(disputed.values())) else CONFIRMED
    if bad or not ones_fails:
        computed, status = f"failing: {', '.join(bad) or 'all-ones passed'}", REFUTED
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
    claim = "variant spectral functions match the reference displays and are distinct"
    computed, status = "all six match the displays exactly; all 15 pairs distinct", CONFIRMED
    if len(classes) != len(_VARIANTS):
        claim = "the six variant spectral functions are pairwise distinct"
        computed, status = "a pair of variants shares its polynomial", REFUTED
    elif mismatched:
        computed, status = (f"pairwise distinct, but computed polynomials for "
                            f"{', '.join(mismatched)} differ from the displays", DISCREPANCY)
    return ClaimRecord("C5", claim, computed, status)


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


def cmd_report(args) -> tuple[int, dict, str]:
    claims = build_claims()
    # Keys in __slots__ order (id, claim, computed, status), as report_golden.json has them.
    payload = {"claims": [{key: getattr(c, key) for key in c.__slots__} for c in claims]}
    lines = ["# Claim audit", "", "| id | status | claim |", "|----|--------|-------|"]
    lines += [f"| {c.id} | {c.status} | {c.claim} |" for c in claims]
    lines.append("")
    for c in claims:
        lines.append(f"{c.id} [{c.status}]")
        lines.append(f"  claim:    {c.claim}")
        lines.append(f"  computed: {c.computed}")
    return 1 if any(c.status == REFUTED for c in claims) else 0, payload, "\n".join(lines)


# Each subcommand's handler, help line and positionals, a positional mapping
# to its choices or None; the one ending in "?" is optional. Every subcommand
# also takes --json, and verify takes --tol FLOAT. main parses argv from this
# table rather than with argparse, whose import (with gettext and locale) and
# parser tree cost each fresh process 3.5-4.8 ms of CPU (2-core x86-64).
COMMANDS = {
    "catalog": (cmd_catalog, "list the catalog or show one matrix",
                {"action": ("list", "show"), "name?": None}),
    "verify": (cmd_verify, "Hadamard verdict (exact for BH, numeric for C)", {"matrix": None}),
    "charpoly": (cmd_charpoly, "exact scaled characteristic polynomial", {"matrix": None}),
    "spectrum": (cmd_spectrum, "numeric spectrum with multiplicities", {"matrix": None}),
    "dephase": (cmd_dephase, "standard form plus reconstructing phases", {"matrix": None}),
    "defect": (cmd_defect, "first-order deformation defect (exact)", {"matrix": None}),
    "equiv": (cmd_equiv, "decide equivalence of two matrices",
              {"mode": ("standard", "unitary"), "matrix1": None, "matrix2": None}),
    "report": (cmd_report, "audit every published claim", {}),
}


def _usage(command: str | None) -> str:
    if command is None:
        return "hadamard6 [-h] {" + ",".join(COMMANDS) + "} ..."
    words = [command, "[-h] [--json]"] + ["[--tol FLOAT]"] * (command == "verify")
    for name, choices in COMMANDS[command][2].items():
        word = "{" + ",".join(choices) + "}" if choices else name.rstrip("?")
        words.append(f"[{word}]" if name.endswith("?") else word)
    return "hadamard6 " + " ".join(words)


def _fail(command: str | None, message: str):
    print(f"usage: {_usage(command)}\nhadamard6: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse(argv: list[str]) -> SimpleNamespace:
    """Parse argv against COMMANDS: -h or --help anywhere prints every
    subcommand's usage line and exits 0, a usage error prints the usage line
    and the error and exits 2."""
    if "-h" in argv or "--help" in argv:
        print(f"usage: {_usage(None)}\n\nExact toolkit for the 6x6 Butson-type Hadamard catalog\n",
              *(f"{_usage(name)}\n    {entry[1]}" for name, entry in COMMANDS.items()), sep="\n")
        raise SystemExit(0)
    if not argv:
        _fail(None, "the following arguments are required: command")
    if argv[0] not in COMMANDS:
        _fail(None, f"argument command: invalid choice: {argv[0]!r} (choose from "
                    f"{', '.join(map(repr, COMMANDS))})")
    command, rest = argv[0], iter(argv[1:])
    handler, _, positionals = COMMANDS[command]
    args = SimpleNamespace(command=command, func=handler, json=False, tol=1e-10)
    values, unknown = [], []
    for arg in rest:
        if arg == "--json":
            args.json = True
        elif command == "verify" and arg.partition("=")[0] == "--tol":
            value = arg[6:] if "=" in arg else next(rest, None)
            try:
                args.tol = float(value)
            except (TypeError, ValueError):
                _fail(command, "argument --tol: " + ("expected one argument" if value is None
                                                     else f"invalid float value: {value!r}"))
        else:
            (unknown if arg.startswith("-") and arg != "-" else values).append(arg)
    names = list(positionals)
    missing = [name for name in names[len(values):] if not name.endswith("?")]
    unknown += values[len(names):]
    if missing or unknown:
        _fail(command, f"the following arguments are required: {', '.join(missing)}"
              if missing else "unrecognized arguments: " + " ".join(unknown))
    for name, value in zip(names, values + [None]):
        if positionals[name] and value not in positionals[name]:
            _fail(command, f"argument {name}: invalid choice: {value!r} (choose from "
                           f"{', '.join(map(repr, positionals[name]))})")
        setattr(args, name.rstrip("?"), value)
    return args


def main(argv=None) -> int:
    """Run one subcommand. Its handler returns (exit code, payload, text);
    main prints the payload as JSON under --json and the text otherwise."""
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args.command == "catalog" and (args.action == "show") != (args.name is not None):
        _fail("catalog", "catalog show needs a name, and catalog list takes none")
    try:
        code, payload, text = args.func(args)
        if args.json:
            import json
            text = json.dumps(payload, indent=2)
        print(text.removesuffix("\n"))
        return code
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
