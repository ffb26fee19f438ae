import cmath
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import hadamard6
from hadamard6 import catalog, cli, equivalence
from hadamard6.matrices import ButsonMatrix, PhaseVector, format_matrix, rephase


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_fresh(args, timeout, stdin=None):
    """Run python with args in a new interpreter that imports this hadamard6."""
    src = os.path.dirname(os.path.dirname(hadamard6.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], input=stdin, env=env, capture_output=True,
                          text=True, check=False, timeout=timeout)


def complex_grid(b):
    """The entries of b as Python complex numbers, built without numpy."""
    return [[cmath.exp(2j * cmath.pi * e / b.q) for e in row] for row in b.exponents]


def test_catalog_list(capsys):
    code, out = run(capsys, "catalog", "list")
    assert code == 0
    for name in catalog.names():
        assert name in out


def test_catalog_show_round_trips(capsys):
    for name in ("A1", "M6", "F6"):
        code, out = run(capsys, "catalog", "show", name)
        assert code == 0
        from hadamard6.matrices import parse_matrix
        assert parse_matrix(out) == catalog.get(name)


def test_catalog_show_requires_name(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["catalog", "show"])
    assert exc.value.code == 2


def test_catalog_list_refuses_a_name(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["catalog", "list", "A1"])
    assert exc.value.code == 2
    assert "catalog list takes none" in capsys.readouterr().err


def test_catalog_show_unknown_name_prints_plain_message(capsys):
    assert cli.main(["catalog", "show", "Z9"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown catalog name 'Z9'; known: A1, ")
    assert '"' not in err


def test_verify_catalog_names(capsys):
    assert run(capsys, "verify", "A1")[0] == 0
    assert run(capsys, "verify", "M61")[0] == 0
    assert run(capsys, "verify", "catalog:F6")[0] == 0


def test_verify_stdin_all_ones(capsys, monkeypatch):
    import io
    text = format_matrix(ButsonMatrix(3, [[0] * 6 for _ in range(6)]))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out = run(capsys, "verify", "-")
    assert code == 1
    assert "false" in out


def test_verify_complex_file(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(format_matrix(complex_grid(catalog.get("M6"))))
    code, out = run(capsys, "verify", str(path))
    assert code == 0
    assert "numeric" in out


@pytest.mark.parametrize("text, code, out", [
    ("C 0\n", 2, ""),
    ("C 2\n1,0 1,0\n1,0\n", 2, ""),
    ("C 2\n1,0 1,0\n1,0 -1,0\n", 0, "hadamard: true (numeric)\n"),
    ("C 2\nnan,0 1,0\n1,0 -1,0\n", 1, "hadamard: false (numeric)\n"),
    ("C 2\n1,0 1,0\n1,0 nan,0\n", 1, "hadamard: false (numeric)\n"),
    ("C 2\n1,0 1,inf\n1,0 -1,0\n", 1, "hadamard: false (numeric)\n"),
    ("C 2\n1,0 1,0\n1,0 -inf,0\n", 1, "hadamard: false (numeric)\n"),
], ids=["empty", "ragged", "hadamard", "nan-first", "nan-last", "inf", "-inf"])
def test_verify_complex_edge_cases(capsys, tmp_path, text, code, out):
    path = tmp_path / "m.txt"
    path.write_text(text)
    assert run(capsys, "verify", str(path)) == (code, out)


def test_file_takes_precedence_over_catalog_name(capsys, tmp_path, monkeypatch):
    # A file literally named A1 wins unless the catalog: prefix is used.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "A1").write_text(format_matrix(ButsonMatrix(3, [[0] * 6] * 6)))
    assert run(capsys, "verify", "A1")[0] == 1
    assert run(capsys, "verify", "catalog:A1")[0] == 0


def test_verify_unknown_exits_2(capsys):
    code, _ = run(capsys, "verify", "definitely-not-a-matrix")
    assert code == 2


def test_malformed_file_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("BH 3 2\n0 0 0\n0 0 0\n")
    assert run(capsys, "verify", str(path))[0] == 2


def test_root_order_too_large_exits_2(capsys, tmp_path):
    q = 1 << 70
    path = tmp_path / "big.txt"
    path.write_text(f"BH {q} 2\n0 0\n0 {q // 2}\n")
    assert run(capsys, "equiv", "standard", str(path), str(path)) == (2, "")


def f6_over_30030(step):
    """F6 written over q = 30030, with entry (1, 1) moved by step."""
    grid = [[5005 * x for x in row] for row in catalog.get("F6").exponents]
    grid[1][1] += step
    return ButsonMatrix(30030, grid)


# q1e6, f6_30030 and q2_62 divide back to their own order (2, 6 and 2) before
# any ring arithmetic, and charpoly's coefficients stay there; at the full
# order q2_62 would need vectors of 2**61 counters. q1e6_coprime has an entry
# coprime to q, so charpoly's packed loop runs at q = 10**6. f6_moved keeps
# q = 30030 throughout, so every ring element is reduced modulo Phi_30030; it
# is not Hadamard.
LARGE_ORDER_GRIDS = {
    "q1e6": "BH 1000000 2\n0 0\n0 500000\n",
    "q1e6_coprime": "BH 1000000 2\n0 0\n0 1\n",
    "f6_30030": format_matrix(f6_over_30030(0)),
    "f6_moved": format_matrix(f6_over_30030(1)),
    "q2_62": "BH 4611686018427387904 2\n0 0\n0 2305843009213693952\n",
}
HADAMARD, NOT_HADAMARD = "hadamard: true (exact)\n", "hadamard: false (exact)\n"
# (subcommand, grid, exit code, stdout or None where it is not pinned here)
LARGE_ORDER_CASES = [
    ("verify", "q1e6", 0, HADAMARD),
    ("verify", "q1e6_coprime", 1, NOT_HADAMARD),
    ("defect", "q1e6", 0, "defect: 0\n"),
    ("charpoly", "q1e6", 0, None),
    ("charpoly", "q1e6_coprime", 0, None),
    ("charpoly", "f6_30030", 0, None),
    ("charpoly", "f6_moved", 0, None),
    ("spectrum", "q1e6", 0, None),
    ("spectrum", "q1e6_coprime", 0, None),
    ("spectrum", "f6_30030", 0, None),
    ("spectrum", "f6_moved", 0, None),
    ("verify", "f6_moved", 1, NOT_HADAMARD),
    ("defect", "f6_moved", 2, ""),
    ("verify", "q2_62", 0, HADAMARD),
    ("defect", "q2_62", 0, "defect: 0\n"),
    ("charpoly", "q2_62", 0, "scaled charpoly over the order-2 ring "
                             "(x^k coefficient = e_k * 2^(-(2-k)/2)):\n"
                             "  e0 = -2\n  e1 = 0\n  e2 = 1\n"),
    ("spectrum", "q2_62", 0, "-1 0 x1\n1 0 x1\n"),
]


@pytest.mark.parametrize("command, grid, code, out", LARGE_ORDER_CASES,
                         ids=[f"{command}-{grid}" for command, grid, *_ in LARGE_ORDER_CASES])
def test_large_root_orders_answer_in_a_fresh_interpreter(command, grid, code, out):
    # A fresh interpreter, so the 30 s bound includes the import and no state
    # left by another test.
    proc = run_fresh(["-m", "hadamard6.cli", command, "-"], timeout=30,
                     stdin=LARGE_ORDER_GRIDS[grid])
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == code
    if code < 2:
        assert proc.stderr == ""
    if out is not None:
        assert proc.stdout == out


def test_equiv_unitary_at_the_largest_order(tmp_path):
    # The 2x2 grid written over q = 2**62 against the same matrix over q = 2:
    # both polynomials sit at order 2, so poly_eq compares them there.
    big, small = tmp_path / "q2_62.txt", tmp_path / "h2.txt"
    big.write_text(LARGE_ORDER_GRIDS["q2_62"])
    small.write_text("BH 2 2\n0 0\n0 1\n")
    proc = run_fresh(["-m", "hadamard6.cli", "equiv", "unitary", str(big), str(small)],
                     timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "equivalent: true\n", "")


def test_charpoly_json_matches_library(capsys):
    code, out = run(capsys, "charpoly", "A10", "--json")
    assert code == 0
    payload = json.loads(out)
    from hadamard6.invariants import charpoly_exact
    expected = [list(c.coeffs) for c in charpoly_exact(catalog.get("A10")).e]
    assert payload["charpoly"]["e"] == expected
    assert payload["q"] == 3 and payload["n"] == 6


def test_charpoly_rejects_complex_input(capsys, tmp_path):
    path = tmp_path / "c.txt"
    path.write_text(format_matrix(complex_grid(catalog.get("M6"))))
    assert run(capsys, "charpoly", str(path))[0] == 2


def test_spectrum_json(capsys):
    code, out = run(capsys, "spectrum", "M61", "--json")
    assert code == 0
    payload = json.loads(out)
    mults = sorted(item["mult"] for item in payload["spectrum"])
    assert mults == [1, 1, 2, 2]
    assert sum(item["mult"] for item in payload["spectrum"]) == 6


def test_spectrum_numeric_failure_exits_3(capsys, monkeypatch):
    def fail(p):
        raise cli.ConvergenceError("root residual 1e-3 exceeds 1e-8")

    monkeypatch.setattr(cli, "spectrum_numeric", fail)
    assert cli.main(["spectrum", "A10"]) == 3
    assert capsys.readouterr() == ("", "numeric failure: root residual 1e-3 exceeds 1e-8\n")


@pytest.mark.parametrize("name", catalog.names())
def test_spectrum_of_a_grid_lifted_by_two_is_unchanged(capsys, tmp_path, name):
    # The same matrix written over twice its order has the same polynomial at
    # its own order, so the same roots and the same digits.
    b = catalog.get(name)
    path = tmp_path / "lifted.txt"
    path.write_text(format_matrix(b.to_order(2 * b.q)))
    assert run(capsys, "spectrum", str(path)) == run(capsys, "spectrum", name)


def test_dephase_json_reconstructs(capsys):
    code, out = run(capsys, "dephase", "A10", "--json")
    assert code == 0
    payload = json.loads(out)
    assert ButsonMatrix(payload["q"], payload["matrix"]) == catalog.get("A01")
    from hadamard6.matrices import PhaseVector, rephase
    rebuilt = rephase(
        ButsonMatrix(payload["q"], payload["matrix"]),
        PhaseVector(payload["q"], tuple(payload["left"])),
        PhaseVector(payload["q"], tuple(payload["right"])),
    )
    assert rebuilt == catalog.get("A10")


def test_defect_values(capsys):
    code, out = run(capsys, "defect", "A1")
    assert code == 0 and "defect: 0" in out
    code, out = run(capsys, "defect", "F6")
    assert code == 0 and "defect: 4" in out


@pytest.mark.parametrize("command, out", [("verify", "hadamard: true (exact)\n"),
                                          ("defect", "defect: 0\n")])
def test_largest_order_answers_at_own_order(capsys, monkeypatch, command, out):
    import io
    text = "BH 4611686018427387904 2\n0 0\n0 2305843009213693952\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(capsys, command, "-") == (0, out)


def test_defect_of_one_by_one(capsys, tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("BH 3 1\n0\n")
    assert run(capsys, "defect", str(path)) == (0, "defect: 0\n")


def test_defect_json_names_its_certificate(capsys):
    code, out = run(capsys, "defect", "F6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["defect"], payload["rank"], payload["primes"]) == (4, 21, 2)
    code, out = run(capsys, "defect", "A1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["defect"], payload["rank"], payload["primes"]) == (0, 25, 1)


@pytest.mark.parametrize("argv, code", [
    (["verify", "COMPLEX", "--tol", "nan"], 2),
], ids=["verify-complex-nan"])
def test_unusable_tolerance_is_refused(capsys, tmp_path, argv, code):
    path = tmp_path / "m.txt"
    path.write_text(format_matrix(complex_grid(catalog.get("M6"))))
    argv = [str(path) if a == "COMPLEX" else a for a in argv]
    assert run(capsys, *argv) == (code, "")


def test_exact_subcommands_run_without_numpy(tmp_path):
    # A fresh interpreter: pytest itself has numpy loaded already.
    bh = tmp_path / "bh.txt"
    bh.write_text(format_matrix(catalog.get("M61")))
    m6 = complex_grid(catalog.get("M6"))
    cx = tmp_path / "c.txt"
    cx.write_text(format_matrix(m6))
    m6[2][3] *= cmath.exp(0.1j)
    cx_off = tmp_path / "c_off.txt"
    cx_off.write_text(format_matrix(m6))
    # numpy is the heaviest import; dataclasses pulls in inspect, ast and dis
    # and compiles code for every class it decorates.
    script = textwrap.dedent("""
        import sys
        def check(what):
            loaded = [m for m in ("numpy", "dataclasses", "inspect") if m in sys.modules]
            assert not loaded, f"{what} loaded {loaded}"
        import hadamard6
        check("import hadamard6")
        from hadamard6 import cli
        for argv in (["catalog", "list"], ["verify", "A1"], ["charpoly", "A10"],
                     ["spectrum", "M61"], ["dephase", "A10"],
                     ["equiv", "unitary", "A01", "A03"], ["verify", sys.argv[1]],
                     ["defect", "A1"], ["defect", "F6"], ["report", "--json"]):
            assert cli.main(argv) == 0, argv
            check(argv)
        for argv, code in ((["equiv", "standard", "M6", "M61"], 0),
                           (["equiv", "standard", "A1", sys.argv[1]], 1),
                           (["equiv", "unitary", "A01", "A02"], 1),
                           (["verify", sys.argv[2]], 0), (["verify", sys.argv[3]], 1),
                           (["spectrum", sys.argv[2]], 2)):
            assert cli.main(argv) == code, argv
            check(argv)
        from hadamard6 import classify, get, haagerup_set, standard_equivalent
        m6, m61 = get("M6"), get("M61")
        assert standard_equivalent(m6, m61, prescreen=False).equivalent
        check("standard_equivalent")
        assert classify([m6, m61, get("F6")], "standard") == [[0, 1], [2]]
        check("classify")
        assert haagerup_set(m6) == haagerup_set(m61)
        check("haagerup_set")
    """)
    proc = run_fresh(["-c", script, str(bh), str(cx), str(cx_off)], timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "defect: 0" in lines and "defect: 4" in lines
    assert "hadamard: true (numeric)" in lines and "hadamard: false (numeric)" in lines


def test_numpy_is_an_optional_extra():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []
    assert project["optional-dependencies"]["numeric"] == ["numpy>=1.24"]
    assert "numpy>=1.24" in project["optional-dependencies"]["test"]


def test_float_mirrors_name_numpy_when_it_is_missing():
    # The four library functions that build arrays or call LAPACK import numpy
    # inside; without it each raises ImportError naming numpy.
    script = textwrap.dedent("""
        import sys
        sys.modules["numpy"] = None  # any import of numpy now raises ImportError
        from hadamard6 import catalog
        from hadamard6.catalog import agaian_symmetric
        from hadamard6.invariants import deformation_system, eig_real_symmetric
        a1 = catalog.get("A1")
        for call in (a1.to_complex, lambda: deformation_system(a1),
                     lambda: agaian_symmetric(0.5), lambda: eig_real_symmetric([[1.0]])):
            try:
                call()
            except ImportError as exc:
                assert "numpy" in str(exc), exc
            else:
                raise AssertionError(f"{call} ran without numpy")
    """)
    proc = run_fresh(["-c", script], timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_equiv_standard_exit_codes_and_witness(capsys, tmp_path):
    code, out = run(capsys, "equiv", "standard", "M6", "M61", "--json")
    assert code == 0
    payload = json.loads(out)["equiv"]
    assert payload["equivalent"] is True
    w = payload["witness"]
    from hadamard6.equivalence import Witness, apply_witness
    witness = Witness(tuple(w["row_perm"]), tuple(w["col_perm"]),
                      PhaseVector(w["q"], tuple(w["left"])),
                      PhaseVector(w["q"], tuple(w["right"])))
    assert apply_witness(witness, catalog.get("M61")) == catalog.get("M6")

    # A1 and F6 have different Haagerup sets, a miss without a search.
    code, out = run(capsys, "equiv", "standard", "A1", "F6", "--json")
    assert code == 1
    assert json.loads(out)["equiv"]["row_perms_examined"] == 0

    # B against B^T at q = 3 <= n^2, where the row keys are packed: equal
    # Haagerup sets but row keys that differ, a miss of all 6! permutations.
    b = ButsonMatrix(3, [[0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 2, 1], [0, 1, 1, 2, 1, 0],
                         [0, 2, 0, 1, 1, 0], [0, 0, 2, 1, 0, 0], [0, 0, 2, 1, 1, 0]])
    # A hit at q = 2^62 > n^2, where the row keys stay (value, count) pairs.
    q = 1 << 62
    x = ButsonMatrix(q, [[i * j * j + 5 * i for j in range(6)] for i in range(6)])
    y = rephase(x.permuted([3, 0, 5, 1, 4, 2], [2, 4, 0, 5, 1, 3]),
                PhaseVector(q, (q - 1, 7, q - 3, 0, 2, 1 << 61)),
                PhaseVector(q, (1, q - 5, 0, 3, q - 2, 11)))
    for first, second, code, examined in ((b, ButsonMatrix(3, list(zip(*b.exponents))), 1, 720),
                                          (x, y, 0, 188)):
        paths = [tmp_path / "first.txt", tmp_path / "second.txt"]
        for path, m in zip(paths, (first, second)):
            path.write_text(format_matrix(m))
        got, out = run(capsys, "equiv", "standard", *map(str, paths), "--json")
        assert (got, json.loads(out)["equiv"]["row_perms_examined"]) == (code, examined)


def test_equiv_standard_out_of_budget_exits_3(capsys, monkeypatch):
    # M6 against M61 is a hit, but 5 nodes do not cover the 6 pivots.
    monkeypatch.setattr(equivalence, "SEARCH_BUDGET", 5)
    code = cli.main(["equiv", "standard", "M6", "M61"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == ("search budget exceeded: standard search stopped "
                            "after 0 nodes, with 0 row permutations covered\n")


def test_equiv_unitary_exit_codes(capsys):
    assert run(capsys, "equiv", "unitary", "A01", "A03")[0] == 0
    assert run(capsys, "equiv", "unitary", "A01", "A02")[0] == 1
    assert run(capsys, "equiv", "unitary", "M6", "M61")[0] == 1


def test_report_exit_and_statuses(capsys):
    code, out = run(capsys, "report", "--json")
    assert code == 0
    claims = {c["id"]: c for c in json.loads(out)["claims"]}
    assert len(claims) == 11
    assert claims["C6"]["status"] == "CONFIRMED"
    assert claims["C10"]["status"] == "CONFIRMED"
    assert claims["C11"]["status"] == "DISCREPANCY-DOCUMENTED"
    assert all(c["status"] != "REFUTED" for c in claims.values())
    assert all(c["computed"] for c in claims.values())


def test_report_is_deterministic(capsys):
    _, first = run(capsys, "report", "--json")
    _, second = run(capsys, "report", "--json")
    assert first == second
    _, md1 = run(capsys, "report")
    _, md2 = run(capsys, "report")
    assert md1 == md2
    assert "| C1 |" in md1
    # The Markdown report holds the claims of the golden JSON report.
    claims = json.loads(Path(__file__).with_name("report_golden.json").read_bytes())["claims"]
    expected = "# Claim audit\n\n| id | status | claim |\n|----|--------|-------|\n"
    expected += "".join(f"| {c['id']} | {c['status']} | {c['claim']} |\n" for c in claims)
    expected += "\n" + "".join(f"{c['id']} [{c['status']}]\n  claim:    {c['claim']}\n"
                                f"  computed: {c['computed']}\n" for c in claims)
    assert md1 == expected


# The README commands, plain and with --json, and one standard miss. spectrum
# is left out, since its digits come from the platform's libm, and report,
# since report_golden.json and test_report_is_deterministic pin both forms.
GOLDEN_COMMANDS = [
    command + option
    for command in ("catalog list", "catalog show A1", "verify A1", "charpoly A10",
                    "dephase A10", "defect A1", "equiv standard M6 M61", "equiv unitary A01 A02")
    for option in ("", " --json")
] + ["equiv standard A1 F6 --json"]


def test_stdout_matches_golden_transcript(capsys):
    # Each command as "$ hadamard6 COMMAND", its stdout and "[exit CODE]".
    transcript = ""
    for command in GOLDEN_COMMANDS:
        code, out = run(capsys, *command.split())
        transcript += f"$ hadamard6 {command}\n{out}[exit {code}]\n"
    assert transcript == Path(__file__).with_name("cli_golden.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("command, code", [("catalog list", 0), ("equiv unitary A01 A02", 1)])
def test_console_script_entry_point(capsys, command, code):
    # main_entry is the console-script target of pyproject.toml: it reads
    # sys.argv and exits with main's code.
    proc = run_fresh(["-c", "from hadamard6.cli import main_entry; main_entry()",
                      *command.split()], timeout=60)
    assert (proc.returncode, proc.stderr) == (code, "")
    assert run(capsys, *command.split()) == (code, proc.stdout)


def test_report_json_matches_golden_file(capsys):
    # The report holds no float, so its bytes do not depend on the platform's libm.
    code, out = run(capsys, "report", "--json")
    assert code == 0
    assert out.encode() == Path(__file__).with_name("report_golden.json").read_bytes()


def test_no_library_path_builds_a_dense_cyclotomic_polynomial(monkeypatch, capsys):
    # Reduction runs on the binomial factors of Phi_q; the dense coefficients
    # are built only for callers of cyclotomic_coeffs.
    from hadamard6 import cyclo
    from hadamard6.invariants import charpoly_exact

    def refuse(q):
        raise AssertionError(f"dense Phi_{q} built")

    monkeypatch.setattr(cyclo, "cyclotomic_coeffs", refuse)
    monkeypatch.setattr(hadamard6, "cyclotomic_coeffs", refuse)
    code, out = run(capsys, "report", "--json")  # every claim of cli.build_claims()
    assert code == 0
    assert out.encode() == Path(__file__).with_name("report_golden.json").read_bytes()
    # The grid's own order stays 30030, so every coefficient is reduced
    # modulo Phi_30030.
    b = f6_over_30030(1)
    p = charpoly_exact(b)
    assert p.q == 30030 and p.e[6] == 1
    np = pytest.importorskip("numpy")
    numeric = np.poly(np.array(b.to_complex()))[::-1]
    assert max(abs(c.embed() - v) for c, v in zip(p.e, numeric)) < 1e-9


def test_report_runs_without_floating_point_spectra(monkeypatch):
    from hadamard6 import invariants

    def refuse(*args, **kwargs):
        raise AssertionError("the report called a floating-point spectrum")

    for name in ("spectrum_numeric", "spectrum_distance", "eig_real_symmetric",
                 "closed_form_A2a"):
        monkeypatch.setattr(invariants, name, refuse)
        monkeypatch.setattr(cli, name, refuse, raising=False)
    monkeypatch.setattr(invariants.CharPoly, "complex_coeffs", refuse)
    assert all(c.status != cli.REFUTED for c in cli.build_claims())


def test_report_computes_each_catalog_polynomial_once(monkeypatch):
    # One table of the catalog's polynomials, plus A1's conjugate for C7,
    # feeds every spectral claim; the unitary classes of C5-C7 and C10 compare
    # its entries instead of calling classify.
    computed = []

    def counting(b):
        computed.append(b)
        return charpoly_exact(b)

    def refuse(*args, **kwargs):
        raise AssertionError("the report called classify")

    charpoly_exact = cli.charpoly_exact
    for module in (cli, equivalence):
        monkeypatch.setattr(module, "charpoly_exact", counting)
        monkeypatch.setattr(module, "classify", refuse, raising=False)
    assert all(c.status != cli.REFUTED for c in cli.build_claims())
    # 13 distinct grids of C2, C3, C5-C7 and C10 (A01 and A03 are one), and
    # A1's conjugate; F6 is read by no spectral claim.
    assert len(computed) <= 14
    assert len(set(computed)) == len(computed)
    assert catalog.get("F6") not in computed


@pytest.mark.parametrize("status", [cli.REFUTED, cli.DISCREPANCY])
def test_claim_record_refuses_missing_counter_value(status):
    with pytest.raises(ValueError, match="counter-value"):
        cli.ClaimRecord("C1", "A1 is Hadamard", "", status)
    assert cli.ClaimRecord("C1", "A1 is Hadamard", "", cli.CONFIRMED).computed == ""


# --- command-line syntax -----------------------------------------------------

SUBCOMMANDS = ("catalog", "verify", "charpoly", "spectrum", "dephase", "defect", "equiv",
               "report")


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_names_every_subcommand(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main([flag])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(name in out for name in SUBCOMMANDS)
    with pytest.raises(SystemExit) as exc:
        cli.main(["equiv", "standard", flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


@pytest.mark.parametrize("argv", [
    [], ["frobnicate"], ["verify"], ["equiv", "standard", "A1"], ["verify", "A1", "A2"],
    ["catalog", "view"], ["equiv", "similar", "A1", "A2"], ["verify", "A1", "--tol"],
    ["verify", "A1", "--tol", "abc"], ["charpoly", "A1", "--tol", "1"],
    ["verify", "A1", "--frob"], ["report", "--js"],
], ids=["no-subcommand", "unknown-subcommand", "missing-positional", "missing-second",
        "extra-positional", "bad-catalog-choice", "bad-equiv-choice", "tol-without-number",
        "tol-not-a-number", "tol-elsewhere", "unknown-option", "abbreviated-option"])
def test_usage_errors_exit_2_with_a_usage_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage:")


def test_options_go_before_or_after_the_positionals(capsys, tmp_path):
    # M6 with one entry moved by 1e-6: Hadamard within 1e-3, not within 1e-10.
    m6 = complex_grid(catalog.get("M6"))
    m6[2][3] *= cmath.exp(1e-6j)
    path = str(tmp_path / "m.txt")
    Path(path).write_text(format_matrix(m6))
    strict = '{\n  "name": "%s",\n  "hadamard": false,\n  "method": "numeric"\n}\n' % path
    loose = strict.replace("false", "true")
    for argv, out in ((["--json", path], strict), ([path, "--json"], strict),
                      (["--tol", "1e-3", "--json", path], loose),
                      (["--json", path, "--tol", "1e-3"], loose),
                      ([path, "--tol=1e-3", "--json"], loose)):
        assert run(capsys, "verify", *argv) == (1 if out is strict else 0, out), argv
    assert run(capsys, "equiv", "--json", "unitary", "A01", "A03") == \
        run(capsys, "equiv", "unitary", "A01", "A03", "--json")


def test_a_dash_is_the_stdin_positional(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(format_matrix(catalog.get("A1"))))
    assert run(capsys, "equiv", "--json", "unitary", "-", "A1") == \
        (0, '{\n  "equiv": {\n    "mode": "unitary",\n    "equivalent": true,\n'
            '    "witness": null\n  }\n}\n')


@pytest.mark.parametrize("argv, allowed", [
    (["catalog", "list"], ()),
    (["report", "--json"], ("json",)),
], ids=["catalog-list", "report-json"])
def test_start_up_loads_no_parser_or_typing_module(argv, allowed):
    # -S keeps site from preloading modules, so every module named here that
    # shows up was loaded by hadamard6 itself.
    script = textwrap.dedent("""
        import sys
        before = set(sys.modules)
        from hadamard6 import cli
        assert cli.main(sys.argv[1:]) == 0
        watched = ("argparse", "gettext", "locale", "typing", "json", "cmath")
        print(" ".join(m for m in watched if m in sys.modules and m not in before))
    """)
    proc = run_fresh(["-S", "-c", script, *argv], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == list(allowed)
