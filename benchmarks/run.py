"""hadamard6 benchmark: closed-loop workloads, one client, one op in flight.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload report --seed 1 --seconds 40 --trace 0

Workloads (see NOTES.md): `report` and `cli_mix` start a fresh
`python -m hadamard6.cli` process per op; `equiv_search` calls the library
in-process. Every op is checked against an oracle that does not use hadamard6.
`--trace 0` prints the end-to-end metrics; `--trace 1` runs each op untraced
and then traced (spans.py, installed from outside the package) and prints the
per-layer metrics. The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it record the settings.
"""

from __future__ import annotations

import argparse
import os
import sys

# Fixed before numpy loads, here and in every child.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import cli_workloads  # noqa: E402
import lib_workload  # noqa: E402
from spans import LAYER_METRICS, LayerTotals, Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 5  # set-ups per run; setup_s is their median
OP_TIMEOUT_S = 60.0
# A CLI set-up is one import-bound child (the README's first command): what
# the program pays before any work, and it warms the page cache and bytecode
# before timing. `report` itself would make set-up time a second copy of the
# workload.
WARMUP_OP = {"kind": "catalog_list", "argv": ["catalog", "list"], "expect": {}}
IMPORT_PROBE = "import time; t = time.perf_counter(); import hadamard6; print(time.perf_counter() - t)"


@dataclass
class Sample:
    kind: str
    wall: float
    cpu: float
    rss_mb: float
    failure: str | None
    rc: int | None = None


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_child(cmd: list[str], env: dict, out_path: str, err_path: str):
    """Run cmd to completion; return (exit code, wall s, cpu s, max RSS MB, stdout, stderr)."""
    timed_out = threading.Event()
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe, env=env)
        timer = threading.Timer(OP_TIMEOUT_S, lambda: (timed_out.set(), proc.kill()))
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        out = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        err = fh.read()
    if timed_out.is_set():
        err = f"timed out after {OP_TIMEOUT_S:.0f} s\n" + err
    return rc, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, out, err


class CliWorkload:
    """One fresh `python -m hadamard6.cli` child per op."""

    def __init__(self, name: str, root: str, seed: int) -> None:
        self.name, self.seed = name, seed
        self.env = child_env(root)
        self.import_ms: list[float] = []
        if name == "report":
            self.oracle, self.params, self.mix = cli_workloads.ReportOracle(), {}, [["report --json"]]
        else:
            self.oracle, self.params = cli_workloads.check, cli_workloads.CLI_MIX_PARAMS
            self.mix = ([list(m) for m in cli_workloads.CLI_MIX]
                        + [["readme", " ".join(argv)] for _, argv, _ in cli_workloads.README_OPS])

    def generate(self, directory: str) -> list[dict]:
        self.dir = directory
        rng = random.Random(f"{self.name}:{self.seed}")
        return (cli_workloads.report_ops() if self.name == "report"
                else cli_workloads.cli_mix_ops(rng, directory))

    def set_up(self) -> list[Sample]:
        return [self.run(-1, WARMUP_OP, None)]

    def run(self, op_id: int, op: dict, totals) -> Sample:
        out_path, err_path = (os.path.join(self.dir, f"op.{s}") for s in ("out", "err"))
        if totals is None:
            cmd = [sys.executable, "-m", "hadamard6.cli", *op["argv"]]
        else:
            spans_path = os.path.join(self.dir, "spans.json")
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), spans_path,
                   str(op_id), *op["argv"]]
        rc, wall, cpu, rss, out, err = run_child(cmd, self.env, out_path, err_path)
        oracle = cli_workloads.check if op is WARMUP_OP else self.oracle
        failure = oracle(op, rc, out, err)
        if totals is not None:
            try:
                with open(spans_path, encoding="utf-8") as fh:
                    traced = json.load(fh)
                os.remove(spans_path)
                self.import_ms.append(traced["import_ms"])
                totals.add_op(traced["spans"])
            except (OSError, ValueError) as exc:
                failure = failure or f"no spans written ({exc})"
        return Sample(op.get("group", op["kind"]), wall, cpu, rss, failure, rc)

    def peak_rss_mb(self, samples: list[Sample]) -> float:
        return statistics.median(s.rss_mb for s in samples)


class LibWorkload:
    """In-process calls of standard_equivalent and classify."""

    def __init__(self, name: str, root: str, seed: int) -> None:
        self.name, self.seed, self.root = name, seed, root
        self.env = child_env(root)
        self.params = lib_workload.EQUIV_PARAMS
        self.mix = [list(m) for m in lib_workload.EQUIV_MIX]
        self.import_ms: list[float] = []

    def generate(self, directory: str) -> list[dict]:
        src = os.path.join(self.root, "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        import hadamard6
        self.h6 = hadamard6
        ops = lib_workload.equiv_ops(random.Random(f"{self.name}:{self.seed}"))
        lib_workload.bind(ops, hadamard6)
        # One cheap call of each entry point: standard_equivalent and classify.
        self.warm = [next(op for op in ops if op["kind"] == k) for k in ("hit6", "cls_std6")]
        # Keep the input pool out of the collector's reach while timing the library.
        gc.freeze()
        return ops

    def set_up(self) -> list[Sample]:
        # What a library user pays first: a fresh interpreter importing
        # hadamard6, then the first calls.
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=self.env,
                               capture_output=True, text=True, timeout=OP_TIMEOUT_S, check=True)
        self.import_ms.append(float(probe.stdout) * 1e3)
        return [self.run(-1, op, None) for op in self.warm]

    def run(self, op_id: int, op: dict, totals) -> Sample:
        tracer = None
        if totals is not None:
            tracer = Tracer()
            tracer.op_id = op_id
            tracer.install()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = lib_workload.call(op, self.h6)
            failure = None
        except Exception as exc:  # a crash is a failed op, not a failed run
            result, failure = None, f"{type(exc).__name__}: {exc}"
        finally:
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if tracer is not None:
                tracer.uninstall()
        if failure is None:
            failure = lib_workload.check(op, result)
        if tracer is not None:
            totals.add_op(tracer.spans)
        return Sample(op["kind"], wall, cpu, 0.0, failure)

    def peak_rss_mb(self, samples: list[Sample]) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


WORKLOADS = {"report": CliWorkload, "cli_mix": CliWorkload, "equiv_search": LibWorkload}


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    v = sorted(values)
    if len(v) <= 10:
        return v[-1], 100.0
    return v[-11], 100.0 * (len(v) - 10) / len(v)


def per_kind_quantile(samples: list[Sample], q: float) -> float:
    """Mean over ops of the q-quantile (nearest rank) of the op's kind's CPU times."""
    by_kind: dict[str, list[float]] = {}
    for s in samples:
        by_kind.setdefault(s.kind, []).append(s.cpu)
    total = 0.0
    for v in by_kind.values():
        v.sort()
        total += v[math.ceil(q * len(v)) - 1] * len(v)
    return total / len(samples)


def environment(root: str) -> dict:
    import numpy
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "hadamard6")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                               text=True, check=False)
        commit = probe.stdout.strip() or None
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "child_env": {"PYTHONPATH": "src", **BLAS_ENV},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hadamard6", "cli.py")):
        print("error: run from a checkout of hadamard6 (src/hadamard6 is missing)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.workload, root, args.seed)
    scratch = os.path.join(root, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        # Inputs are the benchmark's own work: generated once, outside setup_s.
        t0 = time.perf_counter()
        ops = workload.generate(tmp)
        generate_s = time.perf_counter() - t0
        setup_s, warmup = [], []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            warmup += workload.set_up()
            setup_s.append(time.perf_counter() - t0)

        totals = LayerTotals() if args.trace else None
        plain, traced = [], []
        start = time.perf_counter()
        deadline = start + args.seconds
        i = 0
        while time.perf_counter() < deadline:
            op = ops[i % len(ops)]
            plain.append(workload.run(i, op, None))
            if totals is not None:
                traced.append(workload.run(i, op, totals))
            i += 1
        elapsed = time.perf_counter() - start
        rss = workload.peak_rss_mb(plain)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    samples = plain + traced
    failed = [s for s in samples if s.failure]
    bad_warmup = [s for s in warmup if s.failure]
    walls = [s.wall for s in plain]
    tail_s, tail_pct = tail(walls)
    by_kind: dict[str, list[float]] = {}
    for s in plain:
        by_kind.setdefault(s.kind, []).append(s.wall)
    failures = Counter((s.kind, s.rc, s.failure) for s in failed + bad_warmup)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop": "closed, one client, one op in flight",
        "generator": workload.params, "op_mix": workload.mix,
        "pool_ops": len(ops), "ops_attempted": len(samples), "ops_untraced": len(plain),
        "fail_ratio": len(failed) / len(samples),
        "failures": [{"kind": k, "exit": rc, "reason": r, "count": c}
                     for (k, rc, r), c in failures.most_common(20)],
        # Reported, not gated: wall-clock figures and the plain CPU mean (see NOTES.md).
        "cpu_ms_per_op": sum(s.cpu for s in plain) / len(plain) * 1e3,
        "latency_p50_ms": statistics.median(walls) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "latency_tail_percentile": round(tail_pct, 2),
        "ops_per_s": len(plain) / elapsed,
        "setup_s_each": setup_s,
        "generate_s": generate_s,
        "per_kind_p50_ms": {k: {"count": len(v), "p50_ms": statistics.median(v) * 1e3}
                            for k, v in sorted(by_kind.items())},
        "environment": environment(root),
    }
    if args.trace:
        overhead = statistics.median(s.wall for s in traced) / statistics.median(walls)
        metrics = totals.metrics(overhead, workload.import_ms)
        units = dict(LAYER_METRICS)
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "cpu_p95_ms_per_op": per_kind_quantile(plain, 0.95) * 1e3,
            "cpu_tail_ms": tail([s.cpu for s in plain])[0] * 1e3,
            "peak_rss_mb": rss,
            "ok_ratio": 1.0 - len([s for s in plain if s.failure]) / len(plain),
        }
        units = {"setup_s": "s", "cpu_p95_ms_per_op": "ms", "cpu_tail_ms": "ms",
                 "peak_rss_mb": "MB", "ok_ratio": "ratio"}
    print(json.dumps(details, indent=1))
    print(json.dumps({
        "correct": not failed and not bad_warmup,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
