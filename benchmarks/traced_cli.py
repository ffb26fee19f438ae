"""Traced stand-in for `python -m hadamard6.cli`.

Usage: python traced_cli.py SPANS_JSON OP_ID CLI_ARGS...

Times the import of hadamard6.cli, wraps the public functions (spans.py),
runs cli.main(CLI_ARGS) and, at exit, writes the import time and every span
to SPANS_JSON. Stdout, stderr and the exit code are the CLI's own.
"""

import json
import sys
import time

from spans import Tracer


def main() -> int:
    spans_path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    t0 = time.perf_counter()
    import hadamard6.cli as cli
    import_ms = (time.perf_counter() - t0) * 1e3
    tracer = Tracer()
    tracer.op_id = op_id
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_ms": import_ms, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
