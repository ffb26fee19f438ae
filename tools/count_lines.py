"""Count the code lines of each library module.

A line counts when a token other than a comment, a docstring or layout
(newlines, indentation, the end marker) starts on it. A docstring here is a
string that makes up a whole statement. Continuation lines of a multi-line
token do not count, since no token starts on them.

    python tools/count_lines.py

prints one "module lines" row per .py file of the repository's
src/hadamard6, sorted by name, and the total.
"""

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
           tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
# Layout tokens after which the next token starts a statement.
_STATEMENT_BREAKS = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(path: Path) -> int:
    with path.open("rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = set()
    at_start = True
    for tok, nxt in zip(tokens, tokens[1:]):
        if tok.type in _LAYOUT:
            at_start = at_start or tok.type in _STATEMENT_BREAKS
            continue
        if not (at_start and tok.type == tokenize.STRING and nxt.type == tokenize.NEWLINE):
            lines.add(tok.start[0])
        at_start = False
    return len(lines)


def main() -> int:
    root = Path(__file__).resolve().parents[1] / "src" / "hadamard6"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.stem} {count}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
