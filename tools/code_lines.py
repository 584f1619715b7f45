"""Count the code lines of the `aet2d` package, module by module.

A code line is a physical line that holds at least one Python token other
than a comment, a docstring or layout (newlines, indentation).  A docstring
is a string literal that forms a whole statement of its own.  The rule is
the one the ROADMAP's line counts use, so a count taken here compares with
theirs.

Run from the repository root:

    python tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to `src/aet2d`.  Prints one `module count` line per
module, largest first, then the total.
"""
from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Number of lines in `source` that hold a code token."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            if tok.type == tokenize.NEWLINE and statement:
                if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            continue
        statement.append(tok)
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/aet2d")
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(root.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{name} {count}")
    print(f"total {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
