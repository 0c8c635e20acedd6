"""Count the code lines of Python files: no comments, docstrings or blank lines.

    python3 tools/code_lines.py src/palm/*.py

A line counts when it holds at least one token of code. A docstring is a
string that makes up a whole statement; it counts for none of its lines,
nor does a comment or a line that is only whitespace. A multi-line string
that is part of code counts for every line it spans. Prints each file's
count and the total.
"""

from __future__ import annotations

import sys
import tokenize

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: str) -> int:
    with open(path, "rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline) if t.type not in LAYOUT
                  or t.type == tokenize.NEWLINE]
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for token in tokens:
        if token.type != tokenize.NEWLINE:
            statement.append(token)
            continue
        if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
            for t in statement:
                lines.update(range(t.start[0], t.end[0] + 1))
        statement = []
    for t in statement:
        lines.update(range(t.start[0], t.end[0] + 1))
    return len(lines)


def main(paths: list[str]) -> int:
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
