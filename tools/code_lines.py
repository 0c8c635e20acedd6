"""Count the code lines of Python files: no comments, docstrings or blank lines.

    python3 tools/code_lines.py src/palm/*.py
    python3 tools/code_lines.py --rev REV src/palm/*.py

A line counts when it holds at least one token of code. A docstring is a
string that makes up a whole statement; it counts for none of its lines,
nor does a comment or a line that is only whitespace. A multi-line string
that is part of code counts for every line it spans. Prints each file's
count and the total. With --rev, each file is also counted as it is at
the git revision REV (read with `git show`), and the two counts and their
delta are printed side by side; a file absent at REV or from the working
tree then counts 0, so added and deleted files show in the delta.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tokenize

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: bytes) -> int:
    tokens = [t for t in tokenize.tokenize(io.BytesIO(source).readline)
              if t.type not in LAYOUT or t.type == tokenize.NEWLINE]
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


def working_tree(path: str, missing_ok: bool = False) -> bytes:
    """The file's bytes; a file that is absent reads as empty if missing_ok."""
    if missing_ok and not os.path.exists(path):
        return b""
    with open(path, "rb") as f:
        return f.read()


def at_rev(rev: str, path: str) -> bytes:
    """The file's bytes at `rev`; a path relative to the current directory."""
    done = subprocess.run(["git", "show", f"{rev}:./{path}"], capture_output=True)
    return done.stdout if done.returncode == 0 else b""


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--rev", help="also count each file at this git revision")
    parser.add_argument("paths", nargs="+")
    args = parser.parse_args(argv)
    if args.rev is None:
        total = 0
        for path in args.paths:
            count = code_lines(working_tree(path))
            total += count
            print(f"{count:6d}  {path}")
        print(f"{total:6d}  total")
        return 0
    verify = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{args.rev}^{{commit}}"],
                            capture_output=True)
    if verify.returncode != 0:
        parser.error(f"{args.rev} is not a git revision")
    print(f"{args.rev[:12]:>12}  {'tree':>6}  {'delta':>6}  path")
    old_total = new_total = 0
    for path in args.paths:
        old, new = code_lines(at_rev(args.rev, path)), code_lines(working_tree(path, True))
        old_total, new_total = old_total + old, new_total + new
        print(f"{old:12d}  {new:6d}  {new - old:+6d}  {path}")
    print(f"{old_total:12d}  {new_total:6d}  {new_total - old_total:+6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
