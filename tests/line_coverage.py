"""Statements of the library's function bodies that the tier-1 suite never runs.

    python3 tests/line_coverage.py [pytest arguments...]

Runs the tier-1 suite (`tests/`, or the given pytest arguments) in this
process under `sys.settrace`, recording every line that runs in a
function of `src/relint_kit`, then prints each statement of a function
body that never ran as `file:line: text`.  Code run in a child process
(the tests that start the CLI as a subprocess) is not seen.

Two kinds of statement may stay unrun, and are printed as `allowed`:
a `raise TheoremViolation(...)`, which guards an invariant, and a
statement whose own line or the comment lines directly above it say
`unreachable`, which must argue why.  The exit code is 1 when any other
statement never ran or the suite fails, else 0.

A statement counts as run when a line of its own (for a compound
statement, its header: the lines before its body) produced a line event;
statements that compile to no line of their own, such as a docstring or
`global`, are skipped.  Each code object stops being traced once all of
its lines have run, which keeps the run to a few times the suite's own
time.  Standard library and pytest only; pytest does not collect it.
"""

from __future__ import annotations

import ast
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "relint_kit"


def _code_lines(code: types.CodeType) -> set[int]:
    return {line for _, _, line in code.co_lines() if line is not None}


def _all_lines(code: types.CodeType) -> set[int]:
    """Lines of `code` and of every code object nested in it."""
    lines = _code_lines(code)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _all_lines(const)
    return lines


class LineRecorder:
    """Line events of the package's frames, per file.  A code object whose
    lines have all run is dropped from tracing."""

    def __init__(self, root: Path):
        self.prefix = str(root) + "/"
        self.seen: dict[str, set[int]] = {}
        self.todo: dict[types.CodeType, set[int] | None] = {}

    def _local(self, frame, event, arg):
        if event == "line":
            todo = self.todo[frame.f_code]
            todo.discard(frame.f_lineno)
            self.seen[frame.f_code.co_filename].add(frame.f_lineno)
            if not todo:
                return None
        return self._local

    def trace(self, frame, event, arg):
        code = frame.f_code
        if code not in self.todo:
            if not code.co_filename.startswith(self.prefix):
                self.todo[code] = None
                return None
            self.todo[code] = _code_lines(code) - {code.co_firstlineno}
            self.seen.setdefault(code.co_filename, set())
        return self._local if self.todo[code] else None


def _header(stmt: ast.stmt) -> range:
    """The lines that belong to the statement itself, not to its body."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return range(first, body[0].lineno)
    return range(first, stmt.end_lineno + 1)


def _is_docstring(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _body_statements(tree: ast.Module) -> list[ast.stmt]:
    """Every statement nested in a function body, docstrings left out."""
    found = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in ast.walk(fn):
                if isinstance(stmt, ast.stmt) and stmt is not fn and not _is_docstring(stmt):
                    found[id(stmt)] = stmt
    return sorted(found.values(), key=lambda s: s.lineno)


def _allowed(stmt: ast.stmt, lines: list[str]) -> str | None:
    """Why the statement may stay unrun, or None."""
    text = lines[stmt.lineno - 1].strip()
    if text.startswith("raise TheoremViolation"):
        return "TheoremViolation"
    comments = [lines[stmt.lineno - 1]]
    above = stmt.lineno - 2
    while above >= 0 and lines[above].strip().startswith("#"):
        comments.append(lines[above])
        above -= 1
    if any("#" in c and "unreachable" in c[c.index("#"):].lower() for c in comments):
        return "comment"
    return None


def unrun_statements(seen: dict[str, set[int]]) -> list[tuple[Path, ast.stmt, str | None]]:
    """(file, statement, allowance) of every body statement that never ran."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        executable = _all_lines(compile(source, str(path), "exec"))
        ran = seen.get(str(path), set())
        for stmt in _body_statements(ast.parse(source)):
            own = executable.intersection(_header(stmt))
            if own and not own & ran:
                out.append((path, stmt, _allowed(stmt, lines)))
    return out


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(SRC))
    recorder = LineRecorder(PACKAGE)
    sys.settrace(recorder.trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
    failures = 0
    for path, stmt, allowance in unrun_statements(recorder.seen):
        text = path.read_text().splitlines()[stmt.lineno - 1].strip()
        print(f"{path.relative_to(ROOT)}:{stmt.lineno}: "
              f"{'allowed (' + allowance + ')' if allowance else 'NOT RUN'}: {text}")
        failures += allowance is None
    print(f"{failures} statement(s) never ran outside the allowlist; pytest exit {int(status)}")
    return 1 if failures or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
