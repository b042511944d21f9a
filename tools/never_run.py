"""List the lines of each latticework module that a pytest run never executes.

Usage, from the repository root:

    python tools/never_run.py [pytest arguments]

for example `python tools/never_run.py -q tests/test_blym.py`.  It runs
`pytest.main` with those arguments under the standard library's line
tracer (`trace.Trace`, counting only, with the interpreter's own
directories ignored) and then prints, per module of `src/latticework`, the
executable lines that never ran.  The lines are read from each module's
text as it was before the run, and a module whose file changed during the
run is named on stderr.  Only this process is traced: lines that run only
in child processes are listed as never run.  Tracing slows a run
down many times over, so give it a few test files rather than the suite.
"""

import dis
import sys
import trace
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "latticework"


def executable_lines(path: Path, source: str) -> set[int]:
    """The first line of each statement in a module's source, its functions and classes."""
    lines, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        codes += (c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(args: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(PACKAGE.parent))
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.base_prefix])
    # trace decides once per module base name whether to ignore it, so the
    # first ignored __init__.py (or a same-named module) would hide ours
    tracer.ignore._ignore.update(dict.fromkeys((path.stem for path in PACKAGE.glob("*.py")), 0))
    # the text the run imports; a file edited after this is not what ran
    sources = {path: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    code = tracer.runfunc(pytest.main, args)
    ran: dict[str, set[int]] = {}
    for (filename, line), _ in tracer.results().counts.items():
        ran.setdefault(str(Path(filename).resolve()), set()).add(line)
    for path, source in sources.items():
        if path.read_text() != source:
            print(f"warning: {path.name} changed during the run; its lines are from the text "
                  "it had before the run", file=sys.stderr)
        missed = sorted(executable_lines(path, source) - ran.get(str(path), set()))
        print(f"{path.name}: {', '.join(map(str, missed)) or '-'}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
