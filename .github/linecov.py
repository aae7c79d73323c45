"""Line ledger of src/sl2genus: which executable lines Tier-1 reaches.

    python .github/linecov.py [PYTEST ARGS...]

Runs Tier-1 in this process through pytest.main, under a sys.settrace
collector (standard library only), and prints, per module, every executable
line that no test reached and that carries no "# pragma: no cover", then
every pragma'd line that a test did reach.  Exits 1 if either list is
non-empty or a test fails.  The executable lines of a module are those that
co_lines gives for its code objects, the header line of each function and
class excepted.  Lines run only in a child process (a subprocess a test
starts) count as unreached.  A mutant that tests/test_faults.py compiles
from a function's altered source runs under the file name "<mutant>", so
the lines it runs are credited to no module: a line counts as reached only
when the true code ran it.

Tracing costs about 4.5 times Tier-1's plain wall time (257 s against 57 s
on 2 vCPUs, CPython 3.11.7), so CI does not run it.
"""

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PRAGMA = "# pragma: no cover"


def _executable(path: Path) -> set:
    """The lines of path that co_lines maps to an instruction, each function's
    and class's own header line excepted (its RESUME, which raises no line event)."""
    module = compile(path.read_text(), str(path), "exec")
    lines, todo = {line for _, _, line in module.co_lines() if line}, [module]  # line 0: the module's RESUME
    while todo:
        for code in (c for c in todo.pop().co_consts if hasattr(c, "co_lines")):
            lines.update(line for _, _, line in code.co_lines() if line and line != code.co_firstlineno)
            todo.append(code)
    return lines


def _ranges(lines) -> str:
    """1, 2, 3, 7 as "1-3, 7"."""
    out, run = [], []
    for line in sorted(lines):
        if run and line != run[-1] + 1:
            out.append(run)
            run = []
        run.append(line)
    if run:
        out.append(run)
    return ", ".join(str(r[0]) if len(r) == 1 else "%d-%d" % (r[0], r[-1]) for r in out)


class Ledger:
    """A pytest plugin that keeps the collector installed: one test removes
    the tracer (sys.settrace(None) is all it takes), so it is set again
    before each test."""

    def __init__(self, modules) -> None:
        self.hits = {str(p): set() for p in modules}
        self.tracers = {name: self._local(hit.add) for name, hit in self.hits.items()}

    @staticmethod
    def _local(add):
        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    def collect(self, frame, event, arg):
        """The global trace function: a line tracer for frames of the library's files, none elsewhere."""
        return self.tracers.get(frame.f_code.co_filename)

    def install(self) -> None:
        sys.settrace(self.collect)
        threading.settrace(self.collect)

    def pytest_runtest_setup(self, item) -> None:
        self.install()


def main(argv) -> int:
    sys.path.insert(0, str(SRC))
    modules = sorted((SRC / "sl2genus").glob("*.py"))
    ledger = Ledger(modules)
    ledger.install()  # before pytest imports the library, so its module-level lines count
    import pytest

    status = pytest.main(["-q", "--continue-on-collection-errors", *argv], plugins=[ledger])
    sys.settrace(None)
    threading.settrace(None)
    unreached, pragma_reached, rows = {}, {}, []
    for path in modules:
        text, lines, hit = path.read_text().splitlines(), _executable(path), ledger.hits[str(path)]
        pragma = {i for i in lines if PRAGMA in text[i - 1]}
        name = path.relative_to(ROOT).as_posix()
        unreached[name], pragma_reached[name] = lines - hit - pragma, pragma & hit
        rows.append((name, len(lines), len(lines & hit), len(pragma)))
    print()
    for row in rows + [("total", *map(sum, list(zip(*rows))[1:]))]:
        print("%-28s %4d executable, %4d reached, %2d pragma'd" % row)
    for title, found in (("unreached, no pragma", unreached), ("pragma'd, reached", pragma_reached)):
        print("%s: %d lines" % (title, sum(map(len, found.values()))))
        for name, lines in found.items():
            if lines:
                print("  %s: %s" % (name, _ranges(lines)))
    if status != 0:
        print("pytest exited %d" % status)
    return int(status != 0 or any(unreached.values()) or any(pragma_reached.values()))

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
