"""One cli_cold item: ``python -m sl2genus.cli ARGS`` in a fresh interpreter.

Usage: python3 perfbench/cli_child.py [--spans FILE] -- ARGS

It imports ``sl2genus.cli`` from the checkout's ``src/`` (the package is not
installed, and no ``sl2genus`` console script exists) and calls its
``main()``, which is exactly what ``python -m sl2genus.cli`` runs.  The
untraced and the traced runs both go through this launcher; with
``--spans`` it wraps the library's functions before ``sl2genus.cli.run`` is
called and writes the spans, the counters and the import time to FILE.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    argv = sys.argv[1:]
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]

    t0 = time.perf_counter()
    import sl2genus.cli as cli

    import_s = time.perf_counter() - t0
    where = Path(cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        sys.exit("cli_child: sl2genus imported from %s, not from %s" % (where, SRC))

    tracer = None
    if spans_path is not None:
        import sl2genus.suites  # noqa: F401  (so SUITES can be wrapped before run)
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    sys.argv = [str(where)] + argv
    try:
        cli.main()
    finally:
        if tracer is not None:
            sys.stdout.flush()
            tracer.dump(spans_path, import_s=import_s)


if __name__ == "__main__":
    main()
