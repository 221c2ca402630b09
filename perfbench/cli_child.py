"""Start one deltashell CLI command, as the `deltashell` console script does.

    python3 perfbench/cli_child.py [--spans PATH] -- <deltashell arguments>

With --spans the benchmark's tracer is installed before the command runs and
its spans, counts and the import time are written to PATH at exit.
"""
import sys
from time import perf_counter

if __name__ == "__main__":
    sep = sys.argv.index("--")
    opts, argv = sys.argv[1:sep], sys.argv[sep + 1:]
    if not opts:
        from deltashell.cli import main
        sys.exit(main(argv))
    t0 = perf_counter()
    import deltashell.cli as cli
    import_ms = (perf_counter() - t0) * 1e3
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.span("cli.main", cli.main)(argv)
    finally:
        tracer.dump(opts[1], import_ms=import_ms)
    sys.exit(code)
