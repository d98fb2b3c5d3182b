"""Run one `fuchsian.cli` command with the benchmark's span wrappers.

Usage: python cli_child.py SPANS_OUT -- <fuchsian cli arguments>

The traced `cli_mix` run starts this script in place of
`python -m fuchsian.cli`. It times `import fuchsian.cli`, installs the
same wrappers as the in-process runs, calls `fuchsian.cli.main`, writes
its spans to SPANS_OUT for the parent to adopt, and exits with main's
exit code.
"""

import sys

from tracing import Tracer


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_out, argv = sys.argv[1], sys.argv[3:]
    tracer = Tracer()
    try:
        with tracer.span("process.import"):
            import fuchsian.cli
        tracer.install()
        return fuchsian.cli.main(argv)
    finally:
        tracer.dump_child(spans_out)


if __name__ == "__main__":
    sys.exit(main())
