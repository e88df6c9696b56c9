"""Traced stand-in for ``python -m ncres.cli``.

    python3 perfbench/trace_child.py SPANS.json --job JOB.yml

Installs the tracer, runs ``ncres.cli.main`` on the remaining arguments,
writes the spans and counts to SPANS.json and exits with main's status.
"""

import pathlib
import sys

import ncres.cli
from tracer import Tracer


def main():
    out = pathlib.Path(sys.argv[1])
    tracer = Tracer()
    tracer.begin_job(None)
    with tracer.installed():
        status = ncres.cli.main(sys.argv[2:])
    tracer.write(out)
    return status


if __name__ == "__main__":
    sys.exit(main())
