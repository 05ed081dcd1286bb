"""Traced CLI call for the traced rounds of the ``cli`` workload.

    python -X importtime perfbench/cli_child.py SPANS <dagstab arguments>

Imports the CLI first, so that ``-X importtime`` charges numpy and
jsonschema to it, installs the tracer, runs ``dagstab.cli.main`` on the
remaining arguments and writes the spans to SPANS.
"""

import dagstab.cli

import sys

from tracer import Tracer


def main() -> int:
    spans, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return dagstab.cli.main(argv)
    finally:
        tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main())
