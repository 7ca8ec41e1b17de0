"""Traced CLI child: ``python bench/cli_boot.py SPANS_FILE ARGS...``.

Installs the same span hooks as the in-process traced run, then calls
``swstem.cli.main(ARGS)``.  The spans go to SPANS_FILE as JSON; exit code, stdout and stderr are the CLI's own.
"""

import json
import sys

import swstem.cli
from tracing import Tracer


def main() -> None:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    code = 1
    try:
        code = swstem.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.op = -1
        with open(path, "w") as handle:
            json.dump({"spans": tracer.spans}, handle)
    sys.exit(code)


if __name__ == "__main__":
    main()
