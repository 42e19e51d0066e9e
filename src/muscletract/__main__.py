"""Entry point of `python -m muscletract` and of the `muscletract` script.

run() ends the process as soon as the command has returned: it flushes the
log handlers and the standard streams, then calls os._exit, which skips the
interpreter teardown (freeing every object and module, ~30 ms) that would
follow. Every file a command writes is closed before it returns. An
exception, argparse's SystemExit included, propagates as usual. cli.main
itself returns its exit code, so in-process callers keep their interpreter.
"""

import logging
import os
import sys

from .cli import main


def run() -> None:
    code = main()
    logging.shutdown()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
