"""The process entry point: ``python -m myetrends`` and the ``myetrends`` script.

Both go through :func:`run`. It runs :func:`myetrends.cli.main` and then
freezes the heap (``gc.freeze()``), so the full collections of CPython's
shutdown skip every object still alive, about 40,000 of them once
``simulate`` has loaded NumPy and SciPy. Exit still runs the atexit
handlers, flushes stdout and stderr and tears the modules down.

:func:`run` is for a process that is about to exit. Never call it
in-process: the frozen objects are never collected. Call
:func:`myetrends.cli.main`, which leaves the heap as it is.
"""

import gc
import sys

from .cli import main


def run() -> int:
    """``main()``'s exit code, with the heap frozen for the exit that follows."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
