"""The process entry of `python -m resitan` and of the `resitan` console
script: run cli.main and exit with its code.

Before it exits, the entry moves every object the process holds into the
collector's permanent generation (gc.freeze), so the interpreter's final
collections no longer walk and free the object graph that the imports
built.  cli.main itself leaves the collector alone, since tests, demos and
benchmarks call it in-process.  An object in a reference cycle that is
still alive at exit is then not finalized; main closes its report and
reaps its workers before it returns, and the interpreter still flushes
stdio and runs atexit.
"""

import gc
import sys

from .cli import main


def run() -> None:
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
