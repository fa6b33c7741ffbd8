"""Run one benchmark op in a fresh interpreter and report when it finished.

Usage: python3 cold_start.py '<JSON list of netcoh argument vectors>'

Prints one JSON line: the exit codes and ``time.perf_counter()`` taken right
after the op's last result.  On Linux that clock is system-wide monotonic,
so the parent subtracts the time it started this interpreter and gets the
cold-start cost of imports, first-call caches and the op itself, without
interpreter teardown.
"""

import contextlib
import io
import json
import sys
import time

from netcoh import cli


def main() -> int:
    codes = []
    for argv in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.main(argv))
    done = time.perf_counter()
    print(json.dumps({"t": done, "codes": codes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
