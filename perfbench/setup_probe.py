"""Fresh-interpreter set-up probe: import nodalic and run the warm-up requests.

Usage: python3 setup_probe.py SPEC.json

SPEC holds {"src": <directory holding the nodalic package>, "argvs":
[<cli argv>, ...]}.  Once every warm-up request exited 0 it prints
"ready <time.monotonic()>"; the parent subtracts the moment it started
this interpreter.  Only the standard library and nodalic are imported, so the
measured time is the program's own start-up.
"""

import contextlib
import io
import json
import sys
import time


def main():
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    from nodalic import cli

    for argv in spec["argvs"]:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(argv)
        if code != 0:
            print(f"warm-up request {argv} exited {code}", file=sys.stderr)
            return 1
    print(f"ready {time.monotonic()!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
