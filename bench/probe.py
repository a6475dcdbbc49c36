"""Set-up probe, run in a fresh process by `run.py`.

Times the import of `entroineq`, the parser build and one warm-up op (all
inside `cli.main`), and prints {"setup_s": ..., "code": ...} as JSON.

Usage: python3 probe.py SRC_DIR OUT_PATH CLI_ARG...
"""

import json
import sys
import time


def main() -> None:
    start = time.perf_counter()
    src, out, *argv = sys.argv[1:]
    sys.path.insert(0, src)
    from entroineq import cli

    code = cli.main([*argv, "--out", out])
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "code": code}))


if __name__ == "__main__":
    main()
