"""Record the golden stdout and exit code of every cli-workload command.

Run from the repository root, once, at the commit whose CLI output is the
reference:

    PYTHONPATH=src python3 bench/record_golden.py

The cli workload then fails an op on any byte difference from these files.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from inputs import CLI_COMMANDS  # noqa: E402
from workloads import GOLDEN, run_cli  # noqa: E402


def main() -> int:
    golden = []
    for argv in CLI_COMMANDS:
        code, stdout = run_cli(argv)
        golden.append({"argv": list(argv), "exit": code, "stdout": stdout})
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(golden)} commands to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
