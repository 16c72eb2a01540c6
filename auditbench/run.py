"""Launcher for the end-to-end audit benchmark (see cli.py and README.md).

Run from the repository root: ``python3 auditbench/run.py --help``.  Exits
with status 2 when the library sources under ``src/`` are not next to it.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro").is_dir():
        print(f"error: no library at {root / 'src' / 'repro'}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(root / "src"), str(root)]
    from auditbench.cli import main

    sys.exit(main(sys.argv[1:]))
