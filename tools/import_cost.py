"""Time `import ptdilate.cli` in fresh interpreters.

    python tools/import_cost.py [-n N] [--src SRC]

Starts N (default 9) fresh interpreters one after another, each importing
`ptdilate.cli` from SRC (default: this checkout's `src/`) and timing that
import with `perf_counter`.  Prints the median, smallest and largest import
time, the public scipy subpackages the import loaded and whether it
loaded mpmath.
Pointing SRC at another checkout's `src/` gives that version's cost on the
same interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json, sys, time
start = time.perf_counter()
import ptdilate.cli
seconds = time.perf_counter() - start
scipy = sorted(m for m in sys.modules if m.count(".") == 1 and m.startswith("scipy.") and m[6] != "_")
print(json.dumps({"seconds": seconds, "scipy": scipy, "mpmath": "mpmath" in sys.modules}))
"""


def measure(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", type=int, default=9, help="number of fresh interpreters")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the ptdilate package")
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("-n must be at least 1")
    runs = [measure(args.src.resolve()) for _ in range(args.n)]
    seconds = [r["seconds"] for r in runs]
    print(
        f"import ptdilate.cli: median {statistics.median(seconds):.3f} s "
        f"(min {min(seconds):.3f}, max {max(seconds):.3f}, {args.n} interpreters)"
    )
    print("scipy modules loaded: " + (", ".join(runs[-1]["scipy"]) or "none"))
    print("mpmath loaded: " + ("yes" if runs[-1]["mpmath"] else "no"))


if __name__ == "__main__":
    main()
