"""Time `import ptdilate.cli` in fresh interpreters.

    python tools/import_cost.py [-n N] [--src SRC]

Starts N (default 9) fresh interpreters one after another, each importing
`ptdilate.cli` from SRC (default: this checkout's `src/`) under
`-X importtime` and timing that import with `perf_counter`.  Prints the
median, smallest and largest import time, the median self import time of
each `ptdilate` module as `-X importtime` reports it, the public scipy
subpackages the import loaded and whether it loaded mpmath.  A module's
self time includes compiling it where no bytecode is cached, as under
PYTHONDONTWRITEBYTECODE=1, so the split shows what the size of `src/`
costs at start-up.
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


def _self_times(stderr: str) -> dict:
    """Self import time in seconds of each `ptdilate` module, from the
    `-X importtime` lines `import time: self [us] | cumulative | name`."""
    times = {}
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        name = fields[-1].strip()
        if len(fields) == 3 and (name == "ptdilate" or name.startswith("ptdilate.")):
            times[name] = int(fields[0]) / 1e6
    return times


def measure(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", CHILD], env=env, capture_output=True, text=True, check=True
    )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["modules"] = _self_times(proc.stderr)
    return report


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
    print("self import time per module (median):")
    for name in runs[0]["modules"]:
        print(f"  {name:20s} {1e3 * statistics.median(r['modules'][name] for r in runs):7.2f} ms")
    total = statistics.median(sum(r["modules"].values()) for r in runs)
    print(f"  {'all ptdilate':20s} {1e3 * total:7.2f} ms")
    print("scipy modules loaded: " + (", ".join(runs[-1]["scipy"]) or "none"))
    print("mpmath loaded: " + ("yes" if runs[-1]["mpmath"] else "no"))


if __name__ == "__main__":
    main()
