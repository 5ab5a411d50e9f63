#!/usr/bin/env python3
"""Hold the code a TEE build would contain to a committed line budget.

Usage: tee_budget.py [repo-root]   (default: the parent of this script's dir)

Counts non-blank lines that do not start with `//` in the *.h / *.cc files
under the TEE directories (src/core, src/sym, src/crypto, src/tee), minus the
files listed in EXCLUDED. Prints the count and exits 1 when it is above
CEILING, or when any of those files includes a header from a normal-world
directory (FORBIDDEN). Static libraries resolve symbols only when an
executable links, and every executable links the recorder anyway, so only a
source-level rule catches a leak. A change that lowers the count lowers
CEILING with it.
"""

import os
import re
import sys

TEE_DIRS = ("src/core", "src/sym", "src/crypto", "src/tee")
# The replay fleet stands up whole testbeds; it leaves with the fleet.
EXCLUDED = ("src/tee/replay_fleet.h", "src/tee/replay_fleet.cc")
FORBIDDEN = ("src/record", "src/kern", "src/drv", "src/workload", "src/check",
             "src/fault")
CEILING = 3397

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


def tee_files(root):
    files = []
    for d in TEE_DIRS:
        for base, _, names in os.walk(os.path.join(root, d)):
            for n in sorted(names):
                path = os.path.relpath(os.path.join(base, n), root)
                if n.endswith((".h", ".cc")) and path not in EXCLUDED:
                    files.append(path)
    return sorted(files)


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..")
    files = tee_files(root)
    count = 0
    leaks = []
    for path in files:
        with open(os.path.join(root, path), encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                stripped = line.strip()
                if stripped and not stripped.startswith("//"):
                    count += 1
                m = INCLUDE_RE.match(line)
                if m and m.group(1).startswith(tuple(d + "/" for d in FORBIDDEN)):
                    leaks.append(f"{path}:{lineno}: includes {m.group(1)}")
    print(f"TEE code: {count} lines in {len(files)} files (ceiling {CEILING})")
    for leak in leaks:
        print(leak)
    failed = False
    if leaks:
        print(f"FAIL: {len(leaks)} include(s) from a normal-world directory")
        failed = True
    if count > CEILING:
        print(f"FAIL: {count} lines is above the ceiling of {CEILING}")
        failed = True
    if not files:
        print(f"FAIL: no sources under {', '.join(TEE_DIRS)} in {root}")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
