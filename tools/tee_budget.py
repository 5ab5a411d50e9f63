#!/usr/bin/env python3
"""Hold the code a TEE build contains to a committed line budget.

Usage: tee_budget.py [repo-root]   (default: the parent of this script's dir)

Counts non-blank lines that do not start with `//` in two sets of *.h / *.cc
files:
- the TEE directories (src/core, src/sym, src/crypto, src/tee), minus the
  files listed in EXCLUDED;
- the support code they pull in: every header under src/obs and src/soc that
  a counted file includes (so transitively), each with its .cc. The walk stops
  at STOP, the simulated SoC a TEE runs on, which is hardware, not TEE code.

Prints the count and exits 1 when it differs from CEILING, or when a counted
file includes a header from a normal-world directory (FORBIDDEN). Above the
ceiling the TEE grew; below it, CEILING must come down to the count (the
script prints the value to set), so every cut lowers the budget with it. The
tier-1 ctest TeeLinkCheck (tests/tee_link_check.cc) checks the same boundary
on objects: it links the TEE libraries alone, so a TEE object that calls
normal-world code fails to link.
"""

import os
import re
import sys

TEE_DIRS = ("src/core", "src/sym", "src/crypto", "src/tee")
# The replay fleet stands up whole testbeds; it leaves with the fleet.
EXCLUDED = ("src/tee/replay_fleet.h", "src/tee/replay_fleet.cc")
SUPPORT_DIRS = ("src/obs", "src/soc")
STOP = ("src/soc/machine.h",)
FORBIDDEN = ("src/record", "src/kern", "src/drv", "src/workload", "src/check",
             "src/fault")
CEILING = 3212

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


def includes(root, path):
    with open(os.path.join(root, path), encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            m = INCLUDE_RE.match(line)
            if m:
                yield lineno, m.group(1)


def support_files(root, tee):
    """The src/obs and src/soc files the TEE files reach through includes."""
    prefixes = tuple(d + "/" for d in SUPPORT_DIRS)
    found = set()
    todo = list(tee)
    while todo:
        for _, inc in includes(root, todo.pop()):
            if not inc.startswith(prefixes) or inc in STOP or inc in found:
                continue
            for path in (inc, inc[:-len(".h")] + ".cc"):
                if path not in found and os.path.exists(os.path.join(root, path)):
                    found.add(path)
                    todo.append(path)
    return sorted(found)


def count_lines(root, path):
    with open(os.path.join(root, path), encoding="utf-8") as f:
        return sum(1 for line in f
                   if line.strip() and not line.strip().startswith("//"))


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..")
    tee = tee_files(root)
    support = support_files(root, tee)
    tee_count = sum(count_lines(root, p) for p in tee)
    support_count = sum(count_lines(root, p) for p in support)
    count = tee_count + support_count
    leaks = [f"{path}:{lineno}: includes {inc}"
             for path in tee + support
             for lineno, inc in includes(root, path)
             if inc.startswith(tuple(d + "/" for d in FORBIDDEN))]
    print(f"TEE code: {count} lines in {len(tee) + len(support)} files "
          f"({tee_count} in {len(tee)} TEE-directory files, {support_count} in "
          f"{len(support)} support files: {', '.join(support)}) "
          f"(ceiling {CEILING})")
    for leak in leaks:
        print(leak)
    failed = False
    if leaks:
        print(f"FAIL: {len(leaks)} include(s) from a normal-world directory")
        failed = True
    if count > CEILING:
        print(f"FAIL: {count} lines is above the ceiling of {CEILING}")
        failed = True
    elif count < CEILING:
        print(f"FAIL: {count} lines is below the ceiling of {CEILING}; "
              f"lower it: CEILING = {count}")
        failed = True
    if not tee:
        print(f"FAIL: no sources under {', '.join(TEE_DIRS)} in {root}")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
