#!/usr/bin/env python3
"""Fails when a library header under src/ is reached by no binary.

    python3 tests/src_headers_reached.py [REPO_ROOT]

The roots are the C++ files under bench/, examples/, tools/ and
perfbench/. A src/ header is reached when a root includes it, or when a
reached header or its companion .cc includes it. A module that only its
own .h/.cc and its tests include is dead code: the check names it and
exits 1.
"""

import re
import sys
from pathlib import Path

ROOT_DIRS = ("bench", "examples", "tools", "perfbench")
CXX_SUFFIXES = {".h", ".cc", ".cpp"}
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def includes(path, src):
    """Yields the src/ headers that `path` includes by a quoted path."""
    for name in INCLUDE.findall(path.read_text(encoding="utf-8")):
        for candidate in (src / name, path.parent / name):
            if candidate.is_file() and src in candidate.resolve().parents:
                yield candidate.resolve()
                break


def unreached_headers(repo):
    src = (repo / "src").resolve()
    headers = {p.resolve() for p in src.rglob("*.h")}
    roots = [p for d in ROOT_DIRS for p in sorted((repo / d).rglob("*"))
             if p.suffix in CXX_SUFFIXES and p.is_file()]

    reached = set()
    pending = [h for root in roots for h in includes(root, src)]
    while pending:
        header = pending.pop()
        if header in reached:
            continue
        reached.add(header)
        companion = header.with_suffix(".cc")
        for path in (header, companion):
            if path.is_file():
                pending.extend(includes(path, src))
    return sorted(h.relative_to(src).as_posix() for h in headers - reached)


def main():
    repo = Path(sys.argv[1] if len(sys.argv) > 1 else
                Path(__file__).resolve().parent.parent).resolve()
    dead = unreached_headers(repo)
    if dead:
        print("src/ headers that no bench, example, tool or perfbench "
              "file reaches:")
        for name in dead:
            print(f"  src/{name}")
        return 1
    print("every src/ header is reached from a binary")
    return 0


if __name__ == "__main__":
    sys.exit(main())
