#!/usr/bin/env python3
"""Compare the benchmark suite's code layout between two builds.

Usage:
  check_suite_layout.py PARENT_BENCH_BUILD CHANGE_BENCH_BUILD

Each argument is a build directory of bench/suite (what
`python3 bench/suite/run.py` leaves in .bench_build/) holding a linked
nicmcast_bench.  The suite's case bodies are coroutine lambdas in
bench/suite/cases.cpp; their frames' `.actor` functions hold the loops
that compare delivered payloads byte by byte.  Where such a loop falls
relative to 32- and 64-byte boundaries moves lossy-64 `wall_s` by up to
50% with no event moved, so a change to src/ must leave every actor at
the same address mod 64 as its parent.

What moves them is code size linked before them, above all the summed
`.text.unlikely` (cold code) of every object: the linker places all cold
code first.  The script prints each actor's address mod 64 in both
binaries, then every object whose `.text.unlikely` size differs, with
the summed totals.  It only reads the two builds.

Exit codes: 0 every actor at its parent's address mod 64, 1 an actor
moved or exists in one binary only, 2 usage or a build that cannot be
read.
"""
import pathlib
import re
import subprocess
import sys

ACTOR_RE = re.compile(r"5suite12_GLOBAL__N_1.*actor$")
LINE = 64


def actors(binary):
    """Mangled actor symbol -> address, from `nm -n`."""
    out = subprocess.run(["nm", "-n", str(binary)], check=True,
                         capture_output=True, text=True).stdout
    found = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and ACTOR_RE.search(parts[2]):
            found[parts[2]] = int(parts[0], 16)
    return found


def label(symbol):
    """A short name for an actor: its case function and lambda numbers."""
    name = subprocess.run(["c++filt", symbol], capture_output=True,
                          text=True).stdout.strip() or symbol
    name = name.replace("(anonymous namespace)", "{anon}")
    short, depth = [], 0
    for ch in name:  # drop every argument list
        if ch == "(":
            if depth == 0:
                short.append("(")
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                short.append(")")
        elif depth == 0:
            short.append(ch)
    parts = "".join(short).split("::")
    return "::".join(p for p in parts
                     if p not in ("nicmcast", "suite", "{anon}")
                     and not p.startswith("operator()"))


def cold_sizes(build):
    """Object path relative to the build -> summed .text.unlikely bytes."""
    sizes = {}
    for obj in sorted(build.rglob("*.dir/**/*.o")):
        out = subprocess.run(["size", "-A", str(obj)], check=True,
                             capture_output=True, text=True).stdout
        total = 0
        for line in out.splitlines():
            parts = line.split()
            if len(parts) >= 2 and parts[0].startswith(".text.unlikely"):
                total += int(parts[1])
        sizes[str(obj.relative_to(build))] = total
    return sizes


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    builds = [pathlib.Path(arg) for arg in sys.argv[1:]]
    for build in builds:
        if not (build / "nicmcast_bench").is_file():
            print(f"{build}: no nicmcast_bench here", file=sys.stderr)
            return 2
    parent, change = (actors(b / "nicmcast_bench") for b in builds)
    if not parent:
        print(f"{builds[0]}: no suite actor symbols", file=sys.stderr)
        return 2

    moved = []
    print(f"{'parent':>6} {'change':>6}  actor (address mod {LINE})")
    for symbol in sorted(parent.keys() | change.keys(),
                         key=lambda s: parent.get(s, change.get(s))):
        was = parent.get(symbol)
        now = change.get(symbol)
        cells = [f"{a % LINE:>6}" if a is not None else f"{'-':>6}"
                 for a in (was, now)]
        same = was is not None and now is not None and was % LINE == now % LINE
        if not same:
            moved.append(symbol)
        print(f"{cells[0]} {cells[1]}  {label(symbol)}"
              f"{'' if same else '   MOVED'}")

    parent_cold, change_cold = (cold_sizes(b) for b in builds)
    print("\n.text.unlikely bytes by object (objects that differ):")
    for obj in sorted(parent_cold.keys() | change_cold.keys()):
        was = parent_cold.get(obj)
        now = change_cold.get(obj)
        if was == now:
            continue
        delta = (now or 0) - (was or 0)
        print(f"  {was if was is not None else '-':>7} "
              f"{now if now is not None else '-':>7} {delta:+7d}  {obj}")
    was_total = sum(parent_cold.values())
    now_total = sum(change_cold.values())
    print(f"  {was_total:>7} {now_total:>7} {now_total - was_total:+7d}"
          f"  (all objects)")

    if moved:
        print(f"\n{len(moved)} of {len(parent.keys() | change.keys())} "
              f"actors moved mod {LINE}", file=sys.stderr)
        return 1
    print(f"\nevery actor keeps its parent's address mod {LINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
