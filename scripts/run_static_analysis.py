#!/usr/bin/env python3
"""Repo-wide nicmcast-* static analysis driver.

Runs the determinism-contract checks (nicmcast_lint, which builds with
the simulator itself) over the tree and fails on any finding not recorded
in the baseline file.  With --clang-tidy BIN the curated upstream checks
from .clang-tidy (plain clang-tidy over --build-dir's
compile_commands.json) go through the same gate; the CI static-analysis
job runs that.

Modes:

  scripts/run_static_analysis.py                 # full tree
  scripts/run_static_analysis.py --diff origin/main   # changed files only
                                                 # (the pre-push check)
  scripts/run_static_analysis.py --jobs 8        # shard pass 2 across
                                                 # 8 engine processes
  scripts/run_static_analysis.py \
      --checks nicmcast-memory-order-audit,nicmcast-shard-state-escape
  scripts/run_static_analysis.py --clang-tidy clang-tidy-18 \
      --build-dir build                          # plus upstream checks

The baseline (scripts/static_analysis_baseline.txt) lists findings that
are acknowledged and suppressed, one `path:check` per line.  The gate is
therefore "zero NEW findings", so the sweep never has to be all-or-
nothing.  Refresh it with --update-baseline after an intentional change.
A baseline entry whose path no longer exists is a hard error: it means
the acknowledged finding was deleted but its waiver kept, and the stale
line would silently re-suppress a future finding at a revived path.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import pathlib
import re
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "scripts" / "static_analysis_baseline.txt"

SOURCE_DIRS = ["src", "tests", "bench", "examples", "tools"]
EXCLUDE_PARTS = ("tools/nicmcast-tidy/fixtures",)
SOURCE_SUFFIXES = {".cpp", ".hpp"}

FINDING_RE = re.compile(
    r"^(?P<path>[^:]+):(?P<line>\d+):(?P<col>\d+): warning: .*"
    r"\[(?P<check>[a-z][a-z0-9.-]*)[,\]]"
)


def repo_sources() -> list[pathlib.Path]:
    files: list[pathlib.Path] = []
    for top in SOURCE_DIRS:
        for path in sorted((REPO_ROOT / top).rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES:
                continue
            rel = path.relative_to(REPO_ROOT).as_posix()
            if any(part in rel for part in EXCLUDE_PARTS):
                continue
            files.append(path)
    return files


def diff_sources(base: str) -> list[pathlib.Path]:
    proc = subprocess.run(
        ["git", "diff", "--name-only", "--diff-filter=d", base, "--"],
        cwd=REPO_ROOT, capture_output=True, text=True, check=True)
    files = []
    for name in proc.stdout.splitlines():
        path = REPO_ROOT / name
        if path.suffix not in SOURCE_SUFFIXES or not path.exists():
            continue
        if any(part in name for part in EXCLUDE_PARTS):
            continue
        files.append(path)
    return files


def find_lint_bin(args) -> pathlib.Path | None:
    if args.lint_bin:
        return pathlib.Path(args.lint_bin)
    for build in (args.build_dir, REPO_ROOT / "build"):
        if not build:
            continue
        cand = pathlib.Path(build) / "tools" / "nicmcast-tidy" / \
            "nicmcast_lint"
        if cand.exists():
            return cand
    return None


def shard(items: list, jobs: int) -> list[list]:
    """Round-robin split preserving per-shard sorted order well enough."""
    out = [items[i::jobs] for i in range(jobs)]
    return [s for s in out if s]


def run_clang_tidy(args, files: list[pathlib.Path]) -> list[str]:
    build_dir = args.build_dir or (REPO_ROOT / "build")
    base = [args.clang_tidy, "-p", str(build_dir), "--quiet"]
    sources = [str(f) for f in files if f.suffix == ".cpp"]
    if not sources:
        return []

    def one(chunk: list[str]) -> str:
        proc = subprocess.run(base + chunk, capture_output=True, text=True,
                              cwd=REPO_ROOT)
        return proc.stdout

    lines: list[str] = []
    with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        for out in pool.map(one, shard(sources, args.jobs)):
            lines += out.splitlines()
    return lines


def run_lint(args, files: list[pathlib.Path],
                        lint_bin: pathlib.Path) -> list[str]:
    base = [str(lint_bin), "--root", str(REPO_ROOT)]
    for check in args.checks:
        base += ["--check", check]
    sources = [str(f) for f in files]

    def one(chunk: list[str]) -> str:
        # The chunk is checked; every other file still feeds pass-1
        # declarations, so sharding cannot change what a check knows
        # about cross-file symbol kinds.
        rest = [s for s in sources if s not in set(chunk)]
        cmd = base + ["--check-first", str(len(chunk))] + chunk + rest
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=REPO_ROOT)
        if proc.returncode not in (0, 1):
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit("nicmcast_lint crashed")
        return proc.stdout

    lines: list[str] = []
    with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        for out in pool.map(one, shard(sources, args.jobs)):
            lines += out.splitlines()
    return lines


def parse_findings(lines: list[str]) -> list[tuple[str, int, str, str]]:
    out = []
    for line in lines:
        m = FINDING_RE.match(line)
        if not m:
            continue
        path = pathlib.Path(m.group("path"))
        if path.is_absolute():
            try:
                path = path.relative_to(REPO_ROOT)
            except ValueError:
                continue  # system header noise from upstream checks
        out.append((path.as_posix(), int(m.group("line")),
                    m.group("check"), line.strip()))
    return out


def load_baseline() -> set[str]:
    if not BASELINE.exists():
        return set()
    out = set()
    for line in BASELINE.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.add(line)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--diff", metavar="BASE",
                        help="only analyse files changed since BASE")
    parser.add_argument("--clang-tidy", metavar="BIN",
                        help="also run the upstream checks in .clang-tidy "
                             "with this clang-tidy binary")
    parser.add_argument("--lint-bin", help="path to nicmcast_lint")
    parser.add_argument("--build-dir",
                        help="build tree (compile_commands.json, built "
                             "nicmcast_lint)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="record current findings as accepted")
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        help="engine processes to run in parallel "
                             "(0 = CPU count)")
    parser.add_argument("--checks",
                        help="comma-separated nicmcast-* checks to run "
                             "(default: all)")
    args = parser.parse_args()
    if args.jobs == 0:
        args.jobs = os.cpu_count() or 1
    if args.jobs < 1:
        parser.error("--jobs must be >= 0")
    args.checks = [c for c in (args.checks or "").split(",") if c]

    files = diff_sources(args.diff) if args.diff else repo_sources()
    if not files:
        print("static-analysis: no files to analyse")
        return 0

    lint_bin = find_lint_bin(args)
    if lint_bin is None:
        raise SystemExit(
            "nicmcast_lint not found; build it first "
            "(cmake --build build --target nicmcast_lint) or pass "
            "--lint-bin")
    lines = run_lint(args, files, lint_bin)
    engine = "nicmcast_lint"
    if args.clang_tidy:
        lines += run_clang_tidy(args, files)
        engine += " + clang-tidy"

    findings = parse_findings(lines)

    if args.update_baseline:
        keys = sorted({f"{path}:{check}" for path, _, check, _ in findings})
        BASELINE.write_text(
            "# Acknowledged static-analysis findings (path:check), one per"
            " line.\n# Regenerate with scripts/run_static_analysis.py"
            " --update-baseline.\n" + "".join(k + "\n" for k in keys))
        print(f"baseline updated: {len(keys)} entrie(s)")
        return 0

    baseline = load_baseline()
    stale = [entry for entry in sorted(baseline)
             if not (REPO_ROOT / entry.rsplit(":", 1)[0]).exists()]
    if stale:
        for entry in stale:
            print(f"stale baseline entry (path gone): {entry}",
                  file=sys.stderr)
        print(f"static-analysis: {len(stale)} stale baseline entrie(s) in "
              f"{BASELINE.relative_to(REPO_ROOT)}; remove them or rerun "
              "--update-baseline", file=sys.stderr)
        return 1
    fresh = [f for f in findings
             if f"{f[0]}:{f[2]}" not in baseline]

    scope = f"{len(files)} file(s)" + (f" changed since {args.diff}"
                                       if args.diff else "")
    if not fresh:
        suppressed = len(findings) - len(fresh)
        note = f" ({suppressed} baselined)" if suppressed else ""
        print(f"static-analysis [{engine}]: clean over {scope}{note}")
        return 0

    for _, _, _, raw in fresh:
        print(raw)
    print(f"static-analysis [{engine}]: {len(fresh)} new finding(s) over "
          f"{scope}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
