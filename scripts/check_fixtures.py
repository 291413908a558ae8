#!/usr/bin/env python3
"""Run nicmcast_lint over the check fixtures and diff against EXPECT.

Every fixture under tools/nicmcast-tidy/fixtures/ annotates the lines it
expects flagged with `// EXPECT: <check-name>`.  This script runs the
nicmcast_lint binary over each fixture and fails if the produced (line,
check) set differs from the annotated one in either direction.

The gtest fixture tests run the same checks in-process; this script reads
the binary's output with the finding regex scripts/run_static_analysis.py
parses, so an output-format drift fails here instead of silently turning
the lint gate clean:

    scripts/check_fixtures.py --lint-bin build/tools/nicmcast-tidy/nicmcast_lint
"""

from __future__ import annotations

import argparse
import pathlib
import re
import subprocess
import sys

from run_static_analysis import FINDING_RE, REPO_ROOT

FIXTURE_DIR = REPO_ROOT / "tools" / "nicmcast-tidy" / "fixtures"

EXPECT_RE = re.compile(r"// EXPECT: (?P<check>[a-z][a-z0-9-]*)")


def expected_findings(fixture: pathlib.Path) -> set[tuple[int, str]]:
    out = set()
    for lineno, line in enumerate(
        fixture.read_text().splitlines(), start=1
    ):
        m = EXPECT_RE.search(line)
        if m:
            out.add((lineno, m.group("check")))
    return out


def parse_findings(output: str, fixture: pathlib.Path) -> set[tuple[int, str]]:
    out = set()
    for line in output.splitlines():
        m = FINDING_RE.match(line)
        if not m:
            continue
        if pathlib.Path(m.group("path")).name != fixture.name:
            continue  # ignore findings reported against headers
        out.add((int(m.group("line")), m.group("check")))
    return out


def run_lint(args, fixture: pathlib.Path) -> str:
    cmd = [args.lint_bin, "--root", str(REPO_ROOT), str(fixture)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"nicmcast_lint failed on {fixture.name}")
    return proc.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lint-bin", required=True,
                        help="path to nicmcast_lint")
    args = parser.parse_args()

    fixtures = sorted(FIXTURE_DIR.glob("*.cpp"))
    if not fixtures:
        raise SystemExit(f"no fixtures under {FIXTURE_DIR}")

    failures = 0
    for fixture in fixtures:
        expected = expected_findings(fixture)
        actual = parse_findings(run_lint(args, fixture), fixture)

        missing = expected - actual
        surplus = actual - expected
        status = "ok" if not missing and not surplus else "FAIL"
        print(f"[{status}] {fixture.name}: expected {len(expected)}, "
              f"got {len(actual)}")
        for line, check in sorted(missing):
            failures += 1
            print(f"  missing  {fixture.name}:{line} [{check}]")
        for line, check in sorted(surplus):
            failures += 1
            print(f"  surplus  {fixture.name}:{line} [{check}]")

    if failures:
        print(f"{failures} fixture expectation(s) violated", file=sys.stderr)
        return 1
    print(f"all {len(fixtures)} fixtures match")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
