#!/usr/bin/env python3
"""Gate simulated results against the checked-in results manifest.

Usage:
  check_results.py [--build-dir DIR] [--manifest PATH] [--write] [ARG ...]

Each ARG names a group of sources (benches, soak, scale) or one source by
its command; no ARG means every source.  The script runs each selected
source from DIR (default: build) with --json into a temporary directory.
GROUP=PATH reads an existing --json output of a one-source group instead
of running it (CI's bench-smoke job passes the scale sweep it already ran).

BENCH_results.json holds one entry per run of every source:

  results   latency_us statistics, the NIC counters that are not zero,
            and every metric except the host-timing ones (wall_ms,
            events_per_sec, peak_rss_kb, events);
  schedule  engine.event_order_hash and engine.events_executed.

A difference in results fails.  A difference in schedule alone fails too,
but is reported as "schedule moved, results equal": a change that removes
events without moving any result shows up as exactly that.  --write
rewrites the selected sources' entries instead of comparing; each entry
keeps its results and its schedule on separate lines, so the manifest's
git diff shows which of the two moved.

Exit codes: 0 equal, 1 any difference, 2 usage or a source that failed.
"""
import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
HOST_TIMING = {"wall_ms", "events_per_sec", "peak_rss_kb", "events"}
SCHEDULE = ("event_order_hash", "events_executed")


def sources():
    """Group name -> source commands, relative to the build directory."""
    benches = sorted(p.stem for p in (ROOT / "bench").glob("*.cpp")
                     if p.stem not in ("sim_microbench", "ext_scalability"))
    return {
        "benches": [f"bench/{b} --iters 2 --seed 1" for b in benches] +
                   ["bench/fig5_gm_mcast", "bench/reliability_loss"],
        "soak": ["tests/property/soak_driver --iters 150 --seed 1 "
                 "--threads 4 --shards 4"],
        "scale": ["bench/ext_scalability --seed 1 --iters 3"],
    }


def entry(source, run):
    metrics = {k: v for k, v in run["metrics"].items() if k not in HOST_TIMING}
    nic = {k: v for k, v in run["nic"].items() if v}
    return {
        "source": source,
        "label": run["spec"]["label"],
        "seed": run["spec"]["seed"],
        "results": {"latency_us": run["latency_us"], "nic": nic,
                    "metrics": metrics},
        "schedule": {k: run["engine"][k] for k in SCHEDULE},
    }


def collect(build_dir, source, json_path=None):
    if json_path is None:
        with tempfile.TemporaryDirectory() as tmp:
            out = pathlib.Path(tmp) / "runs.json"
            cmd = source.split()
            cmd[0] = str(build_dir / cmd[0])
            proc = subprocess.run(cmd + ["--json", str(out)],
                                  stdout=subprocess.DEVNULL)
            if proc.returncode != 0:
                print(f"{source}: exited {proc.returncode}", file=sys.stderr)
                sys.exit(2)
            doc = json.loads(out.read_text())
    else:
        doc = json.loads(pathlib.Path(json_path).read_text())
    return [entry(source, run) for run in doc["runs"]]


def write_manifest(path, entries):
    def dump(value):
        return json.dumps(value, separators=(", ", ": "))

    lines = []
    for e in entries:
        head = dump({k: e[k] for k in ("source", "label", "seed")})[:-1]
        lines.append(f"  {head},\n   \"results\": {dump(e['results'])},\n"
                     f"   \"schedule\": {dump(e['schedule'])}}}")
    path.write_text('{\n "schema": "nicmcast-results-v1",\n "runs": [\n' +
                    ",\n".join(lines) + "\n ]\n}\n")


def differences(old, new):
    """The dotted paths under which two JSON values differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for key in sorted(old.keys() | new.keys()):
            for path, a, b in differences(old.get(key), new.get(key)):
                out.append((f"{key}.{path}" if path else key, a, b))
        return out
    return [] if old == new else [("", old, new)]


def compare(source, old, new):
    """Returns (result diffs, schedule diffs) as printable lines."""
    if len(old) != len(new):
        return [f"{source}: {len(old)} runs recorded, {len(new)} ran"], []
    results, schedule = [], []
    for i, (a, b) in enumerate(zip(old, new)):
        name = f"{source} #{i} {a['label'] or a['seed']}"
        ident = differences({k: a[k] for k in ("label", "seed")},
                            {k: b[k] for k in ("label", "seed")})
        for path, x, y in ident + differences(a["results"], b["results"]):
            results.append(f"{name}: {path}: {x} -> {y}")
        for path, x, y in differences(a["schedule"], b["schedule"]):
            schedule.append(f"{name}: {path}: {x} -> {y}")
    return results, schedule


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--build-dir", default="build", type=pathlib.Path)
    parser.add_argument("--manifest", default=ROOT / "BENCH_results.json",
                        type=pathlib.Path)
    parser.add_argument("--write", action="store_true")
    parser.add_argument("selection", nargs="*")
    args = parser.parse_args()

    groups = sources()
    every = [s for group in groups.values() for s in group]
    selected = {}  # source -> existing JSON output, or None to run it
    for arg in args.selection or list(groups):
        name, _, path = arg.partition("=")
        picked = groups.get(name, [name] if name in every else None)
        if picked is None or (path and len(picked) != 1):
            parser.error(f"{arg}: not a group ({', '.join(groups)}), a "
                         "one-source GROUP=PATH, or a source command")
        selected.update({s: path or None for s in picked})

    recorded = {}
    if args.manifest.exists():
        for e in json.loads(args.manifest.read_text())["runs"]:
            recorded.setdefault(e["source"], []).append(e)

    fresh = {s: collect(args.build_dir, s, path)
             for s, path in selected.items()}
    if args.write:
        recorded.update(fresh)
        write_manifest(args.manifest,
                       [e for s in every for e in recorded.get(s, [])])
        print(f"wrote {sum(map(len, fresh.values()))} runs of "
              f"{len(fresh)} sources to {args.manifest}")
        return 0

    results, schedule = [], []
    for source, runs in fresh.items():
        r, s = compare(source, recorded.get(source, []), runs)
        results += r
        schedule += s
    for line in results + schedule:
        print(line)
    runs = sum(map(len, fresh.values()))
    if results:
        print(f"FAIL: results differ ({len(results)} fields over "
              f"{runs} runs)")
        return 1
    if schedule:
        print(f"FAIL: schedule moved, results equal ({len(schedule)} "
              f"fields over {runs} runs)")
        return 1
    print(f"OK: {runs} runs of {len(fresh)} sources match {args.manifest.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
