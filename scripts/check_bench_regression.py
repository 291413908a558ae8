#!/usr/bin/env python3
"""Gate bench results against a checked-in BENCH_*.json trajectory.

Usage:
  check_bench_regression.py <fresh.json> <BENCH_simperf.json>
  check_bench_regression.py --scale <fresh.json> <BENCH_scale.json>

Default mode (sim_microbench vs BENCH_simperf.json), two checks per
scenario against the *last* trajectory entry (the current engine):

  1. event_order_hash must match exactly.  The executed (time, seq) event
     order is the determinism contract — it is machine-independent, so any
     mismatch is a real engine-behaviour change and fails hard.  Update the
     trajectory and the determinism golden test together if the change is
     intentional.

  2. events_per_sec must not drop more than the threshold (default 20%)
     below the recorded value.  Wall-clock throughput does vary with runner
     hardware; the generous threshold absorbs that, while a >20% drop on
     every scenario still catches "someone re-introduced a heap allocation
     per event" class regressions.

--scale mode (ext_scalability vs BENCH_scale.json) applies the same two
checks, but only to scenarios the baseline marks "pinned" (the 128- and
512-node points plus the pshard-512 shards-axis pair; CI caps the sweep
with --max-nodes so the larger points never run there).  A pinned point
also fails when its fresh per-point peak_rss_kb exceeds 1.5x the recorded
value, so per-endpoint state that goes back to being sized by the
configuration shows up; the margin absorbs a different libc.  A value of
0 (not measured) on either side skips that check.  Unpinned points
are checked only when present, and only for route memory:
routes_materialized must stay >= 10x below the all-pairs route count
(full_pairs), the lazy-RouteTable guarantee the 4096-node sweep exists to
demonstrate.  Missing unpinned points are fine; missing pinned points fail.

Sharded scenarios (the "pshard-<nodes>x<radix>-s<shards>" and
"msend-<nodes>x<radix>-s<shards>" labels from the --shards axis): a
baseline entry that records "shard_order_hashes" also pins the full
per-shard hash vector exactly — the sharded half of the determinism
contract.  The merged event_order_hash check covers the fold; the vector
check localises a divergence to the shard that re-timed.  A baseline
entry that records "lbts_rounds" pins the round schedule exactly too
(pshard-512x16-s4: 1,236 rounds, msend-512x16-s4: 4,608): how shards
wait for each other may change, how many LBTS rounds a run takes may not.

A pinned point whose baseline entry records "nic" also pins those NIC
protocol counters exactly (packets sent and received, the four drop
kinds, acks, retransmissions, forwards and header rewrites).  A counting
change that moves no event passes every hash check; this gate catches
it.  The memory-model counters (descriptor_*, payload_*, map_growths)
are not recorded, because legitimate memory work moves them.

--scale mode also sanity-checks the whole baseline trajectory, not just
the entry it gates against: every recorded sharded scenario must pin a
hash vector consistent with its shard count.  Entries recorded before the
shards axis existed carry no sharded counters at all — that is legal
history and is skipped, never failed.

Every point of a fresh --scale run must also do linear work in its
ready set: its engine.ready_shifts (the ready items that single-item
inserts into the timing wheel's ready set moved) must not exceed its
engine.events_executed, and a point that lacks the key fails.  Spawning
n processes at one instant once moved n^2/2 items (536,854,528 against
536,552 events at pshard-16384x16-s1); the sorted ready set now appends
such inserts, and no point of the sweep moves more than 0.36 items per
event (msend-512x16-s4).

Every sharded scenario of the fresh run must carry the blocked_waits
counter (slot reads that spun); its timing-dependent value is
informational.  (null_msgs_sent stays in the JSON at a constant 0 and is
no longer gated.)  History entries from when a lockstep barrier was the
other sync mode carry "…-async" twins ("sync": "async"): those must
record the null-message counters of their day and equal their
suffix-less twin in every hash.
"""
import json
import sys

THRESHOLD = 0.80  # fresh events/sec must be >= 80% of the recorded value
RSS_FACTOR = 1.5  # fresh peak_rss_kb must be <= 1.5x the recorded value
ROUTE_FACTOR = 10  # lazy routes must undercut all-pairs by at least this


def check_hash_and_eps(label, want, run, failures):
    got_hash = run["engine"]["event_order_hash"]
    if got_hash != want["event_order_hash"]:
        failures.append(
            f"{label}: event_order_hash {got_hash} != recorded "
            f"{want['event_order_hash']} (determinism contract broken)")
    want_vector = want.get("shard_order_hashes")
    if want_vector is not None:
        got_vector = run["engine"].get("shard_order_hashes")
        if got_vector != want_vector:
            diverged = [
                i for i, (a, b) in enumerate(
                    zip(got_vector or [], want_vector))
                if a != b
            ] or "all"
            failures.append(
                f"{label}: per-shard hash vector diverged from the recorded "
                f"golden (shards {diverged}); the sharded determinism "
                f"contract is broken")
    want_rounds = want.get("lbts_rounds")
    if want_rounds is not None:
        got_rounds = run["engine"].get("lbts_rounds")
        if got_rounds != want_rounds:
            failures.append(
                f"{label}: lbts_rounds {got_rounds} != recorded "
                f"{want_rounds} (the round schedule changed)")
    got_eps = run["metrics"]["events_per_sec"]
    floor = THRESHOLD * want["events_per_sec"]
    verdict = "ok" if got_eps >= floor else "REGRESSED"
    print(f"{label}: {got_eps:,.0f} ev/s vs recorded "
          f"{want['events_per_sec']:,} (floor {floor:,.0f}) -> {verdict}")
    if got_eps < floor:
        failures.append(
            f"{label}: {got_eps:,.0f} ev/s is more than 20% below the "
            f"recorded {want['events_per_sec']:,}")


def check_protocol_counters(label, want, run, failures):
    want_nic = want.get("nic")
    if want_nic is None:
        return
    got_nic = run.get("nic", {})
    moved = [
        f"{key} {got_nic.get(key)} != recorded {value}"
        for key, value in want_nic.items() if got_nic.get(key) != value
    ]
    print(f"{label}: {len(want_nic)} protocol counters -> "
          f"{'MOVED' if moved else 'ok'}")
    if moved:
        failures.append(
            f"{label}: protocol counters moved ({'; '.join(moved)})")


def check_peak_rss(label, want, run, failures):
    got = run["metrics"].get("peak_rss_kb", 0)
    rec = want.get("peak_rss_kb", 0)
    if not got or not rec:
        print(f"{label}: peak RSS not measured -> skipped")
        return
    ceiling = RSS_FACTOR * rec
    ok = got <= ceiling
    print(f"{label}: peak RSS {got:,.0f} kB vs recorded {rec:,} kB "
          f"(ceiling {ceiling:,.0f}) -> {'ok' if ok else 'TOO BIG'}")
    if not ok:
        failures.append(
            f"{label}: peak RSS {got:,.0f} kB is more than {RSS_FACTOR}x "
            f"the recorded {rec:,} kB")


def check_sync_counters(label, want, run, failures):
    """Gate the *presence* of the blocked_waits counter, print its value.

    How often a shard found a peer's published value not yet there
    depends on thread timing, so the value legitimately varies between
    runs and is never compared.  Losing the key entirely means the sync
    instrumentation or JSON plumbing regressed.
    """
    got = run["engine"].get("blocked_waits")
    if got is None:
        failures.append(
            f"{label}: sharded run reports no 'blocked_waits' counter; "
            f"the sync instrumentation regressed")
        return
    rec = want.get("blocked_waits")
    rec_text = f"{int(rec):,}" if rec is not None else "n/a"
    print(f"{label}:   blocked_waits {int(got):,} "
          f"(recorded {rec_text}; informational)")


def check_ready_shifts(label, run, failures):
    shifts = run["engine"].get("ready_shifts")
    events = run["engine"]["events_executed"]
    if shifts is None:
        failures.append(
            f"{label}: run reports no 'ready_shifts' counter; the timing "
            f"wheel's insert count is not plumbed")
        return
    ok = shifts <= events
    print(f"{label}: {shifts:,} ready-set moves vs {events:,} events -> "
          f"{'ok' if ok else 'SUPERLINEAR'}")
    if not ok:
        failures.append(
            f"{label}: ready-set inserts moved {shifts:,} items for "
            f"{events:,} events (more than one per event)")


def check_route_memory(label, run, failures):
    routes = run["engine"]["routes_materialized"]
    full_pairs = run["metrics"]["full_pairs"]
    ok = routes * ROUTE_FACTOR <= full_pairs
    print(f"{label}: {routes:,} routes materialized vs {full_pairs:,.0f} "
          f"all-pairs -> {'ok' if ok else 'TOO MANY'}")
    if not ok:
        failures.append(
            f"{label}: {routes:,} materialized routes is not >= "
            f"{ROUTE_FACTOR}x below the {full_pairs:,.0f} all-pairs table")


def check_trajectory_history(trajectory, failures):
    """Validate the sharded pins across the whole recorded trajectory.

    Pre-shards-axis entries record no sharded counters (no "shards" field,
    or a sharded label without "shard_order_hashes" — shards == 1 runs on
    the sequential engine and never has a vector).  Those entries are
    history, not breakage: skip them.  An entry that does pin a vector must
    pin one hash per shard, or the golden can never be matched.
    """
    for i, entry in enumerate(trajectory):
        for label, want in entry["scenarios"].items():
            shards = want.get("shards", 0)
            vector = want.get("shard_order_hashes")
            if shards <= 1 or vector is None:
                if shards > 1:
                    print(f"trajectory[{i}] {label}: recorded before "
                          f"sharded counters existed -> skipped")
                continue
            if len(vector) != shards:
                failures.append(
                    f"trajectory[{i}] {label}: pins {len(vector)} shard "
                    f"hashes for {shards} shards; the golden is unmatchable")
        for label, want in entry["scenarios"].items():
            if want.get("sync") != "async":
                continue
            for key in ("null_msgs_sent", "blocked_waits"):
                if key not in want:
                    failures.append(
                        f"trajectory[{i}] {label}: async scenario records "
                        f"no '{key}' counter")
            if not label.endswith("-async"):
                failures.append(
                    f"trajectory[{i}] {label}: sync=async scenarios use "
                    f"the '-async' label suffix")
                continue
            twin = entry["scenarios"].get(label[:-len("-async")])
            if twin is None:
                continue  # an async point need not have a recorded twin
            if (want.get("event_order_hash") != twin.get("event_order_hash")
                    or want.get("shard_order_hashes")
                    != twin.get("shard_order_hashes")):
                failures.append(
                    f"trajectory[{i}] {label}: hashes differ from the "
                    f"twin without '-async'; both ran one round schedule")


def main() -> int:
    args = sys.argv[1:]
    scale_mode = "--scale" in args
    if scale_mode:
        args.remove("--scale")
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    fresh_doc = json.load(open(args[0]))
    baseline_doc = json.load(open(args[1]))

    recorded = baseline_doc["trajectory"][-1]["scenarios"]
    fresh = {run["spec"]["label"]: run for run in fresh_doc["runs"]}

    failures = []
    if scale_mode:
        check_trajectory_history(baseline_doc["trajectory"], failures)
    for label, want in recorded.items():
        run = fresh.get(label)
        pinned = want.get("pinned", True)
        if run is None:
            if scale_mode and not pinned:
                print(f"{label}: not run (capped sweep) -> skipped")
                continue
            failures.append(f"{label}: scenario missing from fresh run")
            continue
        if not scale_mode or pinned:
            check_hash_and_eps(label, want, run, failures)
        if scale_mode and pinned:
            check_peak_rss(label, want, run, failures)
            check_protocol_counters(label, want, run, failures)
        if scale_mode:
            check_route_memory(label, run, failures)
    if scale_mode:
        for i, run in enumerate(fresh_doc["runs"]):
            check_ready_shifts(run["spec"]["label"] or f"run {i}", run,
                               failures)
        for label, run in fresh.items():
            if run["spec"].get("shards", 1) > 1:
                check_sync_counters(label, recorded.get(label, {}), run,
                                    failures)

    if failures:
        print("\nbench regression check FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nbench regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
