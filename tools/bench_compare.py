#!/usr/bin/env python3
"""Compare two schema-v1 BENCH_<name>.json files metric by metric.

Prints a per-trial table of baseline vs current values with % deltas for
the counter fields (events, messages, bytes) and every named metric, plus
the totals row.  Wall time is reported but never gated: it depends on the
machine, while counters and metrics are deterministic for a fixed
scale/seed.  Peak RSS is gated only on request: --rss-tolerance PCT fails
when the current process's peak_rss_kb exceeds the baseline's by more than
PCT percent (a drop always passes).

Exit status:
    0  within tolerance (or neither --tolerance nor --rss-tolerance given)
    1  at least one gated value regressed past --tolerance percent, or
       peak RSS grew past --rss-tolerance percent
    2  usage / unreadable input / schema mismatch

Machine-dependent metrics (e.g. the micro bench's `iterations`, which
Google Benchmark picks from the host's speed) can be excluded from gating
with --ignore-metric; they are still printed, marked "(ignored)".

Typical use — hard gate for deterministic baselines:

    python3 tools/bench_compare.py baselines/BENCH_micro.json \
        bench-out/BENCH_micro.json --tolerance 0 --ignore-metric iterations

a memory gate (counters not gated) for a bench whose footprint matters:

    python3 tools/bench_compare.py baselines/BENCH_fig8_large_smoke.json \
        bench-large-out/BENCH_fig8_large.json --rss-tolerance 25

and warn-only while a baseline settles:

    python3 tools/bench_compare.py baselines/BENCH_fig6.json \
        bench-out/BENCH_fig6.json --tolerance 5 || echo "::warning::..."

Stdlib-only on purpose, like bench_json_schema.py.
"""

import argparse
import json
import sys

SCHEMA_VERSION = 1

# Deterministic per-trial counters we gate on (wall_time_s is machine noise).
GATED_COUNTERS = ("events", "messages", "bytes")


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"{path}: unreadable or not JSON: {e}")
    if not isinstance(doc, dict) or doc.get("schema_version") != SCHEMA_VERSION:
        sys.exit(f"{path}: not a schema-v{SCHEMA_VERSION} bench report")
    return doc


def pct_delta(base, cur):
    """Percent change from base to cur; None when undefined (base == 0)."""
    if base == 0:
        return None if cur == 0 else float("inf")
    return 100.0 * (cur - base) / base


def fmt_delta(delta):
    if delta is None:
        return "   0.00%"
    if delta == float("inf"):
        return "  +inf%"
    return f"{delta:+8.2f}%"


def fmt_val(v):
    if isinstance(v, float) and v != int(v):
        return f"{v:.6g}"
    return str(int(v))


def compare_row(rows, where, key, base, cur):
    delta = pct_delta(base, cur)
    rows.append((where, key, base, cur, delta))
    return delta


def main():
    ap = argparse.ArgumentParser(
        description="Diff two schema-v1 BENCH JSON reports.")
    ap.add_argument("baseline", help="reference BENCH_<name>.json")
    ap.add_argument("current", help="freshly produced BENCH_<name>.json")
    ap.add_argument("--tolerance", type=float, default=None, metavar="PCT",
                    help="exit nonzero if any gated counter or metric "
                         "changes by more than PCT percent (absolute)")
    ap.add_argument("--ignore-metric", action="append", default=[],
                    metavar="KEY", dest="ignore_metrics",
                    help="metric name to report but never gate (repeatable); "
                         "for machine-dependent metrics like 'iterations'")
    ap.add_argument("--rss-tolerance", type=float, default=None, metavar="PCT",
                    help="exit nonzero if the current peak_rss_kb exceeds "
                         "the baseline's by more than PCT percent")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)

    for key in ("bench", "scale"):
        if base.get(key) != cur.get(key):
            sys.exit(f"refusing to compare: {key!r} differs "
                     f"({base.get(key)!r} vs {cur.get(key)!r})")
    if base.get("threads") != cur.get("threads"):
        print(f"note: thread counts differ ({base.get('threads')} vs "
              f"{cur.get('threads')}); results should still be bit-identical",
              file=sys.stderr)
    # Per-scale Centaur-vs-BGP wall-ratio notes (emitted by the fig8 bench)
    # are paired baseline-vs-current so the wall-time gap trend is readable
    # at a glance; wall time stays informational, never gated.  Other notes
    # print as-is.
    ratio_prefix = "centaur_vs_bgp_wall_ratio "
    ratios = {}
    for which, doc, path in (("baseline", base, args.baseline),
                             ("current", cur, args.current)):
        for note in doc.get("notes", []):
            if note.startswith(ratio_prefix):
                scale = note[len(ratio_prefix):].split(":", 1)[0]
                ratios.setdefault(scale, {})[which] = \
                    note[len(ratio_prefix):].split(":", 1)[1].strip()
            else:
                print(f"note [{path}]: {note}")
    for scale in sorted(ratios, key=lambda s: (len(s), s)):
        pair = ratios[scale]
        print(f"wall ratio (centaur/bgp, informational) {scale}: "
              f"baseline {pair.get('baseline', 'n/a')} -> "
              f"current {pair.get('current', 'n/a')}")

    base_trials = {t["name"]: t for t in base.get("trials", [])}
    cur_trials = {t["name"]: t for t in cur.get("trials", [])}

    rows = []          # (where, key, base, cur, delta) — gated comparisons
    informational = []  # same shape, not --tolerance gated (wall time, rss)
    missing = sorted(set(base_trials) - set(cur_trials))
    added = sorted(set(cur_trials) - set(base_trials))

    for name in sorted(set(base_trials) & set(cur_trials)):
        bt, ct = base_trials[name], cur_trials[name]
        informational.append(
            (name, "wall_time_s", bt["wall_time_s"], ct["wall_time_s"],
             pct_delta(bt["wall_time_s"], ct["wall_time_s"])))
        for key in GATED_COUNTERS:
            compare_row(rows, name, key, bt[key], ct[key])
        bm, cm = bt.get("metrics", {}), ct.get("metrics", {})
        for key in sorted(set(bm) & set(cm)):
            if key in args.ignore_metrics:
                informational.append(
                    (name, key + " (ignored)", bm[key], cm[key],
                     pct_delta(bm[key], cm[key])))
            else:
                compare_row(rows, name, key, bm[key], cm[key])

    for key in GATED_COUNTERS:
        compare_row(rows, "totals", key, base["totals"][key],
                    cur["totals"][key])
    informational.append(
        ("totals", "wall_time_s", base["totals"]["wall_time_s"],
         cur["totals"]["wall_time_s"],
         pct_delta(base["totals"]["wall_time_s"],
                   cur["totals"]["wall_time_s"])))
    informational.append(
        ("process", "peak_rss_kb", base.get("peak_rss_kb", 0),
         cur.get("peak_rss_kb", 0),
         pct_delta(base.get("peak_rss_kb", 0), cur.get("peak_rss_kb", 0))))

    width = max((len(f"{w}.{k}") for w, k, *_ in rows + informational),
                default=20)
    print(f"{'value':<{width}}  {'baseline':>14}  {'current':>14}  delta")
    for where, key, b, c, delta in rows + informational:
        tag = f"{where}.{key}"
        print(f"{tag:<{width}}  {fmt_val(b):>14}  {fmt_val(c):>14}  "
              f"{fmt_delta(delta)}")
    for name in missing:
        print(f"missing in current: trial {name!r}")
    for name in added:
        print(f"new in current: trial {name!r}")

    rss_grew = False
    if args.rss_tolerance is not None:
        base_rss = base.get("peak_rss_kb", 0)
        cur_rss = cur.get("peak_rss_kb", 0)
        if base_rss <= 0 or cur_rss <= 0:
            sys.exit("refusing to gate peak RSS: peak_rss_kb missing "
                     f"({base_rss} vs {cur_rss})")
        rss_delta = pct_delta(base_rss, cur_rss)
        rss_grew = rss_delta > args.rss_tolerance
        verdict = "FAIL" if rss_grew else "OK"
        print(f"\n{verdict}: peak_rss_kb {base_rss} -> {cur_rss} "
              f"({fmt_delta(rss_delta).strip()}, limit +{args.rss_tolerance}%)",
              file=sys.stderr if rss_grew else sys.stdout)

    if args.tolerance is None:
        return 1 if rss_grew else 0
    bad = [(w, k, d) for w, k, _, _, d in rows
           if d == float("inf") or (d is not None and abs(d) > args.tolerance)]
    if missing:
        bad.extend((name, "trial", None) for name in missing)
    if bad:
        print(f"\nFAIL: {len(bad)} value(s) beyond ±{args.tolerance}%:",
              file=sys.stderr)
        for where, key, delta in bad:
            shown = "missing" if delta is None else fmt_delta(delta).strip()
            print(f"  {where}.{key}: {shown}", file=sys.stderr)
        return 1
    print(f"\nOK: all gated values within ±{args.tolerance}%")
    return 1 if rss_grew else 0


if __name__ == "__main__":
    sys.exit(main())
