#!/usr/bin/env python3
"""Bench-regression gate over the BENCH_*.json files.

Compares freshly produced bench JSONs (see bench/README.md for the schema)
against the checked-in snapshots under bench/baselines/ and fails when any
entry's median regresses beyond the threshold. Entries are join-keyed by
(figure, name, params); the `git` stamp is informational and ignored, and
the `host` stamp (CPU count and model) is printed per figure, current vs
baseline, but never gated.

Design choices, tuned for a CI gate rather than a lab notebook:

  * smoke flags must match — a smoke run is never compared against a
    full-size baseline (the instances differ by construction);
  * entries where baseline and current both sit under the --min-ms noise
    floor are reported but never fail the gate: sub-millisecond medians on
    shared CI runners are noise (a tiny entry that balloons past the floor
    is still gated);
  * entries missing from the baseline (new benches) warn instead of fail,
    so adding a bench does not require touching the gate; --strict upgrades
    every warning to a failure;
  * measured `extras` present in both runs are gated too, not just the
    median: latency extras (keys ending in `_ms`, e.g. p50_ms/p99_ms) fail
    when they grow past the threshold, with the same noise floor as
    medians; throughput extras (`ops_per_sec`) fail when they *drop* past
    the threshold — this is how the multi-client scaling of the service
    stress bench is held, per machine class, without hardcoding a speedup
    a 1-core runner could never reproduce. Extras present on only one side
    are informational (schema evolution must not fail the gate) — but a
    *gateable* extra (`_ms` / `ops_per_sec`) missing from the baseline is
    surfaced as a warning, once per figure and key, instead of being
    silently skipped: an ungated measurement should be a visible state,
    cleared by refreshing the baseline with --update;
  * --update rewrites the baseline files from the current JSONs — the
    documented refresh workflow after an intentional perf change.

Usage (from the build directory, after the smoke bench step):

    python3 ../bench/check_regression.py --baseline-dir ../bench/baselines \
        BENCH_*.json

Exit status: 0 = no regression, 1 = regression (or warning under
--strict), 2 = usage/parse error.
"""

import argparse
import json
import os
import shutil
import sys

DEFAULT_THRESHOLD = 0.25  # fail on >25% median regression
DEFAULT_MIN_MS = 5.0


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def entry_key(entry):
    """Stable join key: name plus the sorted numeric params."""
    params = entry.get("params", {})
    return (entry.get("name", "?"),
            tuple(sorted((k, float(v)) for k, v in params.items())))


def fmt_key(key):
    name, params = key
    inner = ", ".join(f"{k}={v:g}" for k, v in params)
    return f"{name}({inner})" if inner else name


def fmt_host(doc):
    """`nproc=N cpu="model"` from a BENCH JSON's host stamp."""
    host = (doc or {}).get("host") or {}
    return (f"nproc={host.get('nproc', 'unknown')} "
            f"cpu=\"{host.get('cpu_model', 'unknown')}\"")


def compare_extras(label, figure, entry, base, args, seen_ungated):
    """Gates the measured extras shared by both runs.

    Returns (regressions, warnings) for one entry. Latency extras (keys
    ending in `_ms`) regress upward and respect the --min-ms noise floor;
    throughput extras (`ops_per_sec`) regress downward and have no floor
    (an absolute rate is already an average over many ops). A gateable
    extra present in the current run but absent from the baseline warns
    once per (figure, key) — recorded in `seen_ungated` — so a new
    measurement is visibly informational rather than silently skipped.
    """
    regressions, warnings = [], []
    cur_extras = entry.get("extras", {}) or {}
    base_extras = base.get("extras", {}) or {}
    for key in sorted(set(cur_extras) - set(base_extras)):
        if not key.endswith("_ms") and key != "ops_per_sec":
            continue
        if (figure, key) not in seen_ungated:
            seen_ungated.add((figure, key))
            warnings.append(
                f"{figure}.{key}: gateable extra not in baseline — "
                f"informational until the baseline is refreshed (--update)")
    for key in sorted(set(cur_extras) & set(base_extras)):
        # Only measured performance extras are gated; counters and sizes
        # (graveyard_size, live_generations, ...) stay informational.
        if not key.endswith("_ms") and key != "ops_per_sec":
            continue
        try:
            cur = float(cur_extras[key])
            base_v = float(base_extras[key])
        except (TypeError, ValueError):
            warnings.append(f"{label}.{key}: non-numeric extra — skipped")
            continue
        if base_v <= 0.0:
            warnings.append(f"{label}.{key}: baseline is {base_v} — skipped")
            continue
        ratio = cur / base_v
        if key.endswith("_ms"):
            verdict = f"{base_v:.3f} -> {cur:.3f} ms ({ratio - 1.0:+.1%})"
            if base_v < args.min_ms and cur < args.min_ms:
                if ratio > 1.0 + args.threshold:
                    warnings.append(
                        f"{label}.{key}: {verdict} — under the "
                        f"{args.min_ms}ms noise floor, not gated")
                continue
            if ratio > 1.0 + args.threshold:
                regressions.append(f"{label}.{key}: REGRESSION {verdict}")
        elif key == "ops_per_sec":
            verdict = f"{base_v:.0f} -> {cur:.0f} ops/s ({ratio - 1.0:+.1%})"
            if ratio < 1.0 - args.threshold:
                regressions.append(f"{label}.{key}: REGRESSION {verdict}")
            elif ratio > 1.0 + args.threshold:
                print(f"  improvement  {label}.{key}: {verdict}")
        # Other extras (occupancy counters, sizes, ...) are informational.
    return regressions, warnings


def compare_file(current_path, baseline_path, args):
    """Returns (regressions, warnings) message lists for one figure."""
    current = load(current_path)
    figure = current.get("figure", os.path.basename(current_path))
    baseline = (load(baseline_path) if os.path.exists(baseline_path)
                else None)
    # Which machines the two sides ran on; informational, never gated.
    print(f"  host:        {figure}: {fmt_host(current)} vs baseline "
          f"{fmt_host(baseline)}")
    if baseline is None:
        return [], [f"{figure}: no baseline at {baseline_path} "
                    f"(new bench? seed it with --update)"]

    regressions, warnings = [], []
    if bool(current.get("smoke")) != bool(baseline.get("smoke")):
        # Different instance scales are incomparable by construction.
        return [], [f"{figure}: smoke={current.get('smoke')} vs baseline "
                    f"smoke={baseline.get('smoke')} — skipped (never mix "
                    f"smoke and full-size runs)"]

    base_entries = {entry_key(e): e for e in baseline.get("entries", [])}
    seen_ungated = set()
    for entry in current.get("entries", []):
        key = entry_key(entry)
        base = base_entries.pop(key, None)
        label = f"{figure}:{fmt_key(key)}"
        if base is None:
            warnings.append(f"{label}: not in baseline (new entry)")
            continue
        cur_ms = float(entry.get("median_ms", 0.0))
        base_ms = float(base.get("median_ms", 0.0))
        if base_ms <= 0.0:
            warnings.append(f"{label}: baseline median is {base_ms} — skipped")
            continue
        ratio = cur_ms / base_ms
        verdict = f"{base_ms:.3f} -> {cur_ms:.3f} ms ({ratio - 1.0:+.1%})"
        extra_regs, extra_warns = compare_extras(label, figure, entry, base,
                                                 args, seen_ungated)
        regressions.extend(extra_regs)
        warnings.extend(extra_warns)
        if base_ms < args.min_ms and cur_ms < args.min_ms:
            if ratio > 1.0 + args.threshold:
                warnings.append(
                    f"{label}: {verdict} — under the {args.min_ms}ms noise "
                    f"floor, not gated")
            continue
        if ratio > 1.0 + args.threshold:
            regressions.append(f"{label}: REGRESSION {verdict}")
        elif ratio < 1.0 - args.threshold:
            print(f"  improvement  {label}: {verdict}")
        else:
            print(f"  ok           {label}: {verdict}")
    for key in base_entries:
        warnings.append(
            f"{figure}:{fmt_key(key)}: in baseline but missing from the "
            f"current run")
    return regressions, warnings


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("jsons", nargs="+", metavar="BENCH_*.json",
                        help="freshly produced bench JSON files")
    parser.add_argument("--baseline-dir", default="bench/baselines",
                        help="directory holding the checked-in snapshots")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="fail when median_ms grows by more than this "
                             "fraction (default %(default)s)")
    parser.add_argument("--min-ms", type=float, default=DEFAULT_MIN_MS,
                        help="baseline medians below this are noise, never "
                             "gated (default %(default)s)")
    parser.add_argument("--strict", action="store_true",
                        help="treat warnings (missing baselines/entries) as "
                             "failures")
    parser.add_argument("--update", action="store_true",
                        help="copy the current JSONs over the baselines "
                             "instead of comparing")
    args = parser.parse_args()

    if args.update:
        os.makedirs(args.baseline_dir, exist_ok=True)
        for path in args.jsons:
            dest = os.path.join(args.baseline_dir, os.path.basename(path))
            shutil.copyfile(path, dest)
            print(f"baseline updated: {dest}")
        return 0

    all_regressions, all_warnings = [], []
    for path in args.jsons:
        baseline_path = os.path.join(args.baseline_dir,
                                     os.path.basename(path))
        regressions, warnings = compare_file(path, baseline_path, args)
        all_regressions.extend(regressions)
        all_warnings.extend(warnings)

    for msg in all_warnings:
        print(f"  warning      {msg}")
    for msg in all_regressions:
        print(f"  FAIL         {msg}")
    if all_regressions or (args.strict and all_warnings):
        print(f"\nbench-regression gate: FAILED "
              f"({len(all_regressions)} regression(s), "
              f"{len(all_warnings)} warning(s), "
              f"threshold {args.threshold:.0%})")
        return 1
    print(f"\nbench-regression gate: OK ({len(all_warnings)} warning(s), "
          f"threshold {args.threshold:.0%}, noise floor {args.min_ms}ms)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
