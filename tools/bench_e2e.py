#!/usr/bin/env python3
"""Regenerates BENCH_e2e.json: whole-bench wall times for the two heaviest
figure benches with the simulator fast path off (--no-bb-cache, the
per-event frame loop) vs on (the shipping default).

Run from the repo root with a release build in build/:

    python3 tools/bench_e2e.py [--samples N] [--build DIR] [--out FILE]

Both modes must produce byte-identical CSVs; this script asserts that on
every sample before recording the timing. Each bench's "before" is the
cache_on_s of the BENCH_e2e.json committed at HEAD (the file on disk when
git is unavailable), read before anything is written, so every regenerated
file states its gain over the previous one. Absolute seconds are
machine-dependent — the tracked quantity is the speedup trajectory (see
docs/BENCHMARKS.md, schema mrts-e2e-bench-v2).
"""

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

BENCHES = {
    "fig8_state_of_the_art": "bench_fig8_state_of_the_art",
    "fig9_heuristic_vs_optimal": "bench_fig9_heuristic_vs_optimal",
}
FRAMES = 16  # the committed file uses the full-size workload; CI shrinks
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMITTED = "BENCH_e2e.json"


def committed_cache_on():
    """cache_on_s per bench of the committed BENCH_e2e.json, or {} when
    there is none or it was measured on another configuration."""
    try:
        text = subprocess.run(["git", "-C", ROOT, "show", "HEAD:" + COMMITTED],
                              check=True, capture_output=True,
                              text=True).stdout
    except (OSError, subprocess.CalledProcessError):
        try:
            with open(os.path.join(ROOT, COMMITTED)) as f:
                text = f.read()
        except OSError:
            return {}
    before = json.loads(text)
    if before.get("frames") != FRAMES:
        return {}
    return {name: entry["cache_on_s"]
            for name, entry in before.get("benches", {}).items()}


def run_once(binary, workdir, no_bb_cache, frames):
    """Runs one bench in workdir; returns (wall_seconds, csv_paths)."""
    cmd = [binary]
    if no_bb_cache:
        cmd.append("--no-bb-cache")
    env = dict(os.environ)
    env.pop("MRTS_NO_BB_CACHE", None)
    env["MRTS_BENCH_FRAMES"] = str(frames)
    start = time.monotonic()
    subprocess.run(cmd, cwd=workdir, env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    elapsed = time.monotonic() - start
    csvs = sorted(f for f in os.listdir(workdir) if f.endswith(".csv"))
    return elapsed, csvs


def bench_times(binary, samples, frames):
    """Best-of-N wall seconds for both modes, asserting CSV identity."""
    best = {"off": float("inf"), "on": float("inf")}
    with tempfile.TemporaryDirectory() as tmp:
        ref_dir = os.path.join(tmp, "ref")
        os.makedirs(ref_dir)
        ref_csvs = None
        for _ in range(samples):
            for mode, no_cache in (("off", True), ("on", False)):
                work = os.path.join(tmp, "work")
                os.makedirs(work)
                try:
                    elapsed, csvs = run_once(binary, work, no_cache, frames)
                    if not csvs:
                        sys.exit(f"{binary}: produced no CSV")
                    if ref_csvs is None:
                        ref_csvs = csvs
                        for f in csvs:
                            shutil.copy(os.path.join(work, f), ref_dir)
                    else:
                        if csvs != ref_csvs:
                            sys.exit(f"{binary}: CSV set changed: {csvs}")
                        for f in csvs:
                            if not filecmp.cmp(os.path.join(work, f),
                                               os.path.join(ref_dir, f),
                                               shallow=False):
                                sys.exit(f"{binary}: {f} differs between "
                                         "cache-on and cache-off runs")
                    best[mode] = min(best[mode], elapsed)
                finally:
                    shutil.rmtree(work)
    return best["off"], best["on"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=5)
    ap.add_argument("--frames", type=int, default=FRAMES)
    ap.add_argument("--build", default="build")
    ap.add_argument("--out", default="BENCH_e2e.json")
    args = ap.parse_args()

    before = committed_cache_on()
    result = {
        "schema": "mrts-e2e-bench-v2",
        "unit": "seconds",
        "frames": args.frames,
        "samples": args.samples,
        "benches": {},
    }
    for name, binary in BENCHES.items():
        path = os.path.join(args.build, "bench", binary)
        if not os.path.exists(path):
            sys.exit(f"missing {path} — build the benches first")
        off_s, on_s = bench_times(os.path.abspath(path), args.samples,
                                  args.frames)
        entry = {
            "cache_off_s": round(off_s, 3),
            "cache_on_s": round(on_s, 3),
            "speedup": round(off_s / on_s, 2),
        }
        if args.frames == FRAMES and name in before:
            entry["before_s"] = before[name]
            entry["speedup_vs_before"] = round(before[name] / on_s, 2)
        result["benches"][name] = entry
        print(f"{name}: cache-off {off_s:.3f}s, cache-on {on_s:.3f}s, "
              f"{off_s / on_s:.2f}x", file=sys.stderr)

    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
