#!/usr/bin/env python3
"""Runs interleaved perfbench pairs of a parent and a change checkout and
appends one ledger row per workload to BENCH_perfbench.json.

    python3 tools/perfbench_pairs.py --parent DIR --change DIR \\
        --workload fig_grid --pairs 10 --first-seed 300 \\
        [--per-layer NAME[,NAME...]] \\
        [--parent-label L] [--change-label L] [--out FILE]

Both checkouts must be full source trees with perfbench/run.py. Each side
is built and smoke-run for 1 s first (not recorded). Pair i then runs
`perfbench/run.py --workload W --seed <first-seed + i> --seconds S
--trace 0` in both checkouts, parent first on even i and change first on
odd i, so host drift falls on both sides alike; S is BENCHMARK.json's
run_seconds (read from the change checkout, like its end-to-end metrics).
Every run must report "correct": true and "failed": 0, or the script
exits 1 and writes nothing.

For each end-to-end metric the row records each side's q1/median/q3 over
the pairs, the number of pairs in which the change is strictly better and
the number in which both values are exactly equal. Quartiles are
statistics.quantiles(..., n=4, method="inclusive"). It also records the
benchmark gate's check: "worse_by", the change median's relative
worsening against the parent median (negative when better, null when the
parent median is 0 and the change's is not), the metric's "bound" from
BENCHMARK.json, and "gate", one of "better", "within bound", "over bound",
or "unresolved" when the parent's quartile spread, (q3 - q1) / median,
exceeds the bound. A metric worse by more than half its bound prints a
warning line.

--per-layer names metrics of BENCHMARK.json's per_layer list. After the
untraced pairs the script then runs as many traced pairs (`--trace 1`,
TRACED_SECONDS long, same seeds, same alternation) and records the same
statistics for each named metric under the row's "per_layer" key, with
the traced run length in "per_layer_seconds". One traced run per side
cannot show a per-layer shift: the spread between runs of the same tree is
as wide as the shifts these metrics are read for.

A side's label is its `git rev-parse --short HEAD` when the checkout
matches HEAD. Otherwise (tracked files edited, or untracked files git does
not ignore) it is `<HEAD>+<tree>`, <tree> being the first 12 hex digits
of the id `git add -A && git write-tree` would print there: the tree of
any commit of exactly the measured files (`git log --format='%h %t'`).
A checkout without git needs an explicit label.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = "mrts-perfbench-ledger-v1"
TRACED_SECONDS = 12


def fail(message):
    print("perfbench_pairs: " + message, file=sys.stderr)
    sys.exit(1)


def git_label(checkout):
    def git(*args, env=None):
        return subprocess.run(["git", "-C", checkout, *args],
                              capture_output=True, text=True, env=env)
    # A plain copy nested in another repository must not take its label.
    top = git("rev-parse", "--show-toplevel")
    if top.returncode != 0 or (os.path.realpath(top.stdout.strip()) !=
                               os.path.realpath(checkout)):
        return None
    head = git("rev-parse", "--short", "HEAD")
    if head.returncode != 0:
        return None
    # Stage the whole checkout into a scratch index that starts from HEAD
    # (so tracked files stay tracked even where .gitignore matches them),
    # leaving the real index alone, and name the tree it would commit.
    with tempfile.TemporaryDirectory() as scratch:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(scratch, "index"))
        staged = git("read-tree", "HEAD", env=env)
        if staged.returncode == 0:
            staged = git("add", "-A", env=env)
        tree = git("write-tree", env=env)
    if staged.returncode != 0 or tree.returncode != 0:
        fail("%s: cannot hash the checkout: %s" %
             (checkout, (staged.stderr + tree.stderr).strip()))
    tree = tree.stdout.strip()
    if tree == git("rev-parse", "HEAD^{tree}").stdout.strip():
        return head.stdout.strip()
    return head.stdout.strip() + "+" + tree[:12]


def run_once(checkout, workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=checkout)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        fail("%s: run.py exited with code %d" % (checkout, proc.returncode))
    result = json.loads(lines[-1])
    if result.get("correct") is not True or result.get("failed") != 0:
        fail("%s seed %d: correct=%s failed=%s" %
             (checkout, seed, result.get("correct"), result.get("failed")))
    return result["metrics"]


def quartiles(values):
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def run_pairs(sides, workload, seeds, seconds, trace):
    """Runs one interleaved pair per seed; returns each side's metrics."""
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side]["checkout"], workload,
                                       seed, seconds, trace))
        print("%s pair %d/%d (seed %d) done" %
              ("traced" if trace else "untraced", i + 1, len(seeds), seed),
              file=sys.stderr)
    return runs


def compare(metrics, runs):
    """Quartiles, wins and ties of each metric over the pairs."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        parent = [m[name]["value"] for m in runs["parent"]]
        change = [m[name]["value"] for m in runs["change"]]
        lower = metric["better"] == "lower"
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": quartiles(parent),
            "change": quartiles(change),
            "change_wins": sum(1 for p, c in zip(parent, change)
                               if (c < p if lower else c > p)),
            "change_ties": sum(1 for p, c in zip(parent, change) if c == p),
        }
    return out


def gate(metric, row):
    """Adds the gate's check of one end-to-end metric to its row."""
    parent, change = row["parent"], row["change"]
    bound = metric["bound"]
    base = parent["median"]
    if base == 0:
        worse_by = 0.0 if change["median"] == 0 else None
        spread = 0.0 if parent["q3"] == parent["q1"] else float("inf")
    else:
        lower = metric["better"] == "lower"
        worse_by = ((change["median"] - base) if lower else
                    (base - change["median"])) / abs(base)
        spread = (parent["q3"] - parent["q1"]) / abs(base)
    if spread > bound:
        verdict = "unresolved"
    elif worse_by is None:
        verdict = "over bound"
    elif worse_by < 0:
        verdict = "better"
    elif worse_by <= bound:
        verdict = "within bound"
    else:
        verdict = "over bound"
    row["worse_by"] = worse_by
    row["bound"] = bound
    row["gate"] = verdict


def print_rows(rows, pairs):
    for name, m in rows.items():
        line = ("%-30s parent %12.6g  change %12.6g  wins %d ties %d /%d" %
                (name, m["parent"]["median"], m["change"]["median"],
                 m["change_wins"], m["change_ties"], pairs))
        if "gate" not in m:  # per-layer metrics have no bound
            print(line)
            continue
        worse = m["worse_by"]
        check = "worse_by %s, bound %g%%: %s" % (
            "n/a" if worse is None else "%+.1f%%" % (100 * worse),
            100 * m["bound"], m["gate"])
        print(line + "  " + check)
        if worse is None or worse > m["bound"] / 2:
            print("warning: %s is past half its bound (%s)" % (name, check),
                  file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--per-layer", default="",
                        metavar="NAME[,NAME...]")
    parser.add_argument("--parent-label")
    parser.add_argument("--change-label")
    parser.add_argument("--out", default=os.path.join(ROOT,
                                                      "BENCH_perfbench.json"))
    args = parser.parse_args()
    if args.pairs < 1 or args.first_seed < 0:
        fail("--pairs must be >= 1 and --first-seed >= 0")

    sides = {}
    for side in ("parent", "change"):
        checkout = os.path.abspath(getattr(args, side))
        label = getattr(args, side + "_label") or git_label(checkout)
        if label is None:
            fail("%s is not a git checkout: pass --%s-label" % (checkout, side))
        sides[side] = {"checkout": checkout, "label": label}

    with open(os.path.join(sides["change"]["checkout"],
                           "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    end_to_end = benchmark["end_to_end"]
    seconds = benchmark["run_seconds"]
    known = {m["name"]: m for m in benchmark.get("per_layer", [])}
    per_layer = []
    for name in filter(None, args.per_layer.split(",")):
        if name not in known:
            fail("--per-layer: %s is not in BENCHMARK.json's per_layer list"
                 % name)
        per_layer.append(known[name])

    for side in sides.values():  # build, and check the workload runs
        run_once(side["checkout"], args.workload, args.first_seed, 1)

    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    row_metrics = compare(end_to_end,
                          run_pairs(sides, args.workload, seeds, seconds, 0))
    for metric in end_to_end:
        gate(metric, row_metrics[metric["name"]])
    layer_metrics = None
    if per_layer:
        layer_metrics = compare(per_layer,
                                run_pairs(sides, args.workload, seeds,
                                          TRACED_SECONDS, 1))

    row = {
        "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "workload": args.workload,
        "parent": sides["parent"]["label"],
        "change": sides["change"]["label"],
        "pairs": args.pairs,
        "seconds": seconds,
        "seeds": seeds,
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "metrics": row_metrics,
    }
    if layer_metrics is not None:
        row["per_layer_seconds"] = TRACED_SECONDS
        row["per_layer"] = layer_metrics
    ledger = {"schema": SCHEMA, "rows": []}
    if os.path.exists(args.out):
        with open(args.out) as f:
            ledger = json.load(f)
        if ledger.get("schema") != SCHEMA:
            fail("%s: unknown schema %r" % (args.out, ledger.get("schema")))
    ledger["rows"].append(row)
    with open(args.out, "w") as f:
        json.dump(ledger, f, indent=2)
        f.write("\n")
    print_rows(row_metrics, args.pairs)
    if layer_metrics is not None:
        print_rows(layer_metrics, args.pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
