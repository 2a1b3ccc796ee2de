"""Record, compare and check benchmark runs of perfbench as BENCH_*.json files.

Usage, from the root of a source checkout:

    python3 tools/bench_record.py record --workload W \\
        [--seeds 1,2,3,4,5,6] LABEL[=DIR] [LABEL[=DIR] ...]
    python3 tools/bench_record.py compare BASE_LABEL NEW_LABEL
    python3 tools/bench_record.py check bench/BENCH_*.json

``record`` runs ``python3 perfbench/run.py --workload W --seed S --seconds
20`` once per seed in each labelled checkout DIR (default: this one),
reads the JSON object on the last line of each run, and writes
``bench/BENCH_<LABEL>_<W>.json`` per label: every record with its seed and
its turn (0 for the checkout that ran first on that seed), the median and
quartiles of each end-to-end metric, the failed-operation share, the
checkout's git SHA, the Python and NumPy versions, the core count and the
seeds.  With several checkouts it runs them in turn, seed by seed, and the
n-th seed starts with the checkout n places along the list: for a parent
and a change, the side that runs first swaps on each seed, so that slow
drift of the host falls on both sides alike.

``compare`` prints, for each workload recorded under both labels and each
end-to-end metric, the median change, the share of runs (paired by seed)
that moved the same way, the pairs the new label won (a tie wins for
neither side but counts as a pair), and whether the change is within the
metric's bound in ``BENCHMARK.json``; a change for the better always is.
It also says whether the new label shows a gain by the rule of at least
nine tenths of the pairs won and a median that moves the better way by
more than the base's quartile distance, (q3 - q1) / median of the base.
It exits 1 when no workload is recorded under both labels.

``check`` validates the files' schema, at least ``MIN_RUNS`` runs per file,
and the SHA and versions, and refuses a record with ``git_dirty`` true,
which does not measure the commit it names; it exits 1 on the first file
that fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench")
SECONDS = 20
MIN_RUNS = 6
SCHEMA = 1


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _path(label, workload):
    return os.path.join(BENCH_DIR, f"BENCH_{label}_{workload}.json")


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _git(checkout, *args):
    return subprocess.run(["git", "-C", checkout, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _side(text):
    """LABEL or LABEL=DIR: a label and its checkout, by default this one."""
    label, _, checkout = text.partition("=")
    return label, os.path.abspath(checkout or ROOT)


def _run(workload, seed, checkout):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS)]
    out = subprocess.run(cmd, cwd=checkout, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def record(args):
    import numpy as np

    sides = [_side(s) for s in args.sides]
    seeds = [int(s) for s in args.seeds.split(",")]
    runs = {label: [] for label, _ in sides}
    if len(runs) < len(sides):
        raise SystemExit("record: each label names one checkout")
    for i, seed in enumerate(seeds):
        # seed i starts with side i mod n: with two sides, the one that
        # runs first swaps on each seed
        for turn, (label, checkout) in enumerate(
                sides[i % len(sides):] + sides[:i % len(sides)]):
            rec = _run(args.workload, seed, checkout)
            runs[label].append({"seed": seed, "turn": turn, **rec})
            print(f"{label} {args.workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in rec["metrics"].items()),
                flush=True)

    names = [m["name"] for m in _spec()["end_to_end"]]
    os.makedirs(BENCH_DIR, exist_ok=True)
    for label, checkout in sides:
        doc = {
            "schema": SCHEMA,
            "label": label,
            "workload": args.workload,
            "git_sha": _git(checkout, "rev-parse", "HEAD"),
            "git_dirty": bool(_git(checkout, "status", "--porcelain",
                                   "--untracked-files=no")),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "seconds": SECONDS,
            "seeds": seeds,
            "summary": {name: _quartiles([r["metrics"][name]["value"]
                                          for r in runs[label]])
                        for name in names},
            "failed_share": sum(r["failed"] for r in runs[label])
            / max(1, sum(r["attempted"] for r in runs[label])),
            "runs": runs[label],
        }
        with open(_path(label, args.workload), "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    return 0


def compare(args):
    spec = _spec()
    compared = 0
    for wl in (w["name"] for w in spec["workloads"]):
        if not all(os.path.exists(_path(lb, wl))
                   for lb in (args.base, args.new)):
            continue
        compared += 1
        base, new = (json.load(open(_path(lb, wl)))
                     for lb in (args.base, args.new))
        print(f"{wl}: {args.base} ({base['git_sha'][:7]}, {len(base['runs'])}"
              f" runs) -> {args.new} ({new['git_sha'][:7]}, "
              f"{len(new['runs'])} runs)")
        pairs = [(b, n) for b in base["runs"] for n in new["runs"]
                 if b["seed"] == n["seed"]]
        for m in spec["end_to_end"]:
            name, sign = m["name"], 1 if m["better"] == "lower" else -1
            b_sum = base["summary"][name]
            b_med = b_sum["median"]
            change = new["summary"][name]["median"] / b_med - 1.0
            moved = [n["metrics"][name]["value"] - b["metrics"][name]["value"]
                     for b, n in pairs]
            same = sum(d * change > 0 for d in moved) / max(1, len(moved))
            won = sum(sign * d < 0 for d in moved)
            spread = (b_sum["q3"] - b_sum["q1"]) / b_med
            gain = moved and 10 * won >= 9 * len(moved) \
                and -sign * change > spread
            ok = sign * change <= m["bound"]
            print(f"  {name:13s} {b_med:10.4g} -> "
                  f"{new['summary'][name]['median']:10.4g} {m['unit']:5s} "
                  f"{100 * change:+6.1f} %  same way in {100 * same:3.0f} % "
                  f"of {len(moved)} pairs, won {won}  "
                  f"{'within' if ok else 'OUTSIDE'} bound {m['bound']:g}  "
                  f"{'gain' if gain else 'no gain'} (spread "
                  f"{100 * spread:.1f} %)")
        print(f"  failed share  {base['failed_share']:.4f} -> "
              f"{new['failed_share']:.4f}")
    if not compared:
        print(f"no workload is recorded under both {args.base} and "
              f"{args.new}")
    return 0 if compared else 1


def _problems(doc, names):
    """What is wrong with one BENCH document, as a list of messages."""
    need = {"schema", "label", "workload", "git_sha", "python", "numpy",
            "cpu_count", "seeds", "summary", "failed_share", "runs"}
    missing = need - doc.keys()
    if missing:
        return [f"missing keys {sorted(missing)}"]
    bad = []
    if doc["schema"] != SCHEMA:
        bad.append(f"schema {doc['schema']}, expected {SCHEMA}")
    sha = doc["git_sha"]
    if len(sha) != 40 or any(c not in "0123456789abcdef" for c in sha):
        bad.append(f"git_sha {sha!r} is not a full SHA")
    if doc.get("git_dirty"):
        bad.append("git_dirty: the checkout had uncommitted changes, so the "
                   "record does not measure the commit it names")
    if not (doc["python"] and doc["numpy"] and doc["cpu_count"]):
        bad.append("python, numpy or cpu_count is empty")
    runs = doc["runs"]
    if len(runs) < MIN_RUNS:
        bad.append(f"{len(runs)} runs, need at least {MIN_RUNS}")
    if sorted(r.get("seed") for r in runs) != sorted(doc["seeds"]):
        bad.append("the runs' seeds are not the recorded seeds")
    for name in names:
        if set(doc["summary"].get(name, {})) != {"median", "q1", "q3"}:
            bad.append(f"summary of {name} lacks median or quartiles")
        if any(name not in r.get("metrics", {}) for r in runs):
            bad.append(f"a run lacks {name}")
    return bad


def check(args):
    names = [m["name"] for m in _spec()["end_to_end"]]
    for path in args.files:
        with open(path) as f:
            bad = _problems(json.load(f), names)
        if bad:
            print(f"{path}: " + "; ".join(bad))
            return 1
        print(f"{path}: ok")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    sp = sub.add_parser("record", help="run perfbench and write a BENCH "
                        "file per label")
    sp.add_argument("--workload", required=True,
                    choices=[w["name"] for w in _spec()["workloads"]])
    sp.add_argument("--seeds", default="1,2,3,4,5,6")
    sp.add_argument("sides", nargs="+", metavar="LABEL[=DIR]",
                    help="a label and its checkout (default: this one)")
    sp.set_defaults(run=record)
    sp = sub.add_parser("compare", help="compare two labels' BENCH files")
    sp.add_argument("base")
    sp.add_argument("new")
    sp.set_defaults(run=compare)
    sp = sub.add_parser("check", help="validate BENCH files")
    sp.add_argument("files", nargs="+")
    sp.set_defaults(run=check)
    args = ap.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
