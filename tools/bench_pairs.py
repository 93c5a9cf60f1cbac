"""Run the benchmark on two checkouts in alternating pairs and summarize.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --pairs N --seconds S [--first-seed K] [--trace] [--out FILE]

Each checkout runs its own ``bench/run.py`` from its root, so each side
imports its own ``src/``.  Pair k runs both sides with seed
``first_seed + k``; the parent goes first in even pairs and the change in
odd ones, so a drift in host speed does not favour one side.  The script
refuses to run unless both checkouts hold the same ``bench/`` files
(``bench/out/`` and caches aside) and the same ``BENCHMARK.json``: the
two sides must be measured alike.

``--out`` (default ``BENCH.json``) gets one entry per workload, keyed by
its name (``W --trace`` for traced runs) and added to what the file
already holds.  An entry records the seeds, each side's ``src/`` line
count, and per metric of ``BENCHMARK.json`` (end to end, or per layer
with ``--trace``): each side's values, median and quartiles
(``statistics.quantiles(n=4)``), the ratio of the medians and the pairs
the change won, that is, where its value was better in the metric's
direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
SKIPPED = {"out", "__pycache__"}


def bench_files(root: Path) -> dict[str, bytes]:
    """The files that decide how a checkout is measured, by relative path."""
    files = {"BENCHMARK.json": (root / "BENCHMARK.json").read_bytes()}
    bench = root / "bench"
    for path in sorted(bench.rglob("*")):
        rel = path.relative_to(bench)
        if path.is_file() and not SKIPPED.intersection(rel.parts):
            files[f"bench/{rel.as_posix()}"] = path.read_bytes()
    return files


def src_lines(root: Path) -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def run_side(root: Path, workload: str, seed: int, seconds: float,
             trace: bool) -> dict:
    """One ``bench/run.py`` run; its last line of output, parsed."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"bench/run.py failed in {root} (seed {seed}):\n"
                         f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def compare(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's summary, the median ratio and the wins."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        sides = {s: [r[s]["metrics"][name]["value"] for r in runs]
                 for s in SIDES}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(sides["parent"], sides["change"]))
        entry = {"unit": m["unit"], "better": m["better"]}
        entry.update({s: summary(v) for s, v in sides.items()})
        base = entry["parent"]["median"]
        entry["ratio"] = entry["change"]["median"] / base if base else None
        entry["wins"] = wins
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true",
                        help="compare the per-layer metrics of traced runs")
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    files = {s: bench_files(r) for s, r in roots.items()}
    differ = sorted(k for k in files["parent"].keys() | files["change"].keys()
                    if files["parent"].get(k) != files["change"].get(k))
    if differ:
        print(f"the checkouts are not measured alike; these differ: "
              f"{', '.join(differ)}", file=sys.stderr)
        return 2

    spec = json.loads(files["parent"]["BENCHMARK.json"])
    seeds = [args.first_seed + k for k in range(args.pairs)]
    runs = []
    for k, seed in enumerate(seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        runs.append({s: run_side(roots[s], args.workload, seed,
                                 args.seconds, args.trace) for s in order})
    metrics = compare(runs, spec["per_layer" if args.trace else "end_to_end"])

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    key = f"{args.workload} --trace" if args.trace else args.workload
    doc.setdefault("workloads", {})[key] = {
        "seconds": args.seconds,
        "trace": args.trace,
        "seeds": seeds,
        "src_lines": {s: src_lines(r) for s, r in roots.items()},
        "runs": [{s: {k: r[s][k] for k in ("correct", "attempted", "failed")}
                  for s in SIDES} for r in runs],
        "metrics": metrics,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")

    for name, m in metrics.items():
        p, c = m["parent"], m["change"]
        ratio = f"{m['ratio']:.3f}x" if m["ratio"] is not None else "-"
        print(f"{name}: {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] -> "
              f"{c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] {m['unit']} "
              f"({ratio}, {m['wins']}/{args.pairs})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
