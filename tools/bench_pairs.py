"""Alternating parent/change runs of the benchmark, with claim and bound verdicts.

    python3 tools/bench_pairs.py --parent ../parent --change . --pairs 10 \\
        --seconds 25 --workloads train-toy eval-128 [--out BENCH_name.json]

Pair i (1-based) runs seed i in both checkouts, one run at a time, with the
command from the change's BENCHMARK.json: the parent goes first on odd seeds
and the change first on even ones. For each workload and end-to-end metric it
prints both sides' quartiles, the pairs the change won (ties count for
neither) and two verdicts. "claim" holds when at least 10 pairs ran, the
change won at least 9 of every 10 and the medians are further apart than
the parent's inter-quartile range. "bound" is "ok" when the change's median is no worse
than the parent's by more than the metric's BENCHMARK.json bound, "NO" when
it is, and "unresolved" when it is within but the parent's own spread is
wider than the bound and not every change run beat every parent run. It also
reports in how many pairs the two sides printed the same `sha256` lines.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from pathlib import Path


def quartiles(xs: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return {"q1": q1, "median": med, "q3": q3, "runs": list(xs)}


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Per-pair and median verdicts for one metric (runs in pair order)."""
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p, c = quartiles(parent), quartiles(change)
    iqr = p["q3"] - p["q1"]
    gain = sign * (p["median"] - c["median"])  # > 0: the change is better
    base = abs(p["median"]) or 1.0
    within = -gain <= bound * base
    every = all(sign * (pp - cc) > 0 for pp in parent for cc in change)
    return {"parent": p, "change": c, "change_better": won, "pairs": len(parent),
            "median_change_pct": 100.0 * (c["median"] - p["median"]) / base,
            "claim_resolves": len(parent) >= 10 and 10 * won >= 9 * len(parent) and gain > iqr,
            "within_bound": "NO" if not within else
            "unresolved" if iqr > bound * base and not every else "ok"}


def run(checkout: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{checkout}: {' '.join(argv)} exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    saved = checkout / ".perfbench_work" / "results" / f"{workload}-seed{seed}-trace0.json"
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "failed": result["failed"],
            "digests": sorted(line for line in lines if line.startswith("sha256 ")),
            "env": json.loads(saved.read_text())["environment"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=Path, help="write the results as a BENCH_*.json file")
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    report = {"name": args.out.stem.removeprefix("BENCH_") if args.out else None,
              "command": " ".join(spec["command"]) +
              f" --workload <W> --seed <S> --seconds {args.seconds:g} --trace 0",
              "protocol": "each tree in its own directory; one run at a time; pair i runs "
              "seed i, parent first on odd seeds and change first on even seeds; medians "
              "and quartiles are over the per-run values; 'change_better' counts pairs "
              "the change won, ties counting for neither",
              "environment": None, "workloads": {}}
    for wl in args.workloads:
        sides: dict[str, list[dict]] = {"parent": [], "change": []}
        for seed in range(1, args.pairs + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                sides[side].append(run(getattr(args, side), spec["command"], wl, seed,
                                       args.seconds))
        report["environment"] = sides["change"][0]["env"]
        same = sum(p["digests"] == c["digests"] for p, c in zip(sides["parent"], sides["change"]))
        rows = {m["name"]: compare([r["metrics"][m["name"]] for r in sides["parent"]],
                                   [r["metrics"][m["name"]] for r in sides["change"]],
                                   m["better"], m["bound"]) for m in spec["end_to_end"]}
        report["workloads"][wl] = {"pairs": args.pairs, "seeds": list(range(1, args.pairs + 1)),
                                   "digests_equal_pairs": same,
                                   "failed_runs": sum(r["failed"] > 0 for s in sides.values()
                                                      for r in s),
                                   "metrics": rows}
        print(f"{wl}: sha256 lines equal in {same} of {args.pairs} pairs")
        for name, r in rows.items():
            p, c = r["parent"], r["change"]
            print(f"  {name:12s} parent {p['q1']:.4g}/{p['median']:.4g}/{p['q3']:.4g}  "
                  f"change {c['q1']:.4g}/{c['median']:.4g}/{c['q3']:.4g}  "
                  f"won {r['change_better']}/{r['pairs']}  {r['median_change_pct']:+.1f}%  "
                  f"claim {'resolves' if r['claim_resolves'] else 'no'}  "
                  f"bound {r['within_bound']}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
