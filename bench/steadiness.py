#!/usr/bin/env python3
"""Steadiness report: repeat ``run.py`` over seeds and summarise the spread.

    python3 bench/steadiness.py --workload verify --seeds 1-10 [--seconds 19]

For each end-to-end metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(Q3 - Q1) / median``, next to the metric's bound from BENCHMARK.json.
A later change whose effect is smaller than the spread is unresolved, not
unchanged.  Runs are sequential; each one is waited for.  The raw results
go to ``.bench_run/steadiness-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    # uncalibrated timings, to show what the calibration removes
    result["raw"] = {
        parts[1][len("raw_"):]: float(parts[2])
        for parts in (line.split() for line in lines)
        if len(parts) > 2 and parts[0] == "report" and parts[1].startswith("raw_")
    }
    for line in lines:
        if line.startswith("report job_spread_by_kind "):
            text = line.split(" ", 2)[2]
            result["kinds"] = json.JSONDecoder().raw_decode(text)[0]
    return result


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or contract["run_seconds"]
    metrics = contract["end_to_end"]

    results = []
    for seed in seed_list(args.seeds):
        res = run_once(args.workload, seed, seconds)
        results.append({"seed": seed, **res})
        short = {k: round(v["value"], 4) for k, v in res["metrics"].items()}
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/"
              f"{res['attempted']} {json.dumps(short)}", flush=True)

    print(f"\n{args.workload}: {len(results)} runs of {seconds} s")
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    summary = {}
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        if len(values) < 2 or not statistics.median(values):
            continue
        s = summary[m["name"]] = summarise(values)
        print(f"{m['name']:<16} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
              f"{s['spread']:>8.4f} {m.get('bound', ''):>6}")
    for name in sorted({n for r in results for n in r.get("raw", {})}):
        values = [r["raw"][name] for r in results if name in r.get("raw", {})]
        if len(values) > 1:
            s = summary[f"raw {name}"] = summarise(values)
            print(f"{'raw ' + name:<16} {s['median']:>12.6g} {s['q1']:>12.6g} "
                  f"{s['q3']:>12.6g} {s['spread']:>8.4f}")
    kinds = sorted({k for r in results for k in r.get("kinds", {})})
    if kinds:
        print(f"\n{'job kind':<22} {'raw spread':>10} {'calibrated':>10}  "
              f"(median over runs of the spread within a run)")
    for kind in kinds:
        pairs = [r["kinds"][kind] for r in results if kind in r.get("kinds", {})]
        raw, cal = (statistics.median(p[j] for p in pairs) for j in (0, 1))
        summary[f"kind {kind}"] = {"raw": raw, "calibrated": cal}
        print(f"{kind:<22} {raw:>10.4f} {cal:>10.4f}")
    out = ROOT / ".bench_run" / f"steadiness-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"runs": results, "summary": summary}, indent=1))
    print(f"all correct: {all(r['correct'] for r in results)}; raw results in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
