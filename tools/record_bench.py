#!/usr/bin/env python3
"""Record one point of the benchmark's trajectory as ``BENCH_<k>.json``.

    python3 tools/record_bench.py [--repeats 5] [--seconds 19] [--out-dir .]

Runs ``bench/run.py --trace 0`` ``--repeats`` times on every workload of
``BENCHMARK.json`` at seed ``SEED``, round robin (one run of each workload,
then the next round), one run at a time.  Every point uses the same seed,
so that the points compare.  It writes ``BENCH_<k>.json`` into
``--out-dir``, ``k`` the next free integer there, holding per workload the
seed, the repeat count, the median and quartiles of each end-to-end metric
(the quartiles of ``bench/steadiness.py``), the failed share and every
run's values; and once the machine line of ``bench/run.py``, the Python
version and the git SHA of the checkout, with ``git_dirty`` true when
tracked files differ from it.  It exits 1, after writing the file, when a
run is not ``"correct": true`` or misses an end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
from run import machine  # noqa: E402
from steadiness import run_once, summarise  # noqa: E402

SEED = 1


def quartiles(values: list) -> dict:
    """Median and quartiles; a single run is its own median and quartiles."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    s = summarise(values)
    return {"median": s["median"], "q1": s["q1"], "q3": s["q3"]}


def git_dirty() -> bool | None:
    """Whether tracked files differ from HEAD; None without git."""
    try:
        out = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                             cwd=ROOT, capture_output=True, text=True, timeout=60)
    except OSError:
        return None
    return bool(out.stdout.strip()) if out.returncode == 0 else None


def next_path(out_dir: Path) -> Path:
    k = 1
    while (out_dir / f"BENCH_{k}.json").exists():
        k += 1
    return out_dir / f"BENCH_{k}.json"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=contract["run_seconds"])
    ap.add_argument("--out-dir", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    names = [m["name"] for m in contract["end_to_end"]]
    workloads = [w["name"] for w in contract["workloads"]]

    runs = {w: [] for w in workloads}
    for r in range(args.repeats):
        for w in workloads:
            res = run_once(w, SEED, args.seconds)
            runs[w].append(res)
            print(f"{w} run {r + 1}/{args.repeats}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} jobs_per_s="
                  f"{res['metrics'].get('jobs_per_s', {}).get('value')}", flush=True)

    info = machine()
    problems = []
    record = {
        "machine": f"machine nproc={info['nproc']} cpu={info['cpu']!r} "
                   f"python={info['python']} git={info['git_sha']}",
        "python": info["python"],
        "git_sha": info["git_sha"],
        "git_dirty": git_dirty(),
        "seconds": args.seconds,
        "workloads": {},
    }
    for w, results in runs.items():
        metrics = {}
        for name in names:
            values = [res["metrics"][name]["value"] for res in results if name in res["metrics"]]
            if len(values) < len(results):
                problems.append(f"{w}: {name} missing from {len(results) - len(values)} runs")
            if values:
                metrics[name] = quartiles(values)
        attempted = sum(res["attempted"] for res in results)
        failed = sum(res["failed"] for res in results)
        correct = all(res["correct"] for res in results)
        if not correct:
            problems.append(f"{w}: a run is not correct")
        record["workloads"][w] = {
            "seed": SEED,
            "repeats": len(results),
            "metrics": metrics,
            "failed_share": failed / attempted if attempted else None,
            "failed": failed,
            "attempted": attempted,
            "all_correct": correct,
            "runs": [{n: v["value"] for n, v in res["metrics"].items()} for res in results],
        }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = next_path(args.out_dir)
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
