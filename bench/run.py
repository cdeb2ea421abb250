#!/usr/bin/env python3
"""bisectmesh benchmark: one command, three closed-loop workloads.

    python3 bench/run.py --workload adapt-wide --seed 1 --seconds 19 --trace 0

Run from the repository root (it imports ``src/bisectmesh``; nothing needs
installing).  One client sends the next job only when the previous one has
finished, in one process with no threads.  The seed makes the inputs; the
program sees only the generated inputs.  Every answer is checked.

``--trace 0`` sets up several times, then runs jobs back to back
until ``--seconds`` of job time, at the calibration kernel's reference
speed, and a whole job period have passed, and reports the end-to-end
metrics.  ``--trace 1`` runs one set-up plus one job
period untraced and twice traced, reports the per-layer metrics of the
first traced pass, checks that both traced passes count the same work, and
dumps the spans to ``.bench_run/``.

The last line of standard output is one JSON object; the lines before it
give every metric by name and unit, and the machine.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import layers
from spans import Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up runs at least this often and for at least this long; the median counts.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 2.0
DEFAULT_SEED = 0  # the seed whose output digests are recorded in expected.json
MIN_JOBS = 20  # enough samples for a median and a tail with ten beyond it
# Shared machines switch between speeds that differ by up to a factor of two,
# for seconds at a time.  Each job, and each batch of set-ups, is therefore
# scaled to the speed at which ``calibrate`` takes this long, measured just
# before and just after it; the raw seconds are reported beside them.
CALIBRATION_REF_S = 0.02
SETUP_BATCH_S = 0.1  # set-ups run in batches at least this long between kernel runs
clock = time.perf_counter


def calibrate() -> float:
    """Seconds for a fixed pure-Python kernel that shares no code with
    bisectmesh: exact rational and big-integer arithmetic plus dict and
    tuple churn, the mix the program spends its time on.  The cyclic
    collector is off while it runs (the kernel makes no cycles), so its time
    does not depend on the size of the program's heap."""
    gc.disable()
    try:
        t0 = clock()
        acc = Fraction(0)
        table = {}
        big = 3
        for i in range(1, 5000):
            acc += Fraction(i, i % 13 + 1)
            big = (big * 1000003 + i) % (1 << 160)
            table[(i, big & 255)] = acc
        return clock() - t0
    finally:
        gc.enable()


def speed_scale(before: float, after: float) -> float:
    """Factor that expresses a timing at the reference speed, from the
    kernel runs just before and just after it."""
    return 2 * CALIBRATION_REF_S / (before + after)


def spread(values) -> float:
    """``(Q3 - Q1) / median``, the steadiness measure; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Tally:
    """Job samples and checked answers of one pass."""

    def __init__(self):
        self.samples: list[float] = []
        self.kinds: list[str] = []
        self.time_by_kind: dict[str, float] = {}
        self.verdicts = []
        self.attempted = 0
        self.wrong: list[str] = []
        self.known: list[str] = []
        self.digests: list[str] = []

    def add(self, kind, seconds, verdict, period):
        if len(self.samples) < period:  # digests cover the first period only
            self.digests += verdict.digest
        self.samples.append(seconds)
        self.kinds.append(kind)
        self.time_by_kind[kind] = self.time_by_kind.get(kind, 0.0) + seconds
        self.verdicts.append(verdict)
        self.attempted += verdict.ops
        self.wrong += verdict.wrong
        self.known += verdict.known

    @property
    def busy(self):
        return sum(self.samples)

    def total(self, attr):
        return sum(getattr(v, attr) for v in self.verdicts)


def run_job(wl, job, tally, rec=None):
    """Time one job, then check its answers untimed."""
    from workloads import Verdict, remove

    gc.collect()
    t0 = clock()
    try:
        result, error = job.run(), None
    except Exception as exc:  # a raised error is a failed operation
        result, error = None, exc
    seconds = clock() - t0
    if rec is not None:
        rec.off = True
    try:
        if error is None:
            verdict = job.check(result)
        else:
            verdict = Verdict(ops=1, wrong=[f"{job.kind}: raised {error!r}"])
    except Exception as exc:
        verdict = Verdict(ops=1, wrong=[f"{job.kind}: check raised {exc!r}"])
    finally:
        if rec is not None:
            rec.off = False
    remove(wl.outputs)
    tally.add(job.kind, seconds, verdict, wl.period)
    return seconds


def timed_setup(wl):
    from workloads import remove

    remove(wl.inputs)
    gc.collect()
    t0 = clock()
    wl.setup()
    return clock() - t0


def measure(wl, seconds):
    """Untraced run: repeated set-up, then the closed loop until ``seconds``
    of job time at the reference speed and whole periods have passed.  The
    calibration kernel runs, untimed, between set-up batches and between
    jobs, there after the collection that follows each job; returns
    ``(set-ups, set-up scales, tally, job scales)``."""
    setups, setup_scales, calibration = [], [], [calibrate()]
    while len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_SECONDS:
        batch = [timed_setup(wl)]
        while sum(batch) < SETUP_BATCH_S:
            batch.append(timed_setup(wl))
        calibration.append(calibrate())
        setups += batch
        setup_scales += [speed_scale(*calibration[-2:])] * len(batch)
    gc.collect()
    gc.freeze()  # set-up objects are not garbage; keep collections per job short
    calibration = [calibrate()]
    tally = Tally()
    wl.final.install()
    try:
        i, busy = 0, 0.0
        while busy < seconds or i % wl.period or i < MIN_JOBS:
            job_s = run_job(wl, wl.jobs[i % len(wl.jobs)], tally)
            gc.collect()
            calibration.append(calibrate())
            busy += job_s * speed_scale(*calibration[-2:])
            i += 1
    finally:
        wl.final.uninstall()
        gc.unfreeze()
    scales = [speed_scale(a, b) for a, b in zip(calibration, calibration[1:])]
    return setups, setup_scales, tally, scales


def one_period(wl, rec=None):
    """Set-up plus one job period; returns ``(seconds, tally)``.  With a
    recorder the pass is traced: job 0 is the set-up, jobs 1.. follow."""
    tally = Tally()
    if rec is not None:
        rec.install()
    wl.final.install()
    try:
        elapsed = timed_setup(wl)
        for j in range(wl.period):
            if rec is not None:
                rec.job = j + 1
            elapsed += run_job(wl, wl.jobs[j], tally, rec)
    finally:
        wl.final.uninstall()
        if rec is not None:
            rec.uninstall()
    return elapsed, tally


def end_to_end(wl, seconds):
    """Untraced run; returns ``(values, notes, report lines, tally)``."""
    setups, setup_scales, tally, scales = measure(wl, seconds)
    samples, busy = tally.samples, tally.busy
    calibrated = [t * c for t, c in zip(samples, scales)]
    tail_value, pct, k = layers.tail(calibrated)
    bisections, bricks, scanned, scan_s = (
        tally.total(a) for a in ("bisections", "bricks", "cells_scanned", "scan_s")
    )
    values = {
        "setup_s": statistics.median(t * c for t, c in zip(setups, setup_scales)),
        "job_p50_s": statistics.median(calibrated),
        "job_tail_s": tail_value,
        "jobs_per_s": k / sum(calibrated),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "setup_s": statistics.median(setups),
        "job_p50_s": statistics.median(samples),
        "job_tail_s": layers.tail(samples)[0],
        "jobs_per_s": k / busy,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "job_p50_s": f"median of {k} jobs",
        "job_tail_s": f"p{pct} of {k} jobs",
        "jobs_per_s": f"{k} jobs in {sum(calibrated):.3f} calibrated s",
    }
    report = [
        f"report speed_scale {statistics.median(scales)!r} ratio (median over jobs, range "
        f"{min(scales):.3f}-{max(scales):.3f}; each job and set-up batch is scaled by "
        f"2 * {CALIBRATION_REF_S} s / the kernel runs just before and after it)",
    ]
    report += [f"report raw_{n} {v!r} {'1/s' if n == 'jobs_per_s' else 's'}" for n, v in raw.items()]
    if bisections:
        bdv_time = sum(t for kind, t in tally.time_by_kind.items() if not kind.startswith("pile"))
        report.append(f"report bisections_per_s {bisections / bdv_time!r} 1/s "
                      f"({bisections} bisections over {bdv_time:.3f} s of bdv-run jobs)")
    if bricks:
        report.append(f"report bricks_added {bricks} count")
    if scanned:
        report.append(f"report verify_cells_per_s {scanned / scan_s!r} 1/s "
                      f"({scanned} leaves scanned in {scan_s:.3f} s of conformity checks)")
    failed = len(tally.wrong) + len(tally.known)
    report.append(f"report failed_ratio {failed / tally.attempted!r} ratio "
                  f"({failed} of {tally.attempted} operations)")
    by_kind = {kind: round(t, 3) for kind, t in tally.time_by_kind.items()}
    spread_by_kind = {
        kind: [round(spread([t for t, kk in zip(times, tally.kinds) if kk == kind]), 4)
               for times in (samples, calibrated)]
        for kind in tally.time_by_kind
    }
    report.append(f"report job_spread_by_kind {json.dumps(spread_by_kind)} "
                  f"((Q3 - Q1) / median of each kind's job times in this run, raw and calibrated)")
    report.append(f"report job_seconds_by_kind {json.dumps(by_kind)} over {busy:.3f} raw s")
    return values, notes, report, tally


def traced(wl, workdir):
    """Traced run; returns ``(values, notes, report lines, tally)`` of the
    first traced pass.  Untraced passes before and after the traced ones
    give the reference time for ``trace.overhead_ratio``."""
    untraced = [one_period(wl)[0]]
    recs = [Recorder(layers.PROBES) for _ in range(2)]
    passes = [one_period(wl, rec) for rec in recs]
    untraced.append(one_period(wl)[0])
    rec, (elapsed, tally) = recs[0], passes[0]
    values = layers.per_layer(rec)
    values["trace.overhead_ratio"] = (
        statistics.mean(e for e, _ in passes) / statistics.mean(untraced)
    )
    problems = layers.cross_checks(rec, wl, tally.verdicts)
    counts, again = rec.counts(), recs[1].counts()
    if counts != again:
        diff = sorted(k for k in set(counts) | set(again) if counts.get(k) != again.get(k))
        problems.append(f"counts differ between two traced passes: {diff[:10]}")
    rec.dump(workdir / "spans")
    report = [f"cross-check failed: {p}" for p in problems] or [
        "cross-checks passed: refine calls = rounds, bisect_leaf calls = cells "
        "added, census classes = Constants.classes, counts repeat in two passes"
    ]
    report.append(f"spans dumped to {workdir / 'spans'}")
    tally.wrong += problems
    return values, {}, report, tally


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=19.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "bisectmesh" / "__init__.py").is_file():
        print(f"error: no bisectmesh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, digest

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        units = {
            m["name"]: m["unit"]
            for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]
        }
    with open(HERE / "expected.json") as fh:
        expected = json.load(fh)

    workdir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = WORKLOADS[args.workload](
        args.seed, str(workdir), digest_jobs=args.seed == DEFAULT_SEED
    )
    info = machine()
    print(f"machine nproc={info['nproc']} cpu={info['cpu']!r} "
          f"python={info['python']} git={info['git_sha']}")
    print(f"workload {wl.name} seed={args.seed} loop=closed clients=1 trace={args.trace}")
    if args.trace:
        values, notes, report, tally = traced(wl, workdir)
    else:
        values, notes, report, tally = end_to_end(wl, args.seconds)

    correct = not tally.wrong
    missing = sorted(set(units) - set(values))
    if missing:
        report.append(f"error: metrics not measured: {missing}")
        correct = False
    report += [f"wrong answer: {w}" for w in tally.wrong[:20]]
    for k in sorted(set(tally.known)):
        report.append(f"known defect (counted as failed): {k} x{tally.known.count(k)}")
    if wl.digest_jobs:
        got, want = digest(*tally.digests), expected.get(wl.name)
        report.append(f"seed {DEFAULT_SEED} output digest {got}, recorded {want}: "
                      f"{'match' if got == want else 'MISMATCH'}")
        correct &= got == want
    for name, unit in units.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"metric {name} {values.get(name)!r} {unit}{note}")
    for line in report:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": len(tally.wrong) + len(tally.known),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items() if n in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
