"""Per-layer metrics: the probes that count work inside wrapped calls, and
the metrics derived from a traced pass."""

from __future__ import annotations

import os
import statistics

from spans import LAYERS

# Functions reported as calls / self_s.
FUNCTIONS = (
    "exactgeom.simplex_volume",
    "exactgeom.barycentric",
    "tarray.midpoint_id",
    "tarray.bisect",
    "forest.bisect_leaf",
    "forest.ensure_children",
    "forest.overlay",
    "forest.underlay",
    "refine.refine",
    "refine.check_conforming",
    "refine.check_conforming_2d_exact",
    "inittags.agk_init",
    "harness.compute_constants",
    "harness.shape_census",
    "harness.run_sequence",
    "harness.verify_bdv",
    "pilegame.play",
    "meshio.read_mesh",
    "meshio.write_mesh",
    "meshio.mesh_hash",
    "cli.main",
)
VERIFIERS = tuple(
    f"inittags.check_{v}" for v in ("sic", "retaco", "retahyco", "pc", "isocochange")
)


class Probe:
    """``before(rec, args)`` runs before the call and returns a token;
    ``after(rec, args, result, token, seconds)`` runs after a normal return."""

    def __init__(self, before=None, after=None):
        self.before = before or (lambda rec, args: None)
        self.after = after


def _count_if(key):
    def after(rec, args, result, token, seconds):
        if token:
            rec.count(key)

    return after


def _count(key, amount):
    def after(rec, args, result, token, seconds):
        rec.count(key, amount(args, result, token))

    return after


def _refine_after(rec, args, result, leaves_before, seconds):
    rec.count("refine.refine.bisections", len(args[0].leaves) - leaves_before)
    rec.durations.setdefault("refine.refine", []).append(seconds)


def _midpoint_after(rec, args, result, pool_size, seconds):
    if len(args[0]) == pool_size:  # a hit: the midpoint was already interned
        rec.count("tarray.midpoint_id.hits")


def _file_bytes(args, result, token):
    return os.path.getsize(args[0])


PROBES = {
    "tarray.midpoint_id": Probe(lambda rec, args: len(args[0]), _midpoint_after),
    # a hit returns memoised children
    "forest.ensure_children": Probe(
        lambda rec, args: args[0].nodes[args[1]].children is not None,
        _count_if("forest.ensure_children.hits"),
    ),
    "refine.refine": Probe(lambda rec, args: len(args[0].leaves), _refine_after),
    "refine.check_conforming": Probe(
        lambda rec, args: len(args[0].leaves),
        _count("refine.check_conforming.cells", lambda a, r, leaves: leaves),
    ),
    "harness.shape_census": Probe(
        after=_count("harness.shape_census.classes", lambda a, r, t: r.classes)
    ),
    "harness.compute_constants": Probe(
        after=_count("harness.compute_constants.classes", lambda a, r, t: r.classes)
    ),
    "pilegame.play": Probe(
        after=_count("pilegame.play.bricks", lambda a, r, t: r.total_added)
    ),
    "meshio.read_mesh": Probe(after=_count("meshio.bytes", _file_bytes)),
    "meshio.write_mesh": Probe(after=_count("meshio.bytes", _file_bytes)),
}


def tail(samples):
    """``(value, percentile, count)``: the highest whole percentile that
    leaves at least ten samples above it (nearest rank), or the maximum
    when there are fewer than eleven samples."""
    xs = sorted(samples)
    k = len(xs)
    if k < 11:
        return (xs[-1] if xs else 0.0), 100, k
    pct = (100 * (k - 10)) // k
    rank = max(1, -(-pct * k // 100))
    return xs[rank - 1], pct, k


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(rec) -> dict:
    """Every per-layer metric of one traced pass, by name, except
    ``trace.overhead_ratio``, which needs untraced passes too."""
    totals = rec.totals()
    zero = (0, 0.0, 0.0)
    c = rec.counters
    out = {}
    for name in FUNCTIONS:
        calls, self_s, _ = totals.get(name, zero)
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    out["inittags.verifiers.calls"] = sum(totals.get(n, zero)[0] for n in VERIFIERS)
    out["inittags.verifiers.self_s"] = sum(totals.get(n, zero)[1] for n in VERIFIERS)

    out["tarray.midpoint_id.hit_ratio"] = _ratio(
        c.get("tarray.midpoint_id.hits", 0), out["tarray.midpoint_id.calls"]
    )
    out["forest.ensure_children.hit_ratio"] = _ratio(
        c.get("forest.ensure_children.hits", 0), out["forest.ensure_children.calls"]
    )
    refine_ms = [s * 1e3 for s in rec.durations.get("refine.refine", [])]
    out["refine.refine.p50_ms"] = statistics.median(refine_ms) if refine_ms else 0.0
    out["refine.refine.tail_ms"] = tail(refine_ms)[0]
    out["refine.refine.bisections_per_call"] = _ratio(
        c.get("refine.refine.bisections", 0), out["refine.refine.calls"]
    )
    out["refine.check_conforming.cells_per_s"] = _ratio(
        c.get("refine.check_conforming.cells", 0),
        totals.get("refine.check_conforming", zero)[2],
    )
    classes = c.get("harness.shape_census.classes", 0)
    out["harness.shape_census.classes"] = classes
    out["harness.shape_census.classes_per_s"] = _ratio(
        classes, totals.get("harness.shape_census", zero)[2]
    )
    out["pilegame.bricks_per_s"] = _ratio(
        c.get("pilegame.play.bricks", 0), totals.get("pilegame.play", zero)[2]
    )
    out["meshio.bytes"] = c.get("meshio.bytes", 0)
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            s for n, (_, s, _) in totals.items() if n.startswith(layer + ".")
        )
    out["trace.spans"] = len(rec.start)
    return out


def cross_checks(rec, workload, verdicts) -> list:
    """The counts a traced pass must reproduce exactly; returns mismatches.

    Job 0 is the set-up; jobs 1.. are the measured jobs.
    """
    problems = []

    def need(ok, what):
        if not ok:
            problems.append(what)

    totals = rec.totals()
    rounds = sum(v.rounds for v in verdicts)
    refines = totals.get("refine.refine", (0,))[0]
    need(
        refines == rounds + workload.setup_refines,
        f"refine.refine.calls {refines} != trace rounds {rounds} "
        f"+ set-up refines {workload.setup_refines}",
    )
    setup_bisections = rec.calls_in_job("forest.bisect_leaf", 0)
    need(
        setup_bisections == workload.setup_bisections,
        f"forest.bisect_leaf calls in set-up {setup_bisections} != "
        f"{workload.setup_bisections}",
    )
    if workload.adaptive:
        job_bisections = totals.get("forest.bisect_leaf", (0,))[0] - setup_bisections
        added = sum(v.bisections for v in verdicts)
        need(
            job_bisections == added,
            f"forest.bisect_leaf.calls {job_bisections} != sum of cells_added {added}",
        )
    census = rec.counters.get("harness.shape_census.classes", 0)
    consts = rec.counters.get("harness.compute_constants.classes", 0)
    need(
        census == consts,
        f"harness.shape_census.classes {census} != Constants.classes {consts}",
    )
    return problems
