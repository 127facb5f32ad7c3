"""uswsim benchmark: one workload, timed end to end, checked, optionally traced.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the program from its
``src`` directory; it fails without printing a result when that is missing.
After an untimed preparation (checks and warm-up), the workload runs in
this one process, one pass after another (a closed loop with one caller),
for as many whole passes as fit in ``--seconds`` (at least one); each item
of a pass is checked after it is timed.  With ``--trace 0`` the last line
of standard output reports the end-to-end metrics.  With ``--trace 1`` the
run spends half its time on untraced passes, then makes one pass with spans
wrapped around the calls between the program's layers and reports the
per-layer metrics.  The line before the result records the inputs, the
pass times and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import types
from pathlib import Path

from spans import EVENT_KINDS, Tracer
from workloads import WORKLOADS, PassStats, Report

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
LAYER_MODULES = ("model", "engine", "preservation", "graph", "analysis", "cli")
PRESERVATION_CALLS = ("candidate_hosts", "place_copy", "try_sacrifice", "announce_new_host")
ENGINE_GRAPH_CALLS = ("start_wander", "wander_step", "finalize_links")
GRAPH_STUDY_CALLS = ("grow_graph", "clustering_coefficient", "uniform_random_graph",
                     "avg_path_length")
EXPORT_CALLS = ("emit_timeseries_csv", "emit_summary_json", "emit_snapshot_svg",
                "fit_growth_exponent")


def load_program() -> types.SimpleNamespace:
    """Import uswsim's modules from this checkout's ``src``, nowhere else."""
    if not (SRC / "uswsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no uswsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"uswsim.{m}") for m in LAYER_MODULES}
    if Path(mods["engine"].__file__).resolve().parent != SRC / "uswsim":
        raise SystemExit(f"perfbench: uswsim imported from {mods['engine'].__file__}")
    return types.SimpleNamespace(**mods)


def measure_setup() -> float:
    """Median wall time to start a fresh interpreter and import uswsim.cli."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import uswsim.cli"
    times = []
    for _ in range(SETUP_REPEATS):
        # A blocking wait, with a timer to kill a hung child: a wait with a
        # timeout polls every 50 ms, and would add up to 50 ms to each time.
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT)
        timer = threading.Timer(60, proc.kill)
        timer.start()
        try:
            returncode = proc.wait()
        finally:
            timer.cancel()
        times.append(time.perf_counter() - t0)
        if returncode != 0:
            raise SystemExit(f"perfbench: importing uswsim.cli exited with {returncode}")
    return statistics.median(times)


def environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "uswsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=60)
        commit = proc.stdout.strip() or None
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)), "commit": commit,
            "source_sha256": digest.hexdigest()}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup_s: float, wall_s: float, stats: PassStats) -> dict:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(wall_s, "s"),
        "events_per_s": metric(stats.events / wall_s, "1/s"),
        "messages_per_s": metric(stats.messages / wall_s, "1/s"),
        "peak_rss_mb": metric(peak_kb / 1024, "MB"),
    }


def per_layer(tr: Tracer, usw, stats: PassStats, traced_wall: float, wall_s: float) -> dict:
    m = {}
    attributed = 0.0

    def self_time(name, key):
        nonlocal attributed
        attributed += tr.self_s[key]
        m[name] = metric(tr.self_s[key], "s")

    def ratio(num, den):
        return num / den if den else 0.0

    m["engine.events"] = metric(sum(tr.calls["engine." + k] for k in EVENT_KINDS), "count")
    for k in EVENT_KINDS:
        self_time(f"engine.{k}.self_s", "engine." + k)
        m[f"engine.{k}.count"] = metric(tr.calls["engine." + k], "count")
    self_time("engine.ledger.self_s", "engine.ledger")
    m["engine.ledger.messages"] = metric(tr.calls["engine.ledger"], "count")
    for kind in usw.model.MessageKind:
        key = "engine.ledger.kind." + kind.value
        m[key] = metric(tr.counts[key], "count")
    world = tr.last_world
    open_families = 0 if world is None else sum(
        1 for f in world.families.values() if world.family_has_opening(f))
    m["engine.open_families_at_end"] = metric(open_families, "count")

    for name in PRESERVATION_CALLS:
        self_time(f"preservation.{name}.self_s", "preservation." + name)
        m[f"preservation.{name}.calls"] = metric(tr.calls["preservation." + name], "count")
    m["preservation.place_copy.ack_ratio"] = metric(ratio(
        tr.counts["preservation.place_copy.acks"], tr.calls["preservation.place_copy"]), "ratio")
    m["preservation.try_sacrifice.success_ratio"] = metric(ratio(
        tr.counts["preservation.try_sacrifice.decisions"],
        tr.calls["preservation.try_sacrifice"]), "ratio")

    for name in ENGINE_GRAPH_CALLS:
        self_time(f"graph.{name}.self_s", "graph." + name)
        m[f"graph.{name}.calls"] = metric(tr.calls["graph." + name], "count")
    for name in GRAPH_STUDY_CALLS:
        self_time(f"graph.{name}.s", "graph." + name)
    m["graph.nodes"] = metric(stats.graph_nodes, "count")
    m["graph.edges"] = metric(stats.graph_edges, "count")
    self_time("graph.write_edge_list.s", "graph.write_edge_list")

    for name in EXPORT_CALLS:
        self_time(f"analysis.{name}.s", "analysis." + name)
    m["analysis.bytes_written"] = metric(tr.counts["analysis.bytes_written"], "bytes")
    self_time("cli.sweep_sizes.self_s", "cli.sweep_sizes")

    m["trace.overhead_s"] = metric(traced_wall - wall_s, "s")
    m["trace.unattributed_s"] = metric(traced_wall - attributed, "s")
    return m


def one_pass(workload, work: str, report: Report, tracer: Tracer | None = None):
    """Run every item once; return each item's time and the work the pass did.

    Only ``run_item`` is timed.  With a tracer, its wrappers are installed
    around each ``run_item`` call and removed before the item is checked.
    """
    times = []
    stats = PassStats()
    for item in workload.items:
        report.attempted += workload.ops_per_item
        if tracer is not None:
            tracer.install(workload.usw)
        t0 = time.perf_counter()
        try:
            out = workload.run_item(item, work)
        except Exception as exc:  # noqa: BLE001 - counted as failed operations
            report.fail(f"{workload.label(item)}: {exc!r}", workload.ops_per_item)
            continue
        finally:
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.remove()
        try:
            stats += workload.check_item(item, out, work, report)
        except Exception as exc:  # noqa: BLE001 - output the checks cannot read
            report.problems.append(f"{workload.label(item)}: check raised {exc!r}")
        del out
    return times, stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="base seed of the inputs")
    parser.add_argument("--seconds", type=float, required=True, help="time to spend on passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    usw = load_program()
    setup_s = None if args.trace else measure_setup()
    workload = WORKLOADS[args.workload](usw, args.seed)
    report = Report()
    OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        budget = args.seconds / 2 if args.trace else args.seconds
        workload.prepare(work, report)
        start = time.perf_counter()
        passes = []
        # Whole passes only: another pass starts if, at the pace so far, it
        # ends within the budget.  The first pass always runs.
        while True:
            t0 = time.perf_counter()
            times, stats = one_pass(workload, work, report)
            passes.append(sum(times))
            now = time.perf_counter()
            if now + (now - t0) - start > budget:
                break
        # The mean pass, not the median: the host's speed drifts between
        # levels for seconds at a time, and a median jumps between them.
        wall_s = statistics.fmean(passes)
        if args.trace:
            tracer = Tracer()
            times, stats = one_pass(workload, work, report, tracer)
            traced_wall = sum(times)
            metrics = per_layer(tracer, usw, stats, traced_wall, wall_s)
        else:
            metrics = end_to_end(setup_s, wall_s, stats)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for error in report.errors:
        print(f"perfbench: operation failed: {error}", file=sys.stderr)
    for problem in report.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    info = {"workload": args.workload, "seed": args.seed, "inputs": workload.inputs(),
            "passes": len(passes), "pass_walls_s": passes,
            "environment": environment()}
    if args.trace:
        info["traced_wall_s"] = traced_wall
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not report.problems, "attempted": report.attempted,
                      "failed": report.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
