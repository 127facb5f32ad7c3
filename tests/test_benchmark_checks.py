"""The benchmark's own output checks pass on small runs of the program.

``perfbench/checks.py`` holds the correctness checks the benchmark applies
to what each workload hands back, and reads the program's results by name
(``placements``, ``denials``, ``ledger.kind_counts``, ``graph.edge_count``
and so on).  This test loads it by path (compiled in memory, so nothing is
written next to it) and runs every check a workload calls on small
inputs, so that a change to a name or a figure the benchmark reads fails
here rather than in the benchmark.
"""

import types
from pathlib import Path
from random import Random

import pytest

from uswsim.analysis import (
    emit_snapshot_svg,
    emit_summary_json,
    emit_timeseries_csv,
    summary_dict,
)
from uswsim.cli import sweep_configs, sweep_sizes
from uswsim.engine import run
from uswsim.graph import avg_path_length, clustering_coefficient, grow_graph, uniform_random_graph
from uswsim.model import PolicyKind, SimConfig

CHECKS = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"


@pytest.fixture(scope="module")
def checks():
    module = types.ModuleType("perfbench_checks")
    exec(compile(CHECKS.read_text(encoding="utf-8"), str(CHECKS), "exec"), vars(module))
    return module


@pytest.mark.parametrize("policy", list(PolicyKind))
def test_reference_exports_pass(checks, tmp_path, policy):
    # What the reference workload writes and checks for each run.
    result = run(SimConfig(n_max=80, h_max=120, seed=4, policy=policy))
    base = str(tmp_path / "run")
    emit_timeseries_csv(result, base + ".csv")
    emit_summary_json(result, base + ".json")
    result.graph.write_edge_list(base + ".edges")
    emit_snapshot_svg(result, 600, base + "_t600.svg")
    label = policy.value
    problems = checks.check_run(label, result, feast=False)
    problems += checks.check_csv(label, base + ".csv", result)
    problems += checks.check_summary_json(label, base + ".json", summary_dict(result))
    problems += checks.check_edge_list(label, base + ".edges", result.graph)
    problems += checks.check_svg(label, base + "_t600.svg")
    assert problems == []
    assert result.denials > 0 and result.sacrifices > 0  # the capacity-bound checks bite


def test_feast_run_passes(checks):
    result = run(SimConfig(n_max=80, h_max=120, host_capacity=160, seed=4,
                           policy=PolicyKind.MOST))
    assert checks.check_run("feast", result, feast=True) == []


def test_sweep_fits_pass(checks):
    # The feast workload checks sweep_sizes' fits against direct runs.
    base = SimConfig(h_max=60, seed=4)
    fits = sweep_sizes([5, 10, 20], base, jobs=1)
    points = {}
    for cfg in sweep_configs([5, 10, 20], base):
        growth = summary_dict(run(cfg))["messages"]["growth"]
        points.setdefault(cfg.policy.value, []).append((cfg.n_max, growth))
    assert set(fits) == set(points)
    problems = []
    for policy, fit in fits.items():
        problems += checks.check_fit(policy, fit, points[policy])
    assert problems == []


def test_graph_study_passes(checks):
    # The graph-study workload's checks, exact at this size.
    g = grow_graph(200, seed=7)
    base = uniform_random_graph(200, g.edge_count, Random(7 + 10_000))
    problems = checks.check_graph("grown", g)
    problems += checks.check_graph("baseline", base, connected=False)
    problems += checks.check_clustering("grown", g, clustering_coefficient(g))
    problems += checks.check_clustering("baseline", base, clustering_coefficient(base))
    problems += checks.check_path_length("grown", g, avg_path_length(g), exact=True)
    assert problems == []
