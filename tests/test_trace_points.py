"""The benchmark's traced pass still finds every call it wraps.

``perfbench/spans.py`` times a run by replacing functions in uswsim's
module namespaces, and only warns when one is missing.  This test loads it
by path (compiled in memory, so nothing is written next to it), installs
its ``Tracer`` on a small run and checks that every patch point on the
engine's side was reached and that removing the tracer restores the
originals.
"""

import types
from pathlib import Path

from uswsim import analysis, cli, engine, graph, preservation
from uswsim.model import SimConfig

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
PRESERVATION = ("candidate_hosts", "place_copy", "try_sacrifice", "announce_new_host")
ENGINE_GRAPH = ("start_wander", "wander_step", "finalize_links")


def load_spans():
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), vars(module))
    return module


def test_tracer_reaches_every_engine_patch_point(capsys):
    names = ("run", *PRESERVATION, *ENGINE_GRAPH)
    originals = {name: vars(engine)[name] for name in names}
    send = vars(engine.World)["send"]
    uswsim = types.SimpleNamespace(engine=engine, preservation=preservation, graph=graph,
                                   analysis=analysis, cli=cli)
    tracer = load_spans().Tracer()
    tracer.install(uswsim)
    try:
        world = engine.run(SimConfig(n_max=80, h_max=60, seed=4))
    finally:
        tracer.remove()
    assert capsys.readouterr().err == ""
    spans = [f"preservation.{name}" for name in PRESERVATION]
    spans += [f"graph.{name}" for name in ENGINE_GRAPH]
    spans.append("engine.ledger")
    assert {span: tracer.calls[span] for span in spans if tracer.calls[span] < 1} == {}
    assert {name: vars(engine)[name] for name in names} == originals
    assert vars(engine.World)["send"] is send
    assert cli.run is engine.run
    # perfbench/run.py reports engine.open_families_at_end by calling
    # family_has_opening on the finished world for every family.  Nothing in
    # src/ calls it, so this is what fails if it is deleted or renamed.
    assert all(type(world.family_has_opening(f)) is bool for f in world.families.values())
