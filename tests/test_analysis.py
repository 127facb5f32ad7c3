import json
import math
import re
from pathlib import Path
from random import Random

import numpy as np
import pytest

from audit import add_family, make_world
from uswsim.analysis import (
    CSV_HEADER,
    emit_snapshot_svg,
    emit_summary_json,
    emit_timeseries_csv,
    fit_growth_exponent,
    ring_capacity,
    snapshot_state,
    summary_dict,
    tree_ring_layout,
)
from uswsim.engine import run
from uswsim.fileio import atomic_write
from uswsim.model import PolicyKind, SimConfig, status_of


def effectiveness_of(copy_counts, r_min=3, r_max=5):
    """What World.sample_bin scores for families holding these copy counts."""
    world = make_world(n_max=len(copy_counts), h_max=100, r_min=r_min, r_max=r_max)
    for do, count in enumerate(copy_counts, 1):
        add_family(world, do, home=do, copies=range(10 * do + 20, 10 * do + 20 + count))
    world.sample_bin()
    return world.effectiveness_series[-1]


class TestEffectiveness:
    def test_all_at_max_is_one(self):
        assert effectiveness_of([5, 5, 5]) == pytest.approx(1.0)

    def test_all_none_is_zero(self):
        assert effectiveness_of([0, 0, 0]) == pytest.approx(0.0)

    def test_mixed_partial_and_max(self):
        assert effectiveness_of([2, 5]) == pytest.approx(2 / 3)


class TestTreeRingLayout:
    def test_single_do_at_center(self):
        assert tree_ring_layout([1]) == {1: (0, 0)}

    def test_five_dos_fill_first_ring(self):
        layout = tree_ring_layout([1, 2, 3, 4, 5])
        assert layout[1] == (0, 0)
        assert [layout[d] for d in (2, 3, 4, 5)] == \
            [(1, 0), (1, 1), (1, 2), (1, 3)]

    def test_tenth_do_spills_to_ring_two(self):
        layout = tree_ring_layout(list(range(1, 11)))
        rings = [layout[d][0] for d in range(1, 11)]
        assert rings == [0] + [1] * 8 + [2]

    def test_ring_capacities(self):
        assert [ring_capacity(r) for r in range(4)] == [1, 8, 16, 24]

    def test_rings_never_decrease_with_age(self):
        layout = tree_ring_layout(list(range(1, 600)))
        rings = [layout[d][0] for d in range(1, 600)]
        assert rings == sorted(rings)

    def test_bijection_up_to_5000(self):
        layout = tree_ring_layout(list(range(1, 5001)))
        assert len(layout) == 5000
        slots = set(layout.values())
        assert len(slots) == 5000
        for ring, slot in slots:
            assert 0 <= slot < ring_capacity(ring)


class TestFitGrowthExponent:
    def test_recovers_exponents_exactly(self):
        sizes = [10, 50, 100, 250, 500]
        for k in (0, 1, 2, 3):
            sweep = [(n, 7 * n ** k) for n in sizes]
            fit = fit_growth_exponent(sweep)
            assert abs(fit.slope - k) < 1e-6

    def test_constant_totals_slope_zero(self):
        fit = fit_growth_exponent([(10, 42), (100, 42), (1000, 42)])
        assert abs(fit.slope) < 1e-9
        assert fit.marginal_slope is None  # no positive differences

    def test_quadratic_marginal_slope_near_one(self):
        sweep = [(n, 3 * n * n) for n in (10, 50, 100, 250, 500)]
        fit = fit_growth_exponent(sweep)
        assert fit.marginal_slope == pytest.approx(1.0, abs=0.1)

    def test_needs_three_sizes(self):
        with pytest.raises(ValueError):
            fit_growth_exponent([(10, 5), (20, 9)])

    def test_rejects_nonpositive_totals(self):
        with pytest.raises(ValueError):
            fit_growth_exponent([(10, 5), (20, 0), (30, 9)])

    def test_rejects_duplicate_sizes(self):
        with pytest.raises(ValueError):
            fit_growth_exponent([(10, 5), (10, 6), (30, 9)])

    def test_matches_numpy_least_squares(self):
        # 50 random sweeps of 3-8 sizes up to 5000, totals growing as
        # size**e with 2% noise, against np.linalg.lstsq on the same logs.
        rng = Random(27)
        for _ in range(50):
            sizes = sorted(rng.sample(range(10, 5001), rng.randint(3, 8)))
            e = rng.uniform(1.5, 2.5)
            sweep = [(n, round(5 * n ** e * rng.uniform(0.98, 1.02))) for n in sizes]
            fit = fit_growth_exponent(sweep)
            slope = lstsq_slope([math.log(n) for n, _ in sweep], [math.log(t) for _, t in sweep])
            assert math.isclose(fit.slope, slope, rel_tol=1e-12), sweep
            marginal = [(math.log(math.sqrt(n1 * n2)), math.log((t2 - t1) / (n2 - n1)))
                        for (n1, t1), (n2, t2) in zip(sweep, sweep[1:]) if t2 > t1]
            if len(marginal) < 2:
                assert fit.marginal_slope is None, sweep
            else:
                expected = lstsq_slope([x for x, _ in marginal], [y for _, y in marginal])
                assert math.isclose(fit.marginal_slope, expected, rel_tol=1e-12), sweep

    def test_marginal_slope_none_when_differences_share_a_midpoint(self):
        # The two positive differences, 2 -> 8 and 1 -> 16, both sit at 4.
        fit = fit_growth_exponent([(2, 10), (8, 50), (1, 60), (16, 200)])
        assert fit.marginal_slope is None


def lstsq_slope(xs, ys):
    a = np.vstack([xs, np.ones(len(xs))]).T
    return float(np.linalg.lstsq(a, np.array(ys), rcond=None)[0][0])


@pytest.fixture(scope="module")
def small_run():
    return run(SimConfig(n_max=40, h_max=80, seed=3, policy=PolicyKind.MODERATE))


class TestTimeseriesCsv:
    def test_one_row_per_bin(self, small_run, tmp_path):
        path = tmp_path / "ts.csv"
        emit_timeseries_csv(small_run, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) - 1 == len(small_run.bin_ts)

    def test_fractions_have_six_decimals_and_sum_to_one(self, small_run, tmp_path):
        path = tmp_path / "ts.csv"
        emit_timeseries_csv(small_run, path)
        last = path.read_text().splitlines()[-1].split(",")
        do_fracs = [float(v) for v in last[4:8]]
        host_fracs = [float(v) for v in last[8:14]]
        assert sum(do_fracs) == pytest.approx(1.0, abs=1e-4)
        assert sum(host_fracs) == pytest.approx(1.0, abs=1e-4)
        assert all(len(v.split(".")[1]) == 6 for v in last[4:14])

    def test_rows_ascend_in_t(self, small_run, tmp_path):
        path = tmp_path / "ts.csv"
        emit_timeseries_csv(small_run, path)
        ts = [int(line.split(",")[0]) for line in path.read_text().splitlines()[1:]]
        assert ts == sorted(ts)

    def test_cum_messages_monotone(self, small_run, tmp_path):
        # The CSV is the cost curve: effectiveness against cumulative messages.
        path = tmp_path / "ts.csv"
        emit_timeseries_csv(small_run, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        sent = [int(row[3]) for row in rows]
        assert sent == sorted(sent)
        assert sent[-1] == small_run.ledger.total

    def test_rerun_identical_bytes(self, tmp_path):
        cfg = SimConfig(n_max=30, h_max=60, seed=12)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_timeseries_csv(run(cfg), p1)
        emit_timeseries_csv(run(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_documented_columns_match_header(self):
        # The first cell of each row of the documented CSV table names its
        # columns in backticks, in file order.
        doc = (Path(__file__).resolve().parent.parent / "docs" / "output-formats.md").read_text()
        section = doc.split("## Timeseries CSV", 1)[1].split("\n## ", 1)[0]
        rows = [line for line in section.splitlines() if line.startswith("| `")]
        documented = [name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])]
        assert documented == CSV_HEADER.split(",")


    def test_boundary_bin_is_growth(self, tmp_path):
        # The ledger counts the event that connected the last DO as growth,
        # and this run's boundary falls on a bin time.
        result = run(SimConfig(n_max=20, h_max=40, seed=1, bin_size=10))
        assert result.phase_boundary_t == 290
        path = tmp_path / "ts.csv"
        emit_timeseries_csv(result, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        growth = [row for row in rows if row[1] == "growth"]
        assert growth[-1][0] == "290"
        assert int(growth[-1][3]) == result.ledger.growth_total == 540


def write_report(_result, path):
    with atomic_write(path) as fh:
        fh.write("{}\n")


@pytest.mark.parametrize("write", [
    emit_timeseries_csv,
    emit_summary_json,
    lambda result, path: emit_snapshot_svg(result, 1, path),
    lambda result, path: result.graph.write_edge_list(path),
    write_report,
], ids=["csv", "json", "svg", "edges", "report"])
def test_write_error_names_the_file(small_run, tmp_path, write):
    path = tmp_path / "missing" / "out"
    with pytest.raises(OSError) as info:
        write(small_run, path)
    assert str(info.value) == f"writing {path}: No such file or directory"


class TestSummaryJson:
    def test_fields_and_condition(self, small_run, tmp_path):
        path = tmp_path / "s.json"
        emit_summary_json(small_run, path)
        data = json.loads(path.read_text())
        assert data["config"]["policy"] == "moderate"
        assert data["condition"] == "boundary_high"
        assert data["messages"]["total"] == \
            data["messages"]["growth"] + data["messages"]["maintenance"]
        fr = data["status_fractions"]
        assert sum(fr.values()) == pytest.approx(1.0, abs=1e-4)
        hosts = data["hosts"]
        assert hosts["discovered"] + hosts["undiscovered"] == hosts["universe"]

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("previous\n")
        result = run(SimConfig(n_max=5, h_max=10))
        result.config = None  # summary_dict fails after the file was opened
        with pytest.raises(AttributeError):
            emit_summary_json(result, path)
        assert [p.name for p in tmp_path.iterdir()] == ["s.json"]
        assert path.read_text() == "previous\n"

    def test_csv_json_consistency(self, small_run, tmp_path):
        # Final CSV cumulative totals equal the JSON phase subtotal sums.
        csv_path = tmp_path / "ts.csv"
        emit_timeseries_csv(small_run, csv_path)
        last = csv_path.read_text().splitlines()[-1].split(",")
        summ = summary_dict(small_run)
        assert int(last[3]) == summ["messages"]["growth"] + summ["messages"]["maintenance"]
        assert int(last[3]) == summ["messages"]["total"]

    @pytest.mark.parametrize("policy", list(PolicyKind))
    def test_status_fractions_and_copies_match_recount(self, policy):
        # Straddle: supply 300 slots against a demand of 240..400 copies.
        result = run(SimConfig(n_max=80, h_max=60, seed=4, policy=policy))
        fams = result.families
        counts = [0, 0, 0, 0]
        for f in fams.values():
            counts[status_of(f.copy_count, f.r_min, f.r_max).value - 1] += 1
        n = len(fams)
        summ = summary_dict(result)
        assert summ["status_fractions"] == {
            "none_made": round(counts[0] / n, 6), "partial": round(counts[1] / n, 6),
            "at_min": round(counts[2] / n, 6), "at_max": round(counts[3] / n, 6),
        }
        assert summ["copies_held"] == sum(f.copy_count for f in fams.values())


class TestSnapshots:
    def test_state_at_zero_is_empty(self, small_run):
        copies, used, discovered = snapshot_state(small_run, 0)
        assert not copies
        assert not used
        assert not discovered

    def test_state_at_end_matches_final(self, small_run):
        copies, used, _ = snapshot_state(small_run, small_run.final_t)
        final = {d: f.copy_count for d, f in small_run.families.items()}
        assert copies == final
        assert used == {h.host_id: h.used for h in small_run.hosts.values() if h.used}

    @pytest.mark.parametrize("policy", list(PolicyKind))
    def test_mid_run_states_match_live_world(self, policy):
        ts = (1, 16, 300, 601, 900, 1190)
        live = {}

        def hook(world, event):
            if world.t in ts:
                live[world.t] = (
                    {do: f.copy_count for do, f in world.families.items()},
                    {h: host.used for h, host in world.hosts.items() if host.used},
                    set(world.hosts),
                    world.sacrifices,
                )

        result = run(SimConfig(n_max=80, h_max=60, seed=4, policy=policy), hook)
        assert sorted(live) == list(ts)
        assert live[ts[-1]][3] > 0  # copy removals are replayed too
        for t, (copies, used, discovered, _) in live.items():
            got_copies, got_used, got_discovered = snapshot_state(result, t)
            assert got_copies == copies
            assert {h: u for h, u in got_used.items() if u} == used
            assert got_discovered == discovered

    def test_beyond_run_rejected(self, small_run, tmp_path):
        with pytest.raises(ValueError):
            emit_snapshot_svg(small_run, small_run.final_t + 1, tmp_path / "x.svg")

    def test_snapshot_at_zero_all_grey(self, small_run, tmp_path):
        path = tmp_path / "t0.svg"
        emit_snapshot_svg(small_run, 0, path)
        text = path.read_text()
        assert text.count("#bbbbbb") == small_run.config.h_max
        assert "<circle" not in text  # no DOs yet

    def test_final_snapshot_renders_all_dos(self, small_run, tmp_path):
        path = tmp_path / "tend.svg"
        emit_snapshot_svg(small_run, small_run.final_t, path)
        text = path.read_text()
        assert text.count("<circle") == small_run.config.n_max
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
