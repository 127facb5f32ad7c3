import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import uswsim
from uswsim.analysis import summary_dict
from uswsim.cli import (
    CONFIG_TABLE,
    _worker_count,
    build_parser,
    compare_policies,
    config_from_args,
    main,
    sweep_sizes,
)
from uswsim.engine import run
from uswsim.model import PolicyKind, SimConfig

FAST = ["--n-max", "30", "--h-max", "60", "--max-events", "20000"]
SRC = str(Path(uswsim.__file__).resolve().parent.parent)


def _two_cores_at_most():
    """Let a child run on at most two of this process's cores, so that its
    default ``--jobs`` starts at most two workers."""
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])


def invoke(argv, cwd=None, env_extra=None):
    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "uswsim.cli", *argv],
                          capture_output=True, text=True, cwd=cwd, env=env,
                          preexec_fn=_two_cores_at_most
                          if hasattr(os, "sched_setaffinity") else None)


class TestParsing:
    def test_defaults_mirror_reference_config(self):
        args = build_parser().parse_args(["run"])
        cfg = config_from_args(args)
        assert (cfg.n_max, cfg.h_max, cfg.r_min, cfg.r_max, cfg.host_capacity) == \
            (500, 1000, 3, 5, 5)
        assert cfg.policy is PolicyKind.LEAST

    def test_policy_and_seed_mapping(self):
        args = build_parser().parse_args(["run", "--policy", "most", "--seed", "42"])
        cfg = config_from_args(args)
        assert cfg.policy is PolicyKind.MOST
        assert cfg.seed == 42

    def test_inverted_bounds_usage_error(self):
        proc = invoke(["run", "--r-min", "6", "--r-max", "5"])
        assert proc.returncode == 1

    def test_unknown_flag_usage_error(self):
        proc = invoke(["run", "--frobnicate", "3"])
        assert proc.returncode == 1

    def test_unparsable_number_usage_error(self):
        proc = invoke(["run", "--n-max", "many"])
        assert proc.returncode == 1

    def test_help_lists_every_flag_with_default(self):
        proc = invoke(["run", "--help"])
        assert proc.returncode == 0
        for flag in ("--policy", "--n-max", "--h-max", "--r-min", "--r-max",
                     "--capacity", "--seed", "--bin-size", "--intro-interval",
                     "--link-prob", "--extra-link-frac", "--max-events",
                     "--out-dir", "--snapshots", "--config"):
            assert flag in proc.stdout
        assert "default: 500" in proc.stdout
        assert "default: 1000" in proc.stdout

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"n_max": 77, "seed": 9}))
        args = build_parser().parse_args(
            ["run", "--config", str(cfg_file), "--seed", "4"])
        cfg = config_from_args(args)
        assert cfg.n_max == 77   # from file
        assert cfg.seed == 4     # flag wins

    @pytest.mark.parametrize("values, message", [({"n_maxx": 5}, "n_maxx"),
                                                  (["n_max", 5], "JSON object")])
    def test_unknown_config_key_rejected(self, tmp_path, values, message):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps(values))
        out = tmp_path / "out"
        proc = invoke(["run", *FAST, "--config", str(cfg_file), "--out-dir", str(out)])
        assert proc.returncode == 1
        assert message in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read config file: No such file or directory"),
        ("directory", "cannot read config file: Is a directory"),
        (b"{", "config file is not valid JSON: Expecting property name"),
        (b'\xff{"seed": 1}', "config file is not valid JSON: 'utf-8' codec"),
    ], ids=["missing", "unreadable", "bad-json", "bad-utf8"])
    @pytest.mark.parametrize("command", ["run", "compare", "sweep"])
    def test_bad_config_file_rejected(self, tmp_path, capsys, command, content, message):
        cfg_file = tmp_path / "c.json"
        if content == "directory":
            cfg_file.mkdir()
        elif content is not None:
            cfg_file.write_bytes(content)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_file), "--out-dir", str(out)]) == 1
        assert f"uswsim: error: {cfg_file}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values, message", [
        ({"policy": 3}, "policy must be one of least, moderate, most, got 3"),
        ({"n_max": 20.9}, "n_max must be an integer, got 20.9"),
        ({"seed": True}, "seed must be an integer, got true"),
        ({"link_prob": "0.5"}, 'link_prob must be a number, got "0.5"'),
    ])
    def test_bad_config_value_rejected_before_run(self, tmp_path, values, message):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps(values))
        out = tmp_path / "out"
        proc = invoke(["run", *FAST, "--config", str(cfg_file), "--out-dir", str(out)])
        assert proc.returncode == 1
        assert message in proc.stderr
        assert not out.exists()


def _non_default(field):
    """A valid value for ``field`` that differs from its default."""
    default = getattr(SimConfig(), field)
    if isinstance(default, PolicyKind):
        return next(kind for kind in PolicyKind if kind is not default)
    return default + 1 if isinstance(default, int) else default / 2


class TestConfigTable:
    def test_table_covers_every_config_field(self):
        assert sorted(field for _, field, _ in CONFIG_TABLE) == \
            sorted(f.name for f in fields(SimConfig))

    @pytest.mark.parametrize("dest, field", [(dest, field) for dest, field, _ in CONFIG_TABLE])
    def test_flag_and_config_key_reach_the_config(self, tmp_path, dest, field):
        value = _non_default(field)
        text = value.value if isinstance(value, PolicyKind) else value
        flag = build_parser().parse_args(["run", "--" + dest.replace("_", "-"), str(text)])
        assert getattr(config_from_args(flag), field) == value
        cfg_file = tmp_path / "c.json"
        for key in (dest, field):
            cfg_file.write_text(json.dumps({key: text}))
            from_file = build_parser().parse_args(["run", "--config", str(cfg_file)])
            assert getattr(config_from_args(from_file), field) == value

    @pytest.mark.parametrize("dest, field", [(dest, field) for dest, field, _ in CONFIG_TABLE
                                             if dest != field])
    def test_flag_and_field_name_together_rejected(self, tmp_path, capsys, dest, field):
        value = _non_default(field)
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({dest: value, field: value}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_file), "--out-dir", str(out)]) == 1
        assert f"name one parameter twice: {dest} and {field}" in capsys.readouterr().err
        assert not out.exists()

    def test_summary_config_rebuilds_the_run_config(self):
        cfg = SimConfig(n_max=5, h_max=10, policy=PolicyKind.MOST, seed=3)
        written = summary_dict(run(cfg))["config"]
        assert sorted(written) == sorted(f.name for f in fields(SimConfig))
        assert SimConfig(**{**written, "policy": PolicyKind(written["policy"])}) == cfg


class TestRunCommand:
    def test_summary_config_feeds_back_as_config_file(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        proc = invoke(["run", *FAST, "--policy", "most", "--seed", "6", "--capacity", "3",
                       "--link-prob", "0.7", "--extra-link-frac", "0.2",
                       "--out-dir", str(first)])
        assert proc.returncode == 0, proc.stderr
        summary = first / "run_most_n30_seed6.json"
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps(json.loads(summary.read_text())["config"]))
        proc = invoke(["run", "--config", str(cfg_file), "--out-dir", str(second)])
        assert proc.returncode == 0, proc.stderr
        assert (second / summary.name).read_bytes() == summary.read_bytes()

    def test_outputs_named_after_policy_n_seed(self, tmp_path):
        proc = invoke(["run", *FAST, "--policy", "moderate", "--seed", "7",
                       "--out-dir", str(tmp_path)])
        assert proc.returncode == 0
        base = tmp_path / "run_moderate_n30_seed7"
        assert base.with_suffix(".csv").exists()
        assert base.with_suffix(".json").exists()

    def test_snapshots_and_edge_list(self, tmp_path):
        proc = invoke(["run", *FAST, "--seed", "3", "--snapshots", "0,100",
                       "--edge-list", "--out-dir", str(tmp_path)])
        assert proc.returncode == 0
        assert (tmp_path / "run_least_n30_seed3_t0.svg").exists()
        assert (tmp_path / "run_least_n30_seed3_t100.svg").exists()
        assert (tmp_path / "run_least_n30_seed3.edges").exists()

    @pytest.mark.parametrize("times", ["abc", "0,-5"])
    def test_bad_snapshot_time_rejected_before_run(self, tmp_path, times):
        out = tmp_path / "out"
        proc = invoke(["run", *FAST, f"--snapshots={times}", "--out-dir", str(out)])
        assert proc.returncode == 1
        assert not out.exists()

    def test_snapshot_beyond_run_rejected_before_export(self, tmp_path):
        out = tmp_path / "out"
        proc = invoke(["run", *FAST, "--snapshots", "0,100000000", "--out-dir", str(out)])
        assert proc.returncode == 1
        assert "100000000" in proc.stderr
        assert not out.exists()

    def test_snapshot_beyond_max_events_rejected_before_run(self, tmp_path, capsys):
        # A 5000-DO run would take seconds; the time is refused from the
        # flags alone, by the check that names max_events.
        out = tmp_path / "out"
        assert main(["run", "--n-max", "5000", "--h-max", "10000",
                     "--snapshots", "0,500001", "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "snapshot time 500001 is beyond max_events=500000" in err
        assert not out.exists()

    def test_snapshot_after_last_event_rejected_after_run(self, tmp_path, capsys):
        # Within max_events, but the run reaches quiescence long before.
        out = tmp_path / "out"
        assert main(["run", *FAST, "--snapshots", "19000", "--out-dir", str(out)]) == 1
        assert "beyond the run's last event" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_export_leaves_no_outputs(self, tmp_path):
        # A directory where the second snapshot should go makes that export
        # fail after the CSV, JSON, edge list and first snapshot were written.
        (tmp_path / "run_least_n200_seed1_t1500.svg").mkdir()
        proc = invoke(["run", "--n-max", "200", "--h-max", "400", "--seed", "1",
                       "--snapshots", "100,1500", "--edge-list", "--out-dir", str(tmp_path)])
        assert proc.returncode == 2
        assert [p.name for p in tmp_path.iterdir()] == ["run_least_n200_seed1_t1500.svg"]

    def test_out_dir_from_environment(self, tmp_path):
        proc = invoke(["run", *FAST, "--seed", "2"],
                      env_extra={"USWSIM_OUT": str(tmp_path)})
        assert proc.returncode == 0
        assert (tmp_path / "run_least_n30_seed2.json").exists()


class TestCompareCommand:
    def test_single_policy_rejected(self):
        proc = invoke(["compare", "--policies", "least", *FAST])
        assert proc.returncode == 1

    @pytest.mark.parametrize("policies", ["least,least", "least,most,least"])
    def test_repeated_policy_rejected_before_out_dir(self, tmp_path, capsys, policies):
        out = tmp_path / "out"
        rc = main(["compare", "--policies", policies, "--seeds", "2", *FAST,
                   "--out-dir", str(out)])
        assert rc == 1
        assert "uswsim: error:" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_policy_rejected(self):
        proc = invoke(["compare", "--policies", "least,extreme", *FAST])
        assert proc.returncode == 1

    def test_zero_seeds_rejected(self, tmp_path):
        out = tmp_path / "out"
        proc = invoke(["compare", "--seeds", "0", *FAST, "--out-dir", str(out)])
        assert proc.returncode == 1
        assert not out.exists()

    def test_two_policy_table(self, tmp_path):
        proc = invoke(["compare", "--policies", "moderate,most", "--seeds", "2",
                       *FAST, "--out-dir", str(tmp_path)])
        assert proc.returncode == 0
        assert "message ratio most/moderate" in proc.stdout
        report = json.loads((tmp_path / "compare_n30_seeds2.json").read_text())
        assert set(report["policies"]) == {"moderate", "most"}
        assert report["seed_count"] == 2

    def test_capped_runs_report_no_steady_state_time(self, tmp_path):
        proc = invoke(["compare", "--policies", "least,most", "--seeds", "2", *FAST,
                       "--max-events", "300", "--out-dir", str(tmp_path)])
        assert proc.returncode == 0
        report = json.loads((tmp_path / "compare_n30_seeds2.json").read_text())
        for row in report["policies"].values():
            assert row["median_steady_state_t"] is None
        table = proc.stdout.splitlines()
        assert [line.split()[1] for line in table[1:3]] == ["-", "-"]


    def test_zero_moderate_median_reports_no_ratio(self, tmp_path, capsys):
        # A lone DO sends no message, so Moderate's median is 0.
        report = compare_policies(list(PolicyKind), SimConfig(n_max=1, h_max=5), [1, 2],
                                  jobs=1)
        assert report["policies"]["moderate"]["median_total_messages"] == 0
        assert report["most_over_moderate_messages"] is None
        rc = main(["compare", "--n-max", "1", "--h-max", "5", "--seeds", "2", "--jobs", "1",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[-1] == "message ratio most/moderate: -"
        written = json.loads((tmp_path / "compare_n1_seeds2.json").read_text())
        assert written == report


@pytest.mark.parametrize("command", [["compare", "--seeds", "1", *FAST],
                                     ["sweep", "--sizes", "5,10,20", "--h-max", "60"]])
def test_zero_jobs_rejected(tmp_path, command):
    out = tmp_path / "out"
    proc = invoke([*command, "--jobs", "0", "--out-dir", str(out)])
    assert proc.returncode == 1
    assert not out.exists()


@pytest.mark.parametrize("command, dest, value", [
    ("compare", "policy", "most"), ("compare", "seed", 99),
    ("sweep", "policy", "most"), ("sweep", "n_max", 7), ("sweep", "capacity", 1),
])
def test_flag_the_command_overrides_rejected(tmp_path, capsys, command, dest, value):
    # compare sets each run's policy and seed, sweep its policy, n_max and
    # capacity: such a flag is a usage error, made before any output
    # directory.  The same key in --config (a summary's config) is accepted.
    out = tmp_path / "out"
    flag = "--" + dest.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        main([command, flag, str(value), "--out-dir", str(out)])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({dest: value}))
    cfg = config_from_args(build_parser().parse_args([command, "--config", str(cfg_file)]))
    field = {d: f for d, f, _ in CONFIG_TABLE}[dest]
    assert getattr(cfg, field) == (PolicyKind(value) if dest == "policy" else value)


class TestSweepCommand:
    def test_single_size_rejected(self):
        proc = invoke(["sweep", "--sizes", "10"])
        assert proc.returncode == 1

    def test_descending_sizes_rejected(self):
        proc = invoke(["sweep", "--sizes", "100,50,10"])
        assert proc.returncode == 1

    @pytest.mark.parametrize("sizes,message", [
        ("10,x,50", "size 'x' is not an integer"),
        ("10,10,20", "sizes must be distinct"),
    ])
    def test_bad_sizes_rejected_before_out_dir(self, tmp_path, sizes, message):
        out = tmp_path / "out"
        proc = invoke(["sweep", "--sizes", sizes, "--out-dir", str(out)])
        assert proc.returncode == 1
        assert f"uswsim: error: {message}" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"], ids=["jobs1", "jobs2"])
    @pytest.mark.parametrize("blocked", ["run_most_n25_seed1.csv", "sweep_10-20-25.json"])
    def test_failed_sweep_leaves_no_outputs(self, tmp_path, blocked, jobs):
        # A directory where a member CSV or the summary should go makes that
        # write fail.  The largest members run first, so a blocked n=25 CSV
        # fails while other members are queued or still running.
        (tmp_path / blocked).mkdir()
        proc = invoke(["sweep", "--sizes", "10,20,25", "--jobs", jobs,
                       "--out-dir", str(tmp_path)])
        assert proc.returncode == 2
        assert [p.name for p in tmp_path.iterdir()] == [blocked]

    def test_small_sweep_fits_all_policies(self, tmp_path):
        proc = invoke(["sweep", "--sizes", "5,10,20", "--h-max", "60",
                       "--out-dir", str(tmp_path)])
        assert proc.returncode == 0
        report = json.loads((tmp_path / "sweep_5-10-20.json").read_text())
        assert set(report) == {"least", "moderate", "most"}
        for row in report.values():
            assert row["sizes"] == [5, 10, 20]
            assert all(t > 0 for t in row["growth_totals"])


class TestAnalyzeCommand:
    def test_digest_of_stored_summaries(self, tmp_path):
        invoke(["run", *FAST, "--seed", "5", "--out-dir", str(tmp_path)])
        summary = tmp_path / "run_least_n30_seed5.json"
        proc = invoke(["analyze", str(summary)])
        assert proc.returncode == 0
        assert "least" in proc.stdout

    def test_capped_run_shows_no_steady_state_time(self, tmp_path):
        invoke(["run", *FAST, "--max-events", "300", "--out-dir", str(tmp_path)])
        proc = invoke(["analyze", str(tmp_path / "run_least_n30_seed1.json")])
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1].split()[2] == "-"

    def test_missing_input_is_runtime_failure(self):
        proc = invoke(["analyze", "/nonexistent/path.json"])
        assert proc.returncode == 2

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read summary"),
        ("{not json", "summary is not valid JSON"),
        (b"\xff\xfe", "summary is not valid JSON"),
        ("[1, 2]", "not a run summary"),
        ('{"policies": {}, "seed_count": 2}', "not a run summary"),
        ('{"config": {"policy": "least"}, "steady_state_t": 5, "messages": 7,'
         ' "final_effectiveness": 0.5}', "not a run summary"),
        ('{"config": {"policy": "least"}, "steady_state_t": 5, "messages": {"total": 7},'
         ' "final_effectiveness": "high"}', "not a run summary"),
    ], ids=["missing", "bad-json", "bad-utf8", "list", "compare-report", "messages-number",
            "effectiveness-string"])
    def test_bad_input_named_before_any_output(self, tmp_path, capsys, content, message):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(summary_dict(run(SimConfig(n_max=5, h_max=10)))))
        bad = tmp_path / "bad.json"
        if isinstance(content, str):
            bad.write_text(content)
        elif content is not None:
            bad.write_bytes(content)
        # The good file comes first: its row must not be printed either.
        rc = main(["analyze", str(good), str(bad)])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"uswsim: failed: {bad}: {message}")


class TestInProcessMain:
    def test_main_returns_zero(self, tmp_path):
        rc = main(["run", *FAST, "--seed", "8", "--out-dir", str(tmp_path)])
        assert rc == 0


class TestParallelJobs:
    # Each command runs with --jobs 1, with --jobs 2 and with no --jobs,
    # which means every usable core (two at most under invoke), and must
    # write the same bytes each time.
    JOBS = {"serial": ["--jobs", "1"], "two": ["--jobs", "2"], "default": []}

    def outputs(self, tmp_path, argv):
        written = {}
        for label, jobs in self.JOBS.items():
            out = tmp_path / label
            proc = invoke([*argv, *jobs, "--out-dir", str(out)])
            assert proc.returncode == 0, proc.stderr
            written[label] = {p.name: p.read_bytes() for p in out.iterdir()}
        return written

    def test_compare_with_workers_matches_serial(self, tmp_path):
        outputs = self.outputs(tmp_path, ["compare", "--policies", "least,most",
                                          "--seeds", "2", *FAST])
        assert list(outputs["serial"]) == ["compare_n30_seeds2.json"]
        assert outputs["two"] == outputs["serial"]
        assert outputs["default"] == outputs["serial"]

    def test_sweep_with_workers_matches_serial(self, tmp_path):
        outputs = self.outputs(tmp_path, ["sweep", "--sizes", "5,10,20", "--h-max", "60"])
        assert len(outputs["serial"]) == 10 and "sweep_5-10-20.json" in outputs["serial"]
        assert outputs["two"] == outputs["serial"]
        assert outputs["default"] == outputs["serial"]

    def test_library_sweep_default_matches_serial(self, tmp_path, monkeypatch):
        # Two usable cores, so the default starts two workers on any machine.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        fits, files = {}, {}
        for jobs in (1, None):
            out = tmp_path / str(jobs)
            out.mkdir()
            fits[jobs] = sweep_sizes([5, 10, 20], SimConfig(h_max=60, seed=4),
                                     out_dir=str(out), jobs=jobs)
            files[jobs] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert fits[None] == fits[1]
        assert len(files[1]) == 9 and files[None] == files[1]

    def test_default_worker_count_is_usable_cores_capped_by_members(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert _worker_count(None, 9) == 3
        assert _worker_count(None, 2) == 2
        assert _worker_count(5, 9) == 5
        assert _worker_count(5, 1) == 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert _worker_count(None, 9) == 4


# The calls that need numpy, and the scaling fit, on small inputs.  They run
# in the pytest process and in the child below, and must give the same values.
NUMPY_CALLS = """
from random import Random
from uswsim.analysis import fit_growth_exponent
from uswsim.graph import avg_path_length, clustering_coefficient, grow_graph, uniform_random_graph
grown = grow_graph(150, seed=4)
baseline = uniform_random_graph(150, grown.edge_count, Random(11))
fit = fit_growth_exponent([(10, 50), (20, 130), (40, 300), (80, 700)])
values = [clustering_coefficient(grown), avg_path_length(grown), baseline.edges(),
          clustering_coefficient(baseline), fit.slope, fit.marginal_slope]
"""

# Runs run, compare --jobs 1 and analyze in a fresh interpreter and notes
# which heavy modules they loaded.  Then sweep --jobs 1 runs, which must load
# neither numpy (its fit is plain Python) nor multiprocessing.  Last come the
# numpy calls.  The last stdout line is the JSON result.
COLD_START = """
import json, sys
src, out, fast, heavy = sys.argv[1], sys.argv[2], json.loads(sys.argv[3]), sys.argv[4:]
sys.path.insert(0, src)
from uswsim.cli import main
assert main(["run", *fast, "--seed", "3", "--snapshots", "0,100", "--edge-list",
             "--out-dir", out]) == 0
assert main(["compare", "--policies", "least,most", "--seeds", "1", "--jobs", "1", *fast,
             "--out-dir", out]) == 0
assert main(["analyze", out + "/run_least_n30_seed3.json"]) == 0
loaded = [name for name in heavy if name in sys.modules]
assert main(["sweep", "--sizes", "5,10,20", "--h-max", "60", "--jobs", "1",
             "--out-dir", out]) == 0
loaded_by_sweep = [name for name in heavy if name in sys.modules]
""" + NUMPY_CALLS + """
numpy_after = "numpy" in sys.modules
print(json.dumps({"loaded": loaded, "numpy_after": numpy_after, "values": values,
                  "loaded_by_sweep": loaded_by_sweep}))
"""


def test_run_compare_analyze_start_without_numpy_or_multiprocessing(tmp_path):
    heavy = ["numpy", "multiprocessing", "concurrent.futures.process"]
    proc = subprocess.run([sys.executable, "-c", COLD_START, SRC, str(tmp_path),
                           json.dumps(FAST), *heavy], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout.splitlines()[-1])
    assert child["loaded"] == []
    assert child["numpy_after"]
    assert child["loaded_by_sweep"] == []
    here = {}
    exec(NUMPY_CALLS, here)
    assert child["values"] == json.loads(json.dumps(here["values"]))
