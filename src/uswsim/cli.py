"""Command-line front end: single runs, policy comparisons, size sweeps
and post-hoc analysis of stored summaries.

Exit codes: 0 on success, 1 for usage errors, 2 for runtime failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from functools import partial
from statistics import median

from .analysis import (
    emit_snapshot_svg,
    emit_summary_json,
    emit_timeseries_csv,
    fit_growth_exponent,
    summary_dict,
)
from .engine import run
from .fileio import atomic_write, removed_on_failure
from .model import PolicyKind, SimConfig

DEFAULTS = SimConfig()

# The run parameters, one row each: flag dest (also a --config key), the
# SimConfig field it sets (also a --config key, so a summary's config echo
# reads back), help text.  A value has the type of the field's
# default; the policy is one of the PolicyKind values.
CONFIG_TABLE = (
    ("policy", "policy", "preservation policy"),
    ("n_max", "n_max", "number of DOs to introduce"),
    ("h_max", "h_max", "size of the host universe"),
    ("r_min", "r_min", "minimum preservation copies"),
    ("r_max", "r_max", "maximum preservation copies"),
    ("capacity", "host_capacity", "foreign-copy slots per host"),
    ("seed", "seed", "random seed"),
    ("bin_size", "bin_size", "events per message bin"),
    ("intro_interval", "intro_interval", "events between introductions"),
    ("link_prob", "link_probability", "per-contact link probability"),
    ("extra_link_frac", "extra_link_fraction",
     "fraction of gleaned candidates befriended after the first link"),
    ("max_events", "max_events", "hard stop on event count"),
)
POLICIES = [kind.value for kind in PolicyKind]
JOBS_HELP = "worker processes (default: every usable core, at most one per run)"


class _Parser(argparse.ArgumentParser):
    # Exits 1 on usage errors.  No abbreviations: compare --seed is not --seeds.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_config_flags(p: _Parser, overridden=()):
    for dest, field, text in CONFIG_TABLE:
        if dest in overridden:  # the command sets it; a --config value is replaced
            continue
        default = getattr(DEFAULTS, field)
        if isinstance(default, PolicyKind):
            default, kind = default.value, {"choices": POLICIES}
        else:
            kind = {"type": type(default)}
        p.add_argument("--" + dest.replace("_", "-"), default=None,
                       help=f"{text} (default: {default})", **kind)
    p.add_argument("--config", metavar="FILE",
                   help="JSON file of flag values, keyed by flag or SimConfig field "
                        "name; explicit flags override it")
    p.add_argument("--out-dir", default=None,
                   help="output directory (default: $USWSIM_OUT or current directory)")


def build_parser() -> _Parser:
    parser = _Parser(prog="uswsim",
                     description="Simulate self-preserving digital objects on a "
                                 "small-world friendship graph.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one simulation run")
    _add_config_flags(p_run)
    p_run.add_argument("--snapshots", default="",
                       help="comma-separated event times to render as SVG snapshots")
    p_run.add_argument("--edge-list", action="store_true",
                       help="also write the final friendship graph as an edge list")

    p_cmp = sub.add_parser("compare", help="run several policies over a seed set")
    _add_config_flags(p_cmp, overridden=("policy", "seed"))
    p_cmp.add_argument("--policies", default="least,moderate,most",
                       help="comma-separated policies to compare (default: all three)")
    p_cmp.add_argument("--seeds", type=positive_int, default=20,
                       help="number of seeds, used as 1..N (default: 20)")
    p_cmp.add_argument("--jobs", type=positive_int, default=None, help=JOBS_HELP)

    p_swp = sub.add_parser("sweep", help="feast-condition scaling sweep over system sizes")
    _add_config_flags(p_swp, overridden=("policy", "n_max", "capacity"))
    p_swp.add_argument("--sizes", default="10,50,100,250,500",
                       help="comma-separated ascending DO counts (default: 10,50,100,250,500)")
    p_swp.add_argument("--jobs", type=positive_int, default=None, help=JOBS_HELP)

    p_ana = sub.add_parser("analyze", help="summarize stored summary JSON files")
    p_ana.add_argument("inputs", nargs="+", help="summary JSON paths")
    return parser


# What a --config value must be, by the type of its field's default.
_JSON_RULES = {
    int: ("an integer", lambda v: type(v) is int),
    float: ("a number", lambda v: type(v) in (int, float)),
    PolicyKind: ("one of " + ", ".join(POLICIES), lambda v: v in POLICIES),
}


def config_from_args(args) -> SimConfig:
    """Build a SimConfig from flags, falling back to --config values then
    package defaults; explicit flags always win."""
    file_vals = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_vals = json.load(fh)
        except OSError as exc:
            raise UsageError(f"{args.config}: cannot read config file: "
                             f"{exc.strerror}") from exc
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise UsageError(f"{args.config}: config file is not valid JSON: "
                             f"{exc}") from exc
        if not isinstance(file_vals, dict):
            raise UsageError(f"{args.config}: expected a JSON object of flag values")
        known = {key for dest, field, _ in CONFIG_TABLE for key in (dest, field)}
        unknown = sorted(set(file_vals) - known)
        if unknown:
            raise UsageError(f"{args.config}: unknown config keys: {', '.join(unknown)}")
        twice = [f"{dest} and {field}" for dest, field, _ in CONFIG_TABLE
                 if dest != field and dest in file_vals and field in file_vals]
        if twice:
            raise UsageError(f"{args.config}: config keys name one parameter twice: "
                             f"{', '.join(twice)}")
    values = {}
    for dest, field, _ in CONFIG_TABLE:
        kind = type(getattr(DEFAULTS, field))
        wanted, fits = _JSON_RULES[kind]
        key = field if field in file_vals else dest
        if key in file_vals and not fits(file_vals[key]):
            raise UsageError(f"{args.config}: {key} must be {wanted}, "
                             f"got {json.dumps(file_vals[key])}")
        value = getattr(args, dest, None)
        if value is None:
            value = file_vals.get(key)
        if value is not None:
            values[field] = kind(value)
    try:
        return SimConfig(**values)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


class UsageError(Exception):
    pass


def out_dir_of(args) -> str:
    out = args.out_dir or os.environ.get("USWSIM_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def run_name(config: SimConfig) -> str:
    return f"run_{config.policy.value}_n{config.n_max}_seed{config.seed}"


def _run_worker(config: SimConfig) -> dict:
    return summary_dict(run(config))


def _worker_count(jobs, members: int) -> int:
    """Worker processes for ``members`` runs: ``jobs``, or every core this
    process may run on when it is None, and never more than ``members``."""
    if jobs is None:
        try:
            jobs = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity call on this platform
            jobs = os.cpu_count() or 1
    return max(1, min(jobs, members))


def _map_members(fn, members, jobs):
    """``list(map(fn, members))`` on ``_worker_count(jobs, len(members))``
    processes.  One worker means this process, and no multiprocessing
    import.  When a member fails, queued members are cancelled and running
    ones finish before the error propagates, so none writes afterwards."""
    workers = _worker_count(jobs, len(members))
    if workers == 1:
        return list(map(fn, members))
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        return list(pool.map(fn, members))
    finally:
        pool.shutdown(cancel_futures=True)


def int_list(text: str, what: str) -> list[int]:
    """Comma-separated integers; a non-integer is a usage error naming ``what``."""
    values = []
    for part in [s for s in text.split(",") if s.strip()]:
        try:
            values.append(int(part))
        except ValueError:
            raise UsageError(f"{what} {part.strip()!r} is not an integer") from None
    return values


def snapshot_times(text: str, max_events: int) -> list[int]:
    """The --snapshots times; each must lie in [0, max_events], since no
    run lasts longer, so a bad time is rejected before the run."""
    times = int_list(text, "snapshot time")
    for t in times:
        if t < 0:
            raise UsageError(f"snapshot time {t} is negative")
        if t > max_events:
            raise UsageError(f"snapshot time {t} is beyond max_events={max_events}, "
                             f"where every run stops")
    return times


def cmd_run(args) -> int:
    config = config_from_args(args)
    snapshots = snapshot_times(args.snapshots, config.max_events)
    result = run(config)
    late = [t for t in snapshots if t > result.final_t]
    if late:
        raise UsageError(f"snapshot times {late} are beyond the run's last event "
                         f"t={result.final_t}")
    out = out_dir_of(args)
    base = os.path.join(out, run_name(config))
    exports = [(base + ".csv", lambda path: emit_timeseries_csv(result, path)),
               (base + ".json", lambda path: emit_summary_json(result, path))]
    if args.edge_list:
        exports.append((base + ".edges", result.graph.write_edge_list))
    for t in snapshots:
        exports.append((base + f"_t{t}.svg",
                        lambda path, t=t: emit_snapshot_svg(result, t, path)))
    with removed_on_failure() as written:
        for path, export in exports:
            export(path)
            written.append(path)
    print(f"{run_name(config)}: steady_state_t={result.steady_state_t} "
          f"messages={result.ledger.total} "
          f"effectiveness={result.final_effectiveness:.4f}")
    return 0


def compare_policies(policies, base_config: SimConfig, seeds, jobs=None):
    """Per-policy medians over a shared seed set, plus the Most/Moderate
    message ratio when both are present.  The runs go to ``jobs`` worker
    processes; None means every usable core."""
    configs = [(pol, replace(base_config, policy=pol, seed=s))
               for pol in policies for s in seeds]
    summaries = _map_members(_run_worker, [c for _, c in configs], jobs)
    by_policy = {}
    for (pol, _), summ in zip(configs, summaries):
        by_policy.setdefault(pol, []).append(summ)
    table = {}
    for pol, rows in by_policy.items():
        steady = [r["steady_state_t"] for r in rows]
        table[pol.value] = {
            "seeds": len(rows),
            # A run cut at max_events has no steady-state time to count.
            "median_steady_state_t": None if None in steady else median(steady),
            "median_total_messages": median([r["messages"]["total"] for r in rows]),
            "median_final_effectiveness": median([r["final_effectiveness"] for r in rows]),
            "median_hosts_with_unused_capacity": median(
                [r["hosts"]["with_unused_capacity"] for r in rows]),
            "median_zero_copy_fraction": median(
                [r["status_fractions"]["none_made"] for r in rows]),
        }
    report = {"policies": table, "seed_count": len(seeds)}
    if "most" in table and "moderate" in table:
        report["most_over_moderate_messages"] = round(
            table["most"]["median_total_messages"]
            / table["moderate"]["median_total_messages"], 6)
    return report


def _dash(value, spec="") -> str:
    """A table cell: ``value`` formatted by ``spec``, or "-" for None."""
    return "-" if value is None else format(value, spec)


def cmd_compare(args) -> int:
    names = [p.strip() for p in args.policies.split(",") if p.strip()]
    if len(names) < 2 or len(set(names)) < len(names):
        raise UsageError("compare needs at least 2 policies, each named once")
    bad = [n for n in names if n not in POLICIES]
    if bad:
        raise UsageError(f"unknown policies: {', '.join(bad)}")
    config = config_from_args(args)
    seeds = list(range(1, args.seeds + 1))
    report = compare_policies([PolicyKind(n) for n in names], config, seeds,
                              jobs=args.jobs)
    out = out_dir_of(args)
    path = os.path.join(out, f"compare_n{config.n_max}_seeds{args.seeds}.json")
    with atomic_write(path) as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    header = f"{'policy':>10} {'steady_t':>9} {'messages':>9} {'effect.':>8} {'unused_hosts':>13}"
    print(header)
    for name in names:
        row = report["policies"][name]
        print(f"{name:>10} {_dash(row['median_steady_state_t'], '.0f'):>9} "
              f"{row['median_total_messages']:>9.0f} "
              f"{row['median_final_effectiveness']:>8.4f} "
              f"{row['median_hosts_with_unused_capacity']:>13.0f}")
    if "most_over_moderate_messages" in report:
        print(f"message ratio most/moderate: {report['most_over_moderate_messages']:.3f}")
    return 0


def sweep_configs(sizes, base_config: SimConfig) -> list[SimConfig]:
    """The feast runs of a sweep: every policy at every size, capacity 2 x size."""
    return [replace(base_config, n_max=n, host_capacity=2 * n, policy=pol)
            for n in sizes for pol in PolicyKind]


def _member_csv(out_dir: str, config: SimConfig) -> str:
    return os.path.join(out_dir, run_name(config) + ".csv")


def _sweep_member(config: SimConfig, out_dir) -> int:
    """Run one sweep member, write its CSV when ``out_dir`` is set, and
    return its growth-phase message total.  The run never leaves the
    process that made it."""
    result = run(config)
    if out_dir is not None:
        emit_timeseries_csv(result, _member_csv(out_dir, config))
    return result.ledger.growth_messages


def sweep_sizes(sizes, base_config: SimConfig, out_dir=None, jobs=None):
    """Run ``sweep_configs``, largest first, on ``jobs`` worker processes
    (None: every usable core); growth-phase message totals feed the scaling
    fit.  A failed sweep removes every member CSV."""
    # Largest first, so no long run starts last while the other workers idle.
    configs = sorted(sweep_configs(sizes, base_config), key=lambda c: -c.n_max)
    with removed_on_failure() as written:
        if out_dir is not None:
            written += [_member_csv(out_dir, c) for c in configs]
        totals = _map_members(partial(_sweep_member, out_dir=out_dir), configs, jobs)
        growth = {}
        for cfg, total in zip(configs, totals):
            growth.setdefault(cfg.policy, []).append((cfg.n_max, total))
        return {pol.value: fit_growth_exponent(sorted(points))
                for pol, points in growth.items()}


def cmd_sweep(args) -> int:
    sizes = int_list(args.sizes, "size")
    if sizes != sorted(set(sizes)) or any(n < 2 for n in sizes):
        raise UsageError("sizes must be distinct, ascending and each at least 2")
    if len(sizes) < 3:
        raise UsageError("fit needs at least 3 sizes")
    config = config_from_args(args)
    out = out_dir_of(args)
    fits = sweep_sizes(sizes, config, out_dir=out, jobs=args.jobs)
    summary = {
        pol: {"sizes": fit.sizes, "growth_totals": fit.totals,
              "slope": round(fit.slope, 6),
              "marginal_slope": round(fit.marginal_slope, 6)
              if fit.marginal_slope is not None else None}
        for pol, fit in sorted(fits.items())
    }
    path = os.path.join(out, f"sweep_{'-'.join(map(str, sizes))}.json")
    # sweep_sizes removes its CSVs if it fails; they go too if the summary does.
    with removed_on_failure() as written:
        written += [_member_csv(out, c) for c in sweep_configs(sizes, config)]
        with atomic_write(path) as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    for pol, row in summary.items():
        print(f"{pol:>10}: slope={row['slope']:.3f} marginal={row['marginal_slope']}")
    return 0


def cmd_analyze(args) -> int:
    rows = []
    for path in args.inputs:
        with open(path, encoding="utf-8") as fh:
            rows.append((path, json.load(fh)))
    print(f"{'file':>40} {'policy':>10} {'steady_t':>9} {'messages':>9} {'effect.':>8}")
    for path, summ in rows:
        cfg = summ["config"]
        print(f"{os.path.basename(path):>40} {cfg['policy']:>10} "
              f"{_dash(summ['steady_state_t']):>9} "
              f"{summ['messages']['total']:>9} {summ['final_effectiveness']:>8.4f}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "compare":
            return cmd_compare(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_analyze(args)
    except UsageError as exc:
        print(f"uswsim: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 2
        print(f"uswsim: failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
