"""Post-run analytics and serialization: tree-ring layout, scaling fits,
CSV/JSON emission and snapshot SVGs.

Everything here is a pure transform of a finished run's World, so exports
are trivially reproducible: the same run yields byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .engine import World
from .fileio import atomic_write
from .model import HostBand, PreservationStatus, classify_condition, host_band, status_of


@dataclass(frozen=True)
class ScalingFit:
    sizes: list[int]
    totals: list[int]
    slope: float
    marginal_slope: float | None


def ring_capacity(ring: int) -> int:
    return 1 if ring == 0 else 8 * ring


def tree_ring_layout(dos: list[int]) -> dict[int, tuple[int, int]]:
    """Polar placement of DOs, ``{do: (ring, slot)}``, in introduction order:
    oldest at the center, rings filling outward.

    Ring 0 holds one DO, ring r holds 8r; slots fill clockwise from
    angle zero.
    """
    positions = {}
    ring = 0
    slot = 0
    cap = ring_capacity(0)
    for do in dos:
        if slot >= cap:
            ring += 1
            slot = 0
            cap = ring_capacity(ring)
        positions[do] = (ring, slot)
        slot += 1
    return positions


def _least_squares_slope(xs: list[float], ys: list[float]) -> float:
    """Slope of the least-squares line through the points (xs[i], ys[i]),
    by the closed form over mean-centred values: sum(dx * dy) / sum(dx**2).
    The xs must not all be equal."""
    mx = math.fsum(xs) / len(xs)
    my = math.fsum(ys) / len(ys)
    dxs = [x - mx for x in xs]
    return (math.fsum(dx * (y - my) for dx, y in zip(dxs, ys))
            / math.fsum(dx * dx for dx in dxs))


def fit_growth_exponent(sweep: list[tuple[int, int]]) -> ScalingFit:
    """Least-squares slope of log(total) against log(size).

    Also fits the marginal cost per added DO from successive differences,
    against the geometric midpoint of each size interval; that slope is
    None when fewer than two positive differences exist, or when they all
    share one midpoint.
    """
    if len(sweep) < 3:
        raise ValueError("fit needs at least 3 sizes")
    sizes = [n for n, _ in sweep]
    totals = [t for _, t in sweep]
    if len(set(sizes)) != len(sizes):
        raise ValueError("sizes must be distinct")
    if any(t <= 0 for t in totals):
        raise ValueError("totals must be positive")
    slope = _least_squares_slope([math.log(n) for n in sizes], [math.log(t) for t in totals])

    marg_x, marg_y = [], []
    for (n1, t1), (n2, t2) in zip(sweep, sweep[1:]):
        dt = (t2 - t1) / (n2 - n1)
        if dt > 0:
            marg_x.append(math.log(math.sqrt(n1 * n2)))
            marg_y.append(math.log(dt))
    marginal = None
    if len(set(marg_x)) >= 2:
        marginal = _least_squares_slope(marg_x, marg_y)
    return ScalingFit(sizes, totals, slope, marginal)


CSV_HEADER = ("t,phase,effectiveness,cum_sent,"
              "do_none,do_partial,do_at_min,do_at_max,"
              "host_grey,host_white,host_red,host_yellow,host_green,host_blue")


def emit_timeseries_csv(result: World, path):
    """One row per time bin with status and host-band fractions."""
    boundary = result.phase_boundary_t
    with atomic_write(path) as fh:
        fh.write(CSV_HEADER + "\n")
        for i, t in enumerate(result.bin_ts):
            # The ledger counts the boundary event itself as growth.
            phase = "growth" if boundary is None or t <= boundary else "maintenance"
            do_f = result.status_series[i]
            ho_f = result.host_series[i]
            row = [str(t), phase, f"{result.effectiveness_series[i]:.6f}",
                   str(result.cum_sent_series[i])]
            row += [f"{v:.6f}" for v in do_f]
            row += [f"{v:.6f}" for v in ho_f]
            fh.write(",".join(row) + "\n")


def summary_dict(result: World) -> dict:
    hosts = result.hosts
    h_max = result.config.h_max
    # run() always samples a last bin at final_t, over every family.
    none_made, partial, at_min, at_max = result.status_series[-1]
    full = sum(1 for h in hosts.values() if h.used == h.capacity)
    ledger = result.ledger
    growth = ledger.growth_messages
    cfg = result.config
    return {
        "config": {**asdict(cfg), "policy": cfg.policy.value},
        "seed": cfg.seed,
        "condition": classify_condition(cfg).value,
        "terminated_by": result.terminated_by,
        "steady_state_t": result.steady_state_t,
        "final_t": result.final_t,
        "phase_boundary_t": result.phase_boundary_t,
        "messages": {"total": ledger.total, "growth": growth,
                     "maintenance": ledger.total - growth},
        "final_effectiveness": round(result.final_effectiveness, 6),
        "status_fractions": {
            "none_made": round(none_made, 6),
            "partial": round(partial, 6),
            "at_min": round(at_min, 6),
            "at_max": round(at_max, 6),
        },
        "hosts": {
            "universe": h_max,
            "discovered": len(hosts),
            "undiscovered": h_max - len(hosts),
            "full": full,
            "with_unused_capacity": len(hosts) - full,
            "holding_no_copies": result.host_band_counts["white"],
        },
        "graph_edges": result.graph.edge_count,
        "copies_held": sum(f.copy_count for f in result.families.values()),
        "placements": result.placements,
        "sacrifices": result.sacrifices,
        "denials": result.denials,
    }


def emit_summary_json(result: World, path):
    with atomic_write(path) as fh:
        json.dump(summary_dict(result), fh, indent=2, sort_keys=True)
        fh.write("\n")


def snapshot_state(result: World, t: int):
    """Reconstruct per-family copy counts, host usage and discovered hosts
    as of event t.  A family asks only its friends' homes and hosts that
    took a copy, starting from its own home, so every host asked is a home:
    the hosts discovered by t are the homes of the DOs introduced by t."""
    if t < 0 or t > result.final_t:
        raise ValueError(f"snapshot t={t} outside run of length {result.final_t}")
    joined = [f for f in result.families.values() if f.intro_t <= t]
    copies = {f.do_id: 0 for f in joined}
    used = {}
    for et, do, host, delta in result.copy_events:
        if et > t:
            break
        copies[do] = copies.get(do, 0) + delta
        used[host] = used.get(host, 0) + delta
    discovered = {f.home_host for f in joined}
    return copies, used, discovered


_STATUS_FILL = {1: "#d62728", 2: "#e6c229", 3: "#2ca02c", 4: "#1f77b4"}
_BAND_FILL = {
    HostBand.GREY: "#bbbbbb", HostBand.WHITE: "#ffffff", HostBand.RED: "#d62728",
    HostBand.YELLOW: "#e6c229", HostBand.GREEN: "#2ca02c", HostBand.BLUE: "#1f77b4",
}
# Histogram colours in series column order: statuses by rank, bands as declared.
_STATUS_COLS = [_STATUS_FILL[s.value] for s in PreservationStatus]
_HOST_COLS = [_BAND_FILL[band] for band in HostBand]


def _svg_histogram(series, colors, x0, y0, width, height, upto):
    """Stacked per-bin fraction bars as SVG rects."""
    parts = []
    count = max(upto, 1)
    bar_w = width / count
    for i in range(upto):
        fracs = series[i]
        y = y0 + height
        for frac, color in zip(fracs, colors):
            h = frac * height
            if h <= 0:
                continue
            y -= h
            parts.append(f'<rect x="{x0 + i * bar_w:.2f}" y="{y:.2f}" '
                         f'width="{max(bar_w, 0.5):.2f}" height="{h:.2f}" fill="{color}"/>')
    parts.append(f'<rect x="{x0}" y="{y0}" width="{width}" height="{height}" '
                 f'fill="none" stroke="#333" stroke-width="1"/>')
    return parts


def emit_snapshot_svg(result: World, t: int, path):
    """Four-quadrant composite: DO tree ring, host grid, both histograms.

    The status line above each half reports the simulation time and how
    many DOs exist or how many hosts hold data.
    """
    copies, used, discovered = snapshot_state(result, t)
    cfg = result.config
    width, height = 960, 640
    half = width // 2
    plot_h = 420
    hist_y = 470
    hist_h = 130

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="#fafafa"/>']

    active_hosts = sum(1 for h, u in used.items() if u > 0)
    parts.append(f'<text x="{half // 2}" y="24" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="14">t={t} DOs={len(copies)}</text>')
    parts.append(f'<text x="{half + half // 2}" y="24" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="14">t={t} hosts preserving={active_hosts}</text>')

    # Left: tree-ring plot of DO statuses.  Every family has the config's
    # r_min/r_max, so each dot's tail (size and status fill) is tabulated
    # by copy count.
    order = sorted(copies)
    layout = tree_ring_layout(order)
    max_ring = max((r for r, _ in layout.values()), default=0)
    cx, cy = half // 2, 40 + plot_h // 2
    radius_step = (plot_h // 2 - 10) / max(max_ring, 1)
    dot = max(2.0, min(8.0, radius_step / 2.2))
    dot_tail = [f'" r="{dot:.2f}" fill="{_STATUS_FILL[status_of(c, cfg.r_min, cfg.r_max).value]}"'
                f' stroke="#333" stroke-width="0.3"/>' for c in range(cfg.r_max + 1)]
    for do in order:
        ring, slot = layout[do]
        if ring == 0:
            x, y = cx, cy
        else:
            angle = 2 * math.pi * slot / ring_capacity(ring)
            x = cx + ring * radius_step * math.sin(angle)
            y = cy - ring * radius_step * math.cos(angle)
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}' + dot_tail[copies[do]])

    # Right: host grid over the whole universe, by sequence number.  Each
    # cell joins its column's x, its row's y and size, and the fill of its
    # band, each formatted once: undiscovered hosts are grey, the rest
    # banded by slots used.
    cols = math.ceil(math.sqrt(cfg.h_max))
    rows = math.ceil(cfg.h_max / cols)
    cell = min((half - 40) / cols, plot_h / rows)
    gx, gy = half + 20, 40
    col_x = [f'<rect x="{gx + col * cell:.2f}" y="' for col in range(cols)]
    row_y = [f'{gy + row * cell:.2f}" width="{cell:.2f}" height="{cell:.2f}" fill="'
             for row in range(rows)]
    cap = cfg.host_capacity
    band_fill = [f'{_BAND_FILL[host_band(u, cap, True)]}" stroke="#888" stroke-width="0.2"/>'
                 for u in range(cap + 1)]
    grey_fill = f'{_BAND_FILL[HostBand.GREY]}" stroke="#888" stroke-width="0.2"/>'
    for h in range(1, cfg.h_max + 1):
        row, col = divmod(h - 1, cols)
        fill = band_fill[used.get(h, 0)] if h in discovered else grey_fill
        parts.append(col_x[col] + row_y[row] + fill)

    # Histograms underneath, truncated at the snapshot bin.
    upto = sum(1 for bt in result.bin_ts if bt <= t)
    if upto:
        parts += _svg_histogram(result.status_series, _STATUS_COLS,
                                20, hist_y, half - 40, hist_h, upto)
        parts += _svg_histogram(result.host_series, _HOST_COLS,
                                half + 20, hist_y, half - 40, hist_h, upto)
    parts.append("</svg>")
    with atomic_write(path) as fh:
        fh.write("\n".join(parts) + "\n")
