"""Domain types shared by every part of the simulator.

Digital objects (DOs) are identified by a 1-based sequence number assigned
in creation order.  A *family* is a parent DO plus the preservation copies
it has managed to place on other hosts.  Hosts store an unbounded number of
locally created DOs but donate only a fixed number of slots to foreign
preservation copies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class PolicyKind(enum.Enum):
    """How eagerly a family replicates when it first joins the graph."""

    LEAST = "least"
    MODERATE = "moderate"
    MOST = "most"


class PreservationStatus(enum.Enum):
    """Copy-count band of a family; its value is its rank 1-4."""

    NONE_MADE = 1
    PARTIAL = 2
    AT_MIN = 3
    AT_MAX = 4


class HostBand(enum.Enum):
    """Utilization band of a host's foreign-copy slots."""

    GREY = "grey"      # never discovered
    WHITE = "white"    # discovered, holds no preservation copies
    RED = "red"        # < 25% of capacity used
    YELLOW = "yellow"  # < 50%
    GREEN = "green"    # < 75%
    BLUE = "blue"      # >= 75%


class NamedCondition(enum.Enum):
    """System-level capacity regime, ordered from starved to saturated."""

    FAMINE = "famine"
    BOUNDARY_LOW = "boundary_low"
    STRADDLE = "straddle"
    BOUNDARY_HIGH = "boundary_high"
    FEAST = "feast"


class MessageKind(enum.Enum):
    CONTACT = "contact"
    CONTACT_REPLY = "contact_reply"
    LINK_REQUEST = "link_request"
    LINK_ACK = "link_ack"
    COPY_REQUEST = "copy_request"
    COPY_ACK = "copy_ack"
    COPY_DENY = "copy_deny"
    SACRIFICE_DIRECTIVE = "sacrifice_directive"
    HOST_ANNOUNCE = "host_announce"


# The kind fixes both endpoints: copy traffic is addressed to the host
# holding the slot and answered by it, everything else travels between
# DOs.  ``code`` is the kind's small-int index into the message ledger,
# ``from_do``/``to_do`` say whether the sender/receiver id is a DO id
# (otherwise a host id).
for _code, _kind in enumerate(MessageKind):
    _kind.code = _code
    _kind.from_do = _kind not in (MessageKind.COPY_ACK, MessageKind.COPY_DENY,
                                  MessageKind.SACRIFICE_DIRECTIVE)
    _kind.to_do = _kind is not MessageKind.COPY_REQUEST
del _code, _kind


@dataclass(frozen=True)
class SimConfig:
    """Full parameterization of one run."""

    n_max: int = 500
    h_max: int = 1000
    r_min: int = 3
    r_max: int = 5
    host_capacity: int = 5
    policy: PolicyKind = PolicyKind.LEAST
    seed: int = 1
    bin_size: int = 100
    intro_interval: int = 15
    link_probability: float = 0.5
    extra_link_fraction: float = 0.30
    max_events: int = 500_000

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.h_max < 1:
            raise ValueError("h_max must be >= 1")
        if not (1 <= self.r_min <= self.r_max):
            raise ValueError("need 1 <= r_min <= r_max")
        if self.host_capacity < 0:
            raise ValueError("host_capacity must be >= 0")
        if self.bin_size < 1:
            raise ValueError("bin_size must be >= 1")
        if self.intro_interval < 1:
            raise ValueError("intro_interval must be >= 1")
        if not (0.0 < self.link_probability <= 1.0):
            raise ValueError("link_probability must be in (0, 1]")
        if not (0.0 <= self.extra_link_fraction <= 1.0):
            raise ValueError("extra_link_fraction must be in [0, 1]")
        if self.max_events < 1:
            raise ValueError("max_events must be >= 1")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")


def status_of(c: int, r_min: int, r_max: int) -> PreservationStatus:
    """Band containing a copy count: none made, partial, at r_min, at r_max."""
    if not (1 <= r_min <= r_max):
        raise ValueError(f"need 1 <= r_min <= r_max, got {r_min}/{r_max}")
    if c < 0 or c > r_max:
        raise ValueError(f"copy count {c} outside [0, {r_max}]")
    if c == 0:
        return PreservationStatus.NONE_MADE
    if c < r_min:
        return PreservationStatus.PARTIAL
    if c < r_max:
        return PreservationStatus.AT_MIN
    return PreservationStatus.AT_MAX


def host_band(used: int, capacity: int) -> HostBand:
    """Color band for one discovered host's slot usage.

    Empty hosts are white; the rest split at 25/50/75% of capacity.  Hosts
    never discovered are ``HostBand.GREY``, which no slot count gives.
    """
    if used < 0 or used > capacity:
        raise ValueError(f"used {used} outside [0, {capacity}]")
    if used == 0:
        return HostBand.WHITE
    ratio = used / capacity
    if ratio < 0.25:
        return HostBand.RED
    if ratio < 0.50:
        return HostBand.YELLOW
    if ratio < 0.75:
        return HostBand.GREEN
    return HostBand.BLUE


def classify_condition(config: SimConfig) -> NamedCondition:
    """Capacity regime of a configuration, from total supply vs demand.

    Demand is bounded by n_max * r_min (must-have) and n_max * r_max
    (would-like); supply is h_max * host_capacity.
    """
    d_min = config.n_max * config.r_min
    d_max = config.n_max * config.r_max
    supply = config.h_max * config.host_capacity
    if supply < d_min:
        return NamedCondition.FAMINE
    if supply == d_min:
        return NamedCondition.BOUNDARY_LOW
    if supply < d_max:
        return NamedCondition.STRADDLE
    if supply <= 2 * d_max:
        return NamedCondition.BOUNDARY_HIGH
    return NamedCondition.FEAST
