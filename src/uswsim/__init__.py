"""Simulator of self-preserving digital objects on an unsupervised
small-world friendship graph, with replica placement policies, message
accounting and analysis exports."""

from .engine import MessageLedger, World, run
from .graph import FriendshipGraph, avg_path_length, clustering_coefficient, grow_graph
from .model import (
    HostBand,
    MessageKind,
    NamedCondition,
    PolicyKind,
    PreservationStatus,
    SimConfig,
    classify_condition,
    host_band,
    status_of,
)

__all__ = [
    "FriendshipGraph", "HostBand", "MessageKind", "MessageLedger",
    "NamedCondition", "PolicyKind", "PreservationStatus", "SimConfig", "World",
    "avg_path_length", "classify_condition", "clustering_coefficient", "grow_graph",
    "host_band", "run", "status_of",
]
