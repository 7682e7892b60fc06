"""Exact solvers and instance tooling for swap-free multiagent path finding
on graphs that are a few vertex deletions away from a clique."""

from __future__ import annotations

from .errors import (
    MapfError,
    ParseError,
    PreconditionError,
    ResourceLimitError,
)
from .graphs import CliqueSplit, Graph, clique_split, complete_graph, min_vertex_cover
from .model import (
    ColoredGroup,
    ColoredInstance,
    Instance,
    Schedule,
    Verdict,
    detect_swaps,
    parse_colored_instance,
    parse_instance,
    parse_schedule,
    serialize_colored_instance,
    serialize_instance,
    serialize_schedule,
    validate_colored_schedule,
    validate_schedule,
)

__all__ = [
    "MapfError",
    "ParseError",
    "PreconditionError",
    "ResourceLimitError",
    "CliqueSplit",
    "Graph",
    "clique_split",
    "complete_graph",
    "min_vertex_cover",
    "ColoredGroup",
    "ColoredInstance",
    "Instance",
    "Schedule",
    "Verdict",
    "detect_swaps",
    "parse_colored_instance",
    "parse_instance",
    "parse_schedule",
    "serialize_colored_instance",
    "serialize_instance",
    "serialize_schedule",
    "validate_colored_schedule",
    "validate_schedule",
]

__version__ = "0.1.0"
