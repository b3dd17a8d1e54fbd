"""Schedgen reproduction: execution graphs, collective expansion, GOAL format."""

from .builder import (
    ProtocolConfig,
    ScheduleGenerator,
    UnmatchedMessageError,
    build_graph,
)
from .collectives import (
    COLLECTIVE_TAG_BASE,
    RENDEZVOUS_TAG_BASE,
    USER_TAG_LIMIT,
    CollectiveAlgorithms,
)
from .columnar import RankOpBatch, batches_from_program, batches_from_trace
from .goal import GoalFormatError, dump_goal, dumps_goal, load_goal, loads_goal
from .streaming import (
    DEFAULT_CHUNK_RECORDS,
    ChunkedBatches,
    batches_from_trace_chunked,
)
from .graph import (
    EdgeKind,
    ExecutionGraph,
    GraphBuilder,
    GraphValidationError,
    VertexKind,
)

__all__ = [
    "VertexKind",
    "EdgeKind",
    "GraphBuilder",
    "ExecutionGraph",
    "GraphValidationError",
    "CollectiveAlgorithms",
    "COLLECTIVE_TAG_BASE",
    "RENDEZVOUS_TAG_BASE",
    "USER_TAG_LIMIT",
    "ScheduleGenerator",
    "ProtocolConfig",
    "build_graph",
    "RankOpBatch",
    "batches_from_program",
    "batches_from_trace",
    "UnmatchedMessageError",
    "dump_goal",
    "dumps_goal",
    "load_goal",
    "loads_goal",
    "GoalFormatError",
    "ChunkedBatches",
    "batches_from_trace_chunked",
    "DEFAULT_CHUNK_RECORDS",
]
