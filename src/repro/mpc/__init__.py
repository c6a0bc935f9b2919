"""MPC cluster simulator: machines, synchronous rounds, model-cost accounting."""

from repro.mpc.cluster import Cluster
from repro.mpc.exceptions import (
    CommunicationLimitExceeded,
    DeadMachineError,
    MemoryLimitExceeded,
    MPCError,
    ProtocolError,
)
from repro.mpc.machine import Machine
from repro.mpc.message import Message, payload_words
from repro.mpc.metrics import ClusterMetrics, RoundRecord
from repro.mpc.partition import random_assignment
from repro.mpc.primitives import aggregate_sum, broadcast, gather_concat, tree_fanout

__all__ = [
    "Cluster",
    "Machine",
    "Message",
    "payload_words",
    "ClusterMetrics",
    "RoundRecord",
    "MPCError",
    "MemoryLimitExceeded",
    "CommunicationLimitExceeded",
    "DeadMachineError",
    "ProtocolError",
    "random_assignment",
    "broadcast",
    "aggregate_sum",
    "gather_concat",
    "tree_fanout",
]
