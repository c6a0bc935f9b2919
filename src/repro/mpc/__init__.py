"""MPC cluster simulator: machines, synchronous rounds, model-cost accounting."""

from repro.mpc.cluster import Cluster
from repro.mpc.exceptions import (
    CommunicationLimitExceeded,
    MemoryLimitExceeded,
    MPCError,
    ProtocolError,
)
from repro.mpc.machine import Machine
from repro.mpc.message import Message, payload_words
from repro.mpc.metrics import ClusterMetrics
from repro.mpc.partition import random_assignment
from repro.mpc.primitives import aggregate_sum, broadcast, gather_concat

__all__ = [
    "Cluster",
    "Machine",
    "Message",
    "payload_words",
    "ClusterMetrics",
    "MPCError",
    "MemoryLimitExceeded",
    "CommunicationLimitExceeded",
    "ProtocolError",
    "random_assignment",
    "broadcast",
    "aggregate_sum",
    "gather_concat",
]
