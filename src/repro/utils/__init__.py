"""Shared utilities: priority queues, RNG plumbing, errors."""

from repro.utils.errors import (
    ReproError,
    CyclicWorkflowError,
    InvalidPartitionError,
    NoFeasibleMappingError,
    PartitionSplitError,
)
from repro.utils.pqueue import AddressableMaxPQ
from repro.utils.rng import make_rng, spawn_rngs

__all__ = [
    "ReproError",
    "CyclicWorkflowError",
    "InvalidPartitionError",
    "NoFeasibleMappingError",
    "PartitionSplitError",
    "AddressableMaxPQ",
    "make_rng",
    "spawn_rngs",
]
