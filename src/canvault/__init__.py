"""Group key management for CAN-FD in-vehicle networks.

A central security unit establishes pairwise secrets with every unit via a
consistency-checked key encapsulation, distributes a group secret under
encrypt-then-MAC, after which any unit can broadcast an authenticated seed
that keys the group session; counters then rotate the session key silently.
The whole exchange runs over a deterministic discrete-event CAN-FD bus so
message counts and phase timings are reproducible.
"""

from .bus import SimReport
from .errors import (CanvaultError, ConfigError, ConsistencyError,
                     DeadlockError, DecodeError, DecryptError, DomainError,
                     RunCheckError, StateError)
from .group import Group, GroupElement, get_group
from .harness import ScenarioConfig, Scheme, comparison_ratios, \
    expected_messages, run_scenario

__version__ = "0.1.0"

__all__ = [
    "CanvaultError", "ConfigError", "ConsistencyError", "DeadlockError",
    "DecodeError", "DecryptError", "DomainError", "RunCheckError",
    "StateError", "Group", "GroupElement", "get_group", "ScenarioConfig",
    "Scheme", "SimReport", "comparison_ratios", "expected_messages",
    "run_scenario", "__version__",
]
