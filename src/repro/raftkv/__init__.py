"""Replicated key-value store: a from-scratch Raft implementation.

The simulated ETCD of the reproduction (paper §III.f): a 3-way
replicated KV store using Raft for consistency, with watches, leases,
compare-and-swap, and exactly-once client sessions. DLaaS status
updates flow controller → ETCD → Guardian → MongoDB through this
package.
"""

from .client import EtcdClient
from .cluster import EtcdCluster
from .errors import CompareFailed, LeaseNotFound, NoLeader, NotLeader, RaftError
from .log import RaftLog
from .node import CANDIDATE, FOLLOWER, LEADER, RaftNode
from .rpc import AppendEntries, AppendEntriesReply, LogEntry, RequestVote, RequestVoteReply
from .statemachine import KvEvent, KvStateMachine
from .watch import Watch, WatchHub

__all__ = [
    "AppendEntries",
    "AppendEntriesReply",
    "CANDIDATE",
    "CompareFailed",
    "EtcdClient",
    "EtcdCluster",
    "FOLLOWER",
    "KvEvent",
    "KvStateMachine",
    "LEADER",
    "LeaseNotFound",
    "LogEntry",
    "NoLeader",
    "NotLeader",
    "RaftError",
    "RaftLog",
    "RaftNode",
    "RequestVote",
    "RequestVoteReply",
    "Watch",
    "WatchHub",
]
