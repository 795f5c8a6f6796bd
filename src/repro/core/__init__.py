"""The paper's contribution: poll(), /dev/poll with hints and mmap
results, and RT-signal event delivery helpers -- plus the epoll
mechanism this line of work led to."""

from .backmap import BackmapLock, RwLockStats, per_socket_lock_memory
from .devpoll import DevPollConfig, DevPollFile, DevPollStats, ResultArea
from .epoll import (EPOLL_CTL_ADD, EPOLL_CTL_DEL, EPOLL_CTL_MOD, EPOLLET,
                    EpollFile, EpollStats)
from .interest_set import Interest, InterestSet
from .poll_syscall import sys_poll
from .poll_table import PollTable
from .pollfd import DP_ALLOC, DP_FREE, DP_POLL, DP_POLL_WRITE, DvPoll, PollFd
from .rtsig import SignalNumberAllocator, arm_rtsig, disarm_rtsig

__all__ = [
    "BackmapLock",
    "DP_ALLOC",
    "DP_FREE",
    "DP_POLL",
    "DP_POLL_WRITE",
    "DevPollConfig",
    "DevPollFile",
    "DevPollStats",
    "DvPoll",
    "EPOLLET",
    "EPOLL_CTL_ADD",
    "EPOLL_CTL_DEL",
    "EPOLL_CTL_MOD",
    "EpollFile",
    "EpollStats",
    "Interest",
    "InterestSet",
    "PollFd",
    "PollTable",
    "ResultArea",
    "RwLockStats",
    "SignalNumberAllocator",
    "arm_rtsig",
    "disarm_rtsig",
    "per_socket_lock_memory",
    "sys_poll",
]
