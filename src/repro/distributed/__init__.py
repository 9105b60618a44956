"""Asynchronous, message-passing execution of link reversal.

The automata of the paper are *global*: one action reverses edges atomically
on both endpoints.  Real link-reversal routing (Gafni–Bertsekas, TORA) runs on
a network where each node only has local state and learns about its
neighbours' changes through messages.  This subpackage provides that
substrate:

* :mod:`repro.distributed.events` — a deterministic discrete-event simulator
  (priority queue of timestamped events, seeded tie-breaking);
* :mod:`repro.distributed.channel` — point-to-point channels with configurable
  delay and loss, plus per-link statistics;
* :mod:`repro.distributed.streams` — the counter-based random stream of every
  directed link (SplitMix64 keyed by seed, sender and receiver), which both
  networks below draw their losses and delays from;
* :mod:`repro.distributed.protocol` — the height-based asynchronous link
  reversal protocol (full or partial mode) run by every node: a node that
  discovers it is a local sink raises its height and broadcasts the new value
  to its neighbours;
* :mod:`repro.distributed.network` — glue that wires node processes, channels
  and the simulator together, injects link failures (a failed link never
  comes back), and extracts the global orientation for verification
  (acyclicity, destination orientation — experiment E17);
* :mod:`repro.distributed.fast_network` — the compiled twin of the network:
  packed int heights, a flat tuple event heap (plus one delivery deque
  under constant delays), an alive mask over the instance's links, and an
  inlined delivery loop, differentially pinned to the object network (the
  documented oracle) and ~10x faster on quiescence workloads.  This is
  what campaign-scale async sweeps run on.

Edge directions in the asynchronous protocol are *derived* from node heights
(exactly as in the original Gafni–Bertsekas formulation and in TORA), so the
global graph, evaluated at any instant with the true heights, is always
acyclic; what the simulation exercises is convergence and message complexity
under delay, loss and topology changes.
"""

from repro.distributed.events import DiscreteEventSimulator, ScheduledEvent
from repro.distributed.channel import Channel, ChannelStats, Message
from repro.distributed.protocol import (
    HeightValue,
    LinkReversalNodeProcess,
    ReversalMode,
)
from repro.distributed.network import (
    DELAY_MODELS,
    AsyncLinkReversalNetwork,
    NetworkReport,
)
from repro.distributed.fast_network import FastAsyncNetwork, pack_height, unpack_height

__all__ = [
    "AsyncLinkReversalNetwork",
    "Channel",
    "ChannelStats",
    "DELAY_MODELS",
    "DiscreteEventSimulator",
    "FastAsyncNetwork",
    "HeightValue",
    "LinkReversalNodeProcess",
    "Message",
    "NetworkReport",
    "ReversalMode",
    "ScheduledEvent",
    "pack_height",
    "unpack_height",
]
