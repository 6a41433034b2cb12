"""The RMAC state machine of the paper's appendix (Fig. 14 / Table 1).

The eight states and the nineteen transition conditions are encoded as
data. The runtime engine (:mod:`repro.core.rmac`) keeps its node state in
:class:`RmacState` and asserts every change against
:func:`valid_transition`; the test suite exercises each condition id.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple


class RmacState(enum.Enum):
    """The eight node states of the appendix."""

    IDLE = "IDLE"              # nothing to send, or waiting out a busy channel
    BACKOFF = "BACKOFF"        # both channels idle and BI > 0
    WF_RBT = "WF_RBT"          # sender: MRTS sent, waiting for RBT
    WF_RDATA = "WF_RDATA"      # receiver: RBT on, waiting for the data frame
    WF_ABT = "WF_ABT"          # sender: data sent, checking ordered ABT windows
    TX_MRTS = "TX_MRTS"        # transmitting an MRTS
    TX_RDATA = "TX_RDATA"      # transmitting a reliable data frame
    TX_UNRDATA = "TX_UNRDATA"  # transmitting an unreliable data frame


@dataclass(frozen=True)
class Transition:
    """One labeled edge of Fig. 14."""

    condition: str
    source: RmacState
    target: RmacState
    description: str


#: Table 1, verbatim (descriptions lightly compressed).
TRANSITIONS: Tuple[Transition, ...] = (
    Transition("C1", RmacState.IDLE, RmacState.TX_UNRDATA,
               "unreliable service requested, both channels idle, BI is 0"),
    Transition("C2", RmacState.TX_UNRDATA, RmacState.IDLE,
               "aborted on RBT; or after tx either channel is busy"),
    Transition("C3", RmacState.IDLE, RmacState.WF_RDATA,
               "an MRTS naming this node is correctly received"),
    Transition("C4", RmacState.WF_RDATA, RmacState.IDLE,
               "after frame reception: queue empty and BI 0; or a channel busy "
               "and BI not 0; or queue not empty, a channel busy, BI 0"),
    Transition("C5", RmacState.TX_UNRDATA, RmacState.BACKOFF,
               "after tx both channels idle"),
    Transition("C6", RmacState.BACKOFF, RmacState.TX_UNRDATA,
               "BI is 0 and transmission requires unreliable service"),
    Transition("C7", RmacState.WF_RDATA, RmacState.BACKOFF,
               "after frame reception both channels idle and (BI not 0, or "
               "queue not empty with BI 0)"),
    Transition("C8", RmacState.IDLE, RmacState.BACKOFF,
               "both channels idle and BI is not 0"),
    Transition("C9", RmacState.BACKOFF, RmacState.IDLE,
               "BI 0 and queue empty; or a channel busy and BI not 0"),
    Transition("C10", RmacState.IDLE, RmacState.TX_MRTS,
               "reliable service requested and both channels idle"),
    Transition("C11", RmacState.TX_MRTS, RmacState.IDLE,
               "transmission aborted due to detection of RBT"),
    Transition("C12", RmacState.WF_RBT, RmacState.IDLE,
               "no RBT arrives and either channel is busy"),
    Transition("C13", RmacState.WF_ABT, RmacState.IDLE,
               "after all ABTs, either channel is busy"),
    Transition("C14", RmacState.BACKOFF, RmacState.TX_MRTS,
               "BI is 0 and transmission requires reliable service"),
    Transition("C15", RmacState.WF_RBT, RmacState.BACKOFF,
               "no RBT arrives and both channels idle"),
    Transition("C16", RmacState.WF_ABT, RmacState.BACKOFF,
               "after all ABTs, both channels idle"),
    Transition("C17", RmacState.TX_MRTS, RmacState.WF_RBT,
               "transmission of MRTS is complete"),
    Transition("C18", RmacState.WF_RBT, RmacState.TX_RDATA,
               "RBT detected before timer Twf_rbt expires"),
    Transition("C19", RmacState.TX_RDATA, RmacState.WF_ABT,
               "transmission of reliable data frame is complete"),
)

#: Extra edges the runtime needs that the paper's figure leaves implicit:
#: an MRTS abort lands in BACKOFF when both channels are idle (the figure
#: routes aborts through IDLE; C8 then immediately applies), and a node
#: named in an MRTS while in (suspended) BACKOFF enters WF_RDATA -- the
#: appendix notes reception "can only happen in IDLE" because a busy data
#: channel has already pushed the node to IDLE; our engine collapses the
#: two steps.
_IMPLICIT: FrozenSet[Tuple[RmacState, RmacState]] = frozenset(
    {
        (RmacState.TX_MRTS, RmacState.BACKOFF),
        (RmacState.BACKOFF, RmacState.WF_RDATA),
    }
)

_EDGE_SET: FrozenSet[Tuple[RmacState, RmacState]] = frozenset(
    (t.source, t.target) for t in TRANSITIONS
) | _IMPLICIT

#: Each state's value -> the values of the states it may move to. Keyed
#: by the members' string values, not the members: an Enum member's
#: ``__hash__`` is a Python-level call, and the engine checks every state
#: change.
_SUCCESSORS: Dict[str, FrozenSet[str]] = {
    state.value: frozenset(target.value for source, target in _EDGE_SET
                           if source is state)
    for state in RmacState
}

_BY_CONDITION: Dict[str, Transition] = {t.condition: t for t in TRANSITIONS}


def valid_transition(source: RmacState, target: RmacState) -> bool:
    """True if Fig. 14 (plus the documented implicit edges) allows the edge."""
    return target._value_ in _SUCCESSORS[source._value_]


def by_condition(condition: str) -> Transition:
    """Look up a transition by its Table 1 condition id (e.g. ``"C18"``)."""
    return _BY_CONDITION[condition]
