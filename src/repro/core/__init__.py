"""RMAC -- the paper's contribution.

* :mod:`repro.core.config` -- protocol parameters (retry limit, the
  20-receiver MRTS cap, the Twf_rdata guard); tau and lambda are the
  PHY's (:mod:`repro.phy.params`).
* :mod:`repro.core.states` -- the appendix's state machine: the 8 states
  of Fig. 14 and the transition conditions C1-C19 of Table 1, encoded as
  data so tests can exercise every condition.
* :mod:`repro.core.mrts`   -- MRTS construction and the Section 3.4
  receiver-splitting refinement.
* :mod:`repro.core.rmac`   -- the protocol engine: Reliable Send
  (MRTS / RBT / DATA / ABT with ordered ABT windows and selective
  retransmission) and Unreliable Send, both abortable on RBT.
"""

from repro.core.config import RmacConfig
from repro.core.rmac import RmacProtocol
from repro.core.states import RmacState, TRANSITIONS, valid_transition

__all__ = ["RmacConfig", "RmacProtocol", "RmacState", "TRANSITIONS", "valid_transition"]
