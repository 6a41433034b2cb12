"""Physical-layer substrate: radios, channels, busy tones, propagation.

This subpackage stands in for GloMoSim's radio/channel models. It provides:

* :mod:`repro.phy.params`      -- IEEE 802.11b timing constants and frame
  airtime arithmetic (the paper's overhead analysis rests on these).
* :mod:`repro.phy.propagation` -- propagation models (unit disk,
  log-distance, log-distance + lognormal shadowing).
* :mod:`repro.phy.error`       -- bit-error models.
* :mod:`repro.phy.channel`     -- the shared data channel with per-receiver
  collision bookkeeping, carrier sense and abortable transmissions.
* :mod:`repro.phy.busytone`    -- narrow-band busy-tone channels (RBT/ABT)
  with presence intervals and lambda-detection semantics.
* :mod:`repro.phy.sinr`        -- the SINR interference subsystem:
  accumulated-power reception, fast fading, heterogeneous radios.
* :mod:`repro.phy.radio`       -- the per-node facade a MAC talks to.
"""

from repro.phy.busytone import BusyToneChannel, ToneType
from repro.phy.channel import DataChannel, Transmission
from repro.phy.error import BitErrorModel, NoErrors, UniformBitErrors
from repro.phy.params import PhyParams, DEFAULT_PHY
from repro.phy.propagation import (
    IN_RANGE_POWER_DBM,
    LogDistanceModel,
    LogDistanceShadowing,
    PropagationModel,
    UnitDiskModel,
)
from repro.phy.radio import Radio
from repro.phy.sinr import (
    RayleighFading,
    RicianFading,
    SinrConfig,
    SinrReceptionModel,
    SinrState,
    wire_sinr,
)

__all__ = [
    "BusyToneChannel",
    "ToneType",
    "DataChannel",
    "Transmission",
    "BitErrorModel",
    "NoErrors",
    "UniformBitErrors",
    "PhyParams",
    "DEFAULT_PHY",
    "PropagationModel",
    "UnitDiskModel",
    "LogDistanceModel",
    "LogDistanceShadowing",
    "IN_RANGE_POWER_DBM",
    "SinrConfig",
    "SinrState",
    "SinrReceptionModel",
    "RayleighFading",
    "RicianFading",
    "wire_sinr",
    "Radio",
]
