"""Seeded, declarative fault injection (crashes, fades, bursty errors).

The reproduction's headline scenarios lose frames only to collisions and
an optional uniform BER -- nothing actively *attacks* the reliability
machinery the paper claims. This package supplies that attack surface:

* :class:`~repro.faults.plan.FaultPlan` -- a declarative, serializable
  description of every fault in a run: node crash/recover schedules,
  per-link fades, timed frame-corruption windows, and a channel-wide
  bit-error model override (e.g. the bursty
  :class:`~repro.phy.error.GilbertElliott`). A plan is part of the
  ``ScenarioConfig``, so it flows into the result store's
  ``config_hash`` and the campaign resume machinery.
* :class:`~repro.faults.injector.FaultInjector` -- the compiled runtime
  form the PHY consults: the data channel asks it whether an arrival is
  suppressed or corrupted, the busy-tone channels ask it whether an
  emitter is down. When no plan is active the channels hold ``None``
  and pay a single ``is None`` test per arrival.

Semantics are documented on the classes; the summary: a crashed node's
radio is *deaf and mute* (its frames and tones reach nobody, and nothing
is delivered to it) while carrier-sense side effects of already-started
transmissions are retained, a faded link silently corrupts frames
crossing it in the faulted direction, and a corruption window corrupts
frames arriving at matching nodes with a configured probability drawn
from the channel's seeded RNG stream.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    CorruptionWindow,
    FaultPlan,
    LinkFade,
    NodeCrash,
)

__all__ = [
    "CorruptionWindow",
    "FaultInjector",
    "FaultPlan",
    "LinkFade",
    "NodeCrash",
]
