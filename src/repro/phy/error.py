"""Bit-error models.

The paper's headline experiments use a collision-only loss model (GloMoSim
with no fading and no random bit errors: delivery ratio ~1 when static),
so :class:`NoErrors` is the default. :class:`UniformBitErrors` supports the
paper's remark that the 20-receiver MRTS limit "can be further reduced in
case of high error bit rate" -- ``tests/integration/test_error_channel.py``
sweeps the BER.
:class:`GilbertElliott` adds the bursty two-state channel that feedback-
recovery work (FEBER; Abstract-MAC unreliable-link models) identifies as
the regime where multicast MACs actually break; the fault-injection layer
(:mod:`repro.faults`) selects it through a :class:`~repro.faults.FaultPlan`.

Serialization: every model round-trips through ``to_dict`` /
:func:`error_model_from_dict` with value-based ``__eq__``, so a model can
live inside a ``ScenarioConfig`` (via its fault plan) without breaking the
result store's ``config_hash`` determinism. ``to_dict`` carries *only
parameters*, never dynamic state -- reconstructing a model always yields a
fresh instance starting from its canonical initial state, which is what
seeded replay requires.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, Type


class BitErrorModel(ABC):
    """Decides whether a frame of a given size is corrupted in flight."""

    #: Wire name used in ``to_dict`` records; subclasses override.
    KIND = ""

    @abstractmethod
    def corrupts(self, nbytes: int, rng: random.Random) -> bool:
        """Return True if a frame of ``nbytes`` MAC bytes is corrupted."""

    def to_dict(self) -> dict:
        """JSON-serializable parameters (stable keys; no dynamic state)."""
        return {"model": self.KIND, **self._params()}

    def _params(self) -> dict:
        """Parameter fields beyond the model name (subclasses override)."""
        return {}

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other._params() == self._params()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(self._params().items()))))


class NoErrors(BitErrorModel):
    """Error-free channel (collisions remain the only loss cause)."""

    KIND = "none"

    def corrupts(self, nbytes: int, rng: random.Random) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover
        return "NoErrors()"


class UniformBitErrors(BitErrorModel):
    """Independent bit errors at a fixed bit-error rate.

    A frame survives with probability ``(1 - ber) ** (8 * nbytes)``; longer
    frames (like a many-receiver MRTS) are proportionally more fragile,
    which is exactly the effect Section 3.4 of the paper worries about.
    """

    KIND = "uniform"

    def __init__(self, ber: float):
        if not 0.0 <= ber < 1.0:
            raise ValueError(f"bit error rate must be in [0, 1), got {ber}")
        self.ber = float(ber)

    def _params(self) -> dict:
        return {"ber": self.ber}

    def frame_success_probability(self, nbytes: int) -> float:
        """Probability that a frame of ``nbytes`` bytes arrives intact."""
        if nbytes < 0:
            raise ValueError("negative frame size")
        return (1.0 - self.ber) ** (8 * nbytes)

    def corrupts(self, nbytes: int, rng: random.Random) -> bool:
        if self.ber == 0.0:
            return False
        return rng.random() >= self.frame_success_probability(nbytes)

    def __repr__(self) -> str:  # pragma: no cover
        return f"UniformBitErrors(ber={self.ber})"


class GilbertElliott(BitErrorModel):
    """Two-state Markov (Gilbert-Elliott) bursty bit-error channel.

    The channel alternates between a *good* and a *bad* state with
    per-frame transition probabilities ``p_gb`` (good -> bad) and
    ``p_bg`` (bad -> good); each state applies its own independent
    bit-error rate to the frame. With ``ber_good == ber_bad`` the state
    is irrelevant and the model is statistically identical to
    :class:`UniformBitErrors` at that BER (the property tests assert
    this); with ``ber_bad >> ber_good`` losses cluster into bursts whose
    mean length is ``1 / p_bg`` frames.

    The state transition is evaluated *before* each frame, consuming one
    RNG draw, then the per-state survival check consumes at most one
    more -- all off the channel's seeded RNG stream, so runs replay
    bit-identically. The dynamic state is deliberately excluded from
    ``to_dict``/``__eq__``: a deserialized model always starts in the
    good state, exactly like a freshly built one.
    """

    KIND = "gilbert-elliott"

    def __init__(self, p_gb: float, p_bg: float,
                 ber_good: float = 0.0, ber_bad: float = 0.1):
        for name, p in (("p_gb", p_gb), ("p_bg", p_bg)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        for name, ber in (("ber_good", ber_good), ("ber_bad", ber_bad)):
            if not 0.0 <= ber < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {ber}")
        self.p_gb = float(p_gb)
        self.p_bg = float(p_bg)
        self.ber_good = float(ber_good)
        self.ber_bad = float(ber_bad)
        #: Dynamic channel state (True = bad); starts good by definition.
        self.bad = False

    def _params(self) -> dict:
        return {"p_gb": self.p_gb, "p_bg": self.p_bg,
                "ber_good": self.ber_good, "ber_bad": self.ber_bad}

    def corrupts(self, nbytes: int, rng: random.Random) -> bool:
        if self.bad:
            if rng.random() < self.p_bg:
                self.bad = False
        else:
            if rng.random() < self.p_gb:
                self.bad = True
        ber = self.ber_bad if self.bad else self.ber_good
        if ber == 0.0:
            return False
        return rng.random() >= (1.0 - ber) ** (8 * nbytes)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"GilbertElliott(p_gb={self.p_gb}, p_bg={self.p_bg}, "
                f"ber_good={self.ber_good}, ber_bad={self.ber_bad})")


#: Wire-name registry for :func:`error_model_from_dict`.
_MODELS: Dict[str, Type[BitErrorModel]] = {
    NoErrors.KIND: NoErrors,
    UniformBitErrors.KIND: UniformBitErrors,
    GilbertElliott.KIND: GilbertElliott,
}


def error_model_from_dict(payload: dict) -> BitErrorModel:
    """Rebuild a model from its ``to_dict`` record.

    Always returns a *fresh* instance in the model's initial state:
    ``error_model_from_dict(m.to_dict())`` is the idiom for giving each
    run its own copy of a stateful model (``GilbertElliott``).
    """
    kind = payload.get("model")
    cls = _MODELS.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown bit-error model {kind!r}; have {sorted(_MODELS)}")
    params = {k: v for k, v in payload.items() if k != "model"}
    return cls(**params)
