"""Trace-driven protocol invariant oracle.

Subscribes to the :class:`~repro.sim.trace.Tracer` event stream and
checks RMAC's protocol invariants online: a run that does not attach
the oracle pays nothing (tracing stays off), a run that does pays one
sink call per trace event. See :mod:`repro.oracle.checker` for the rule catalogue.
"""

from repro.oracle.checker import InvariantOracle, Violation

__all__ = ["InvariantOracle", "Violation"]
