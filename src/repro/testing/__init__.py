"""Fault injection shipped with the library.

:class:`repro.testing.faults.FaultPlan` is the deterministic
fault-injection schedule a scenario carries in
``ScenarioConfig.fault_plan``; the robustness suite (``tests/robustness/``)
uses it to prove the simulator's degradation paths end-to-end.  It is
part of the installable package so downstream users can exercise the
same failure modes against their own scenarios.
"""

from repro.testing.faults import FaultPlan

__all__ = ["FaultPlan"]
