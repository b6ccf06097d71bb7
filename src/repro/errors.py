"""Exception hierarchy for the :mod:`repro` package.

All errors raised by this library derive from :class:`ReproError`, so
callers can catch a single base class. Subclasses distinguish the three
broad failure modes: invalid model parameters (analytical layer),
invalid simulation configuration, and runtime protocol violations
inside a running simulation.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ModelParameterError",
    "ConfigurationError",
    "SimulationError",
    "ProtocolViolationError",
    "InvariantViolationError",
    "SimulationStalled",
    "UnknownAlgorithmError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ModelParameterError(ReproError, ValueError):
    """An analytical-model function received an invalid parameter.

    Examples: a negative user count, a probability outside ``[0, 1]``,
    or an upload-capacity vector violating the paper's standing
    assumption ``U_i <= sum_{j != i} U_j``.
    """


class ConfigurationError(ReproError, ValueError):
    """A simulation or experiment configuration is inconsistent."""


class SimulationError(ReproError, RuntimeError):
    """A running simulation entered an invalid state."""


class ProtocolViolationError(SimulationError):
    """A peer attempted an action its exchange protocol forbids.

    Raised, for instance, when a transfer is recorded for a piece the
    uploader does not hold, or a T-Chain key is released for an
    exchange that was never initiated.
    """


class InvariantViolationError(SimulationError):
    """A runtime invariant guard detected corrupted simulation state.

    Raised by :class:`repro.sim.guards.GuardRuntime` when one of its
    read-only checks fails. ``violations`` holds the structured
    :class:`repro.sim.guards.InvariantViolation` records (code,
    sim-time, peers involved, evidence); ``bundle_path`` points at the
    crash-forensics bundle written before raising, and is embedded in
    the message as ``[bundle: <path>]`` so the path survives
    stringification across process boundaries (sweep workers ship
    errors as strings).
    """

    def __init__(self, message: str, violations: tuple = (),
                 bundle_path=None) -> None:
        if bundle_path:
            message = f"{message} [bundle: {bundle_path}]"
        super().__init__(message)
        self.violations = tuple(violations)
        self.bundle_path = bundle_path


class SimulationStalled(SimulationError):
    """The progress watchdog detected a livelocked swarm.

    No piece completed across the configured sim-time window while
    downloaders remained active. Raised only under
    ``watchdog_action="raise"``; the default ``"degrade"`` mode
    finalizes the run with partial metrics flagged ``degraded=True``
    instead. ``stall`` is the watchdog's evidence dict and
    ``bundle_path`` the forensics bundle (also embedded in the message
    as ``[bundle: <path>]``).
    """

    def __init__(self, message: str, stall=None, bundle_path=None) -> None:
        if bundle_path:
            message = f"{message} [bundle: {bundle_path}]"
        super().__init__(message)
        self.stall = stall
        self.bundle_path = bundle_path


class UnknownAlgorithmError(ReproError, KeyError):
    """An algorithm name was not found in the strategy registry."""
