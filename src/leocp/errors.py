"""Exception types raised by the toolkit."""


class LeocpError(Exception):
    """Base class for all toolkit errors."""


class EmptySelection(LeocpError, ValueError):
    """An empty controller set was given where at least one controller is
    needed: a placement evaluation, or the distance sampling of handover
    prediction."""


class InfeasibleInstance(LeocpError, RuntimeError):
    """No selection of the requested size covers every satellite."""


class BudgetExceeded(LeocpError, RuntimeError):
    """A computation would exceed its work budget: exhaustive placement
    combinations, the status reports of a run, or the ticks of a snapshot
    or decision grid (``kernels.TICK_BUDGET``)."""


class OutOfHorizon(LeocpError, ValueError):
    """Interpolation requested outside the sampled horizon."""


class ProtocolViolation(LeocpError, RuntimeError):
    """A handover the engine cannot run was requested: an unknown id, a
    switch on a node not Bound or to the controller it holds, a negative
    leg, a batch beside queued events, or an illegal binding transition."""


class ConcurrentHandover(LeocpError, RuntimeError):
    """A handover was started while one was already in flight for the node."""


class Unreachable(LeocpError, RuntimeError):
    """No network path exists between the requested endpoints."""


class EmptyInput(LeocpError, ValueError):
    """An aggregation was given no values."""


class ConfigError(LeocpError, ValueError):
    """Scenario configuration failed schema validation."""


class StageError(LeocpError, RuntimeError):
    """A pipeline stage failed; the message names the stage."""
