"""Exception hierarchy shared by all engine modules."""


class EngineError(Exception):
    """Base class for all errors raised by the engine."""


class UnknownNode(EngineError):
    pass


class UnknownEdge(EngineError):
    pass


class UnknownMotif(EngineError):
    pass


class UnknownComponent(EngineError):
    pass


class NotAMember(EngineError):
    pass


class DomainError(EngineError):
    """A value falls outside a variable's declared domain."""


class EvalError(EngineError):
    """Guard or expression evaluation failed (e.g. arithmetic on an
    undefined address)."""


class EffectError(EngineError):
    """A command effect could not be applied; the configuration is left
    untouched."""


class EgoUnplaced(EngineError):
    pass


class StateBudgetExceeded(EngineError):
    """Game grounding hit its state budget; callers should fall back to
    finite-horizon planning."""

    def __init__(self, msg, frontier=0):
        super().__init__(msg)
        self.frontier = frontier


class NoSafePlan(EngineError):
    """Every first action admits an environment branch that enters a
    critical-avoid state or misses a critical reach goal within the
    horizon."""


class ReplayDivergence(EngineError):
    def __init__(self, msg, step):
        super().__init__(msg)
        self.step = step


class InvariantViolation(EngineError):
    """A controller table violates the controller invariants."""
