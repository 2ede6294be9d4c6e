"""Exception types shared across the planner."""


class PlanningError(Exception):
    """Base class for all planning failures."""


class KernelDegenerateError(PlanningError):
    """A free cell ended up with an all-zero transition stencil for some action."""


class DeadFlowError(PlanningError):
    """A forward message carried no probability mass at all."""


class InvalidGoalError(PlanningError):
    """Goal mass placed on obstacle cells (or no goal mass at all)."""


class UnreachableError(PlanningError):
    """No horizon within the search bound puts backward mass on the start cell."""


class NoFeasiblePathError(PlanningError):
    """Path extraction hit an empty posterior under the abort policy."""


class ScenarioParseError(PlanningError):
    """Malformed scenario file; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
