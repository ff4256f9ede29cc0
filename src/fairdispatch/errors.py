"""Exception hierarchy shared by all fairdispatch modules."""


class FairDispatchError(Exception):
    """Base class for all package errors."""


class InputError(FairDispatchError, ValueError):
    """A caller passed an argument that violates an operation's contract."""


class ParseError(FairDispatchError, ValueError):
    """A data file could not be parsed; the message names the offending line."""


class ConfigError(FairDispatchError, ValueError):
    """A configuration object or manifest violates its invariants."""


class ContractError(FairDispatchError, RuntimeError):
    """An internal invariant was violated at runtime (caller or solver bug)."""


class WindowSolveError(ContractError):
    """The matcher failed on window `window`; `problem` is that window's MatchProblem."""

    def __init__(self, message: str, window: int, problem) -> None:
        super().__init__(message)
        self.window = window
        self.problem = problem

    def __reduce__(self):  # a parallel sweep's worker pickles it
        return type(self), (str(self), self.window, self.problem)


class InstanceTooLargeError(FairDispatchError, ValueError):
    """A brute-force routine refused an instance above its enumeration budget."""
