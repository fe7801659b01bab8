"""Exception types raised by the library."""


class InvalidInputError(ValueError):
    """Input data violates a precondition (size, shape, or finiteness)."""


class InvalidScalingError(InvalidInputError):
    """Merge factor lies outside the supported range."""


class ChainTooShortError(InvalidInputError):
    """Chain has too few segments for the requested operation."""


class TooManyStepsError(ValueError):
    """More smoothing steps were requested than the curve allows.

    ``max_steps`` carries the largest step count valid for the input.
    """

    def __init__(self, message: str, max_steps: int):
        super().__init__(message)
        self.max_steps = max_steps


class ParseError(InvalidInputError):
    """Text input could not be parsed as numeric points.

    ``row`` and ``column`` are 1-based positions of the offending cell;
    ``column`` is ``None`` when a whole row is malformed.
    """

    def __init__(self, message: str, row: int, column: int | None = None):
        super().__init__(message)
        self.row = row
        self.column = column
