"""Exception types shared across the package."""


class DegenerateVector(ValueError):
    """A vector that must have nonzero length is (numerically) zero."""


class GenerationFailure(RuntimeError):
    """Scene generation could not satisfy the placement constraints."""


class SceneSchemaError(ValueError):
    """A scene or its document breaks a rule.

    ``field`` holds the dotted path of the offending field when known.
    """

    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message = f"{message} (field: {field})"
        super().__init__(message)
