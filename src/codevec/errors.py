"""Exception hierarchy shared across the package."""


class CodevecError(Exception):
    """Base class for all errors raised by this package."""


class MiniJSyntaxError(CodevecError):
    """Syntax error in MiniJ source, with position information."""

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class SExprError(CodevecError):
    """Malformed S-expression AST text."""


class DatasetFormatError(CodevecError):
    """Malformed dataset or vocabulary file."""


class ModelFormatError(CodevecError):
    """Corrupt or incompatible model file."""


class TrainingError(CodevecError):
    """Numeric failure: a non-finite loss, parameter or score."""


class VectorQueryError(CodevecError):
    """Invalid query against a name-vector table."""
