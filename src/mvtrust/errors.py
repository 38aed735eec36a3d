"""Shared exception types."""


class ContractError(Exception):
    """A documented precondition was violated by the caller."""


class ShapeError(ContractError):
    """Operands have incompatible shapes for the requested operation."""


class DomainError(ContractError):
    """An argument lies outside the mathematical domain of a function."""


class DataError(ContractError):
    """A dataset file or manifest failed validation."""


class TrainingDiverged(Exception):
    """Training produced a non-finite loss; ``terms`` names the offenders."""

    def __init__(self, message, terms=None):
        super().__init__(message)
        self.terms = dict(terms or {})
