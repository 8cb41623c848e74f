"""Error types shared across the engine."""


class DomainError(ValueError):
    """Invalid mathematical input (non-squarefree m, q out of range, non-reduced surd, ...)."""


class NumericalAgreementError(RuntimeError):
    """Two independent evaluations of the same quantity disagree beyond combined tolerance."""


class CacheError(RuntimeError):
    """Scan cache file unusable; carries the offending path and key."""

    def __init__(self, message, path=None, key=None):
        super().__init__(message)
        self.path = path
        self.key = key
