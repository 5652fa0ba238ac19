"""Exception types shared across the package."""

from __future__ import annotations


class FidelityLabError(Exception):
    """Base class for all package errors."""


class ConfigurationError(FidelityLabError):
    """Invalid scenario or component configuration.

    Carries the full list of problems so callers can report every offending
    key at once instead of failing on the first.
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class DivergenceError(FidelityLabError):
    """A run's numbers left the finite range (for example a runaway gain)."""


class InsufficientDataError(FidelityLabError):
    """Not enough samples (or episodes) to evaluate the requested statistic."""


class GridAlignmentError(FidelityLabError):
    """Two series expected on the same time grid do not line up."""


class SequencingError(FidelityLabError):
    """A streaming consumer received samples out of time order."""


class ContractFreeError(FidelityLabError):
    """An operation that needs a contract was given the unconstrained class."""


class MembershipError(FidelityLabError):
    """A social action violated pool membership preconditions."""


class CatalogError(FidelityLabError):
    """A strategy id is unknown to the catalog, or the catalog is unusable."""
