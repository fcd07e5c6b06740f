"""Shared exception types."""


class ResourceLimitError(RuntimeError):
    """An operation was refused because it would exceed a configured cap.

    Raised for the vertex-count guards of the join and the oracles, for the
    join's up-front memory estimate, and for subset-sum tables over the
    default memory budget.
    """
