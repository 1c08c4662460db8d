"""Exception types shared across the toolkit."""
from __future__ import annotations


class Error(Exception):
    """Base class for all gridtopo errors."""


class ValidationError(Error):
    """Input violates a documented precondition or invariant."""


class FormatError(Error):
    """A file could not be parsed. The message names the file and field."""


class ConditioningError(Error):
    """Injection second moments of a node are too close to singular."""

    def __init__(self, message: str, nodes: tuple[str, ...] = ()):
        super().__init__(message)
        self.nodes = tuple(nodes)


class NotAdditiveError(Error):
    """A distance matrix is not an additive tree metric."""


class GroupingStalledError(Error):
    """Tree grouping stopped making progress."""


class MetricUndefinedError(Error):
    """A requested comparison metric is undefined for the given inputs."""
