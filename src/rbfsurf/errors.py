"""Exception types raised by the numerical routines and the file readers.

Precondition violations (bad argument values, mismatched sizes) raise plain
``ValueError``; the classes below cover failures of the numerics themselves,
carrying enough context to locate the offending node or system.  A line of
a node, frame or operator file that is not blank or a ``#`` comment and does
not hold the format's fields raises :class:`FileFormatError` with its line
number; content that parses but breaks a check (coincident nodes, a short
operator row) raises ``ValueError`` naming the node or row.
"""

from __future__ import annotations


class RbfSurfError(Exception):
    """Base class for numerical failures in this package."""


class FileFormatError(RbfSurfError, ValueError):
    """Malformed line of a node, frame or operator file. Carries the 1-based line number."""

    def __init__(self, message, line_no=None):
        super().__init__(message)
        self.line_no = line_no


class ProjectionError(RbfSurfError):
    """A ray-to-surface projection found no root. Carries the node index."""

    def __init__(self, message, node_index=None):
        super().__init__(message)
        self.node_index = node_index


class ConditioningError(RbfSurfError):
    """A local linear system is numerically singular.

    ``cond`` holds the 1-norm condition estimate; ``node_indices`` is filled
    when the failure is aggregated over an operator assembly.
    """

    def __init__(self, message, cond=None, node_indices=None):
        super().__init__(message)
        self.cond = cond
        self.node_indices = node_indices or []


class GeometryError(RbfSurfError):
    """Degenerate local geometry (collinear stencil, vanishing gradient)."""

    def __init__(self, message, node_index=None):
        super().__init__(message)
        self.node_index = node_index


class StiffnessError(RbfSurfError):
    """Adaptive step size underflowed; the problem is too stiff here."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class DivergenceError(RbfSurfError):
    """The integrated state stopped being finite. Carries the time."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time
