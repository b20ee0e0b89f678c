"""Shared exception types.

The CLI picks its exit code from the exception type alone:
:class:`ParseError` and :class:`SchemaError` (bad input) exit 2,
:class:`TruncationCapExceeded` (no m-primality certificate up to the
doubling chain's limit, as for a non-isolated germ, or a jet space above
``jets.JET_SPACE_CAP`` monomials) exits 3, and every
other :class:`CurveInvError` (a failed invariant check) exits 1.  Any other
exception is an internal failure and is not caught.
"""


class CurveInvError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(CurveInvError):
    """Expression text does not conform to the input grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UndeclaredVariable(ParseError):
    pass


class SchemaError(CurveInvError):
    """Curve document violates the input schema; carries the field path
    and the message without it."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{path}: {message}")
        self.message, self.path = message, path


class NotMPrimary(CurveInvError):
    """No truncation degree at which every monomial slice is reducible."""

    def __init__(self, truncation: int):
        super().__init__(
            f"ideal not certified m-primary at truncation order {truncation}"
        )
        self.truncation = truncation


class TruncationCapExceeded(CurveInvError):
    """Doubling the jet truncation hit the hard cap without a certificate,
    or a jet space would hold more than ``jets.JET_SPACE_CAP`` monomials."""


class NotInIdeal(CurveInvError):
    """Membership witness requested for an element outside the ideal."""


class WitnessOrderInsufficient(CurveInvError):
    """A tail class moved under the tail map's one re-check: the witness
    algebra eliminated again with reshuffled rows, lifted two orders higher."""


class MissingWeights(CurveInvError):
    """Weighted-homogeneous code path invoked without a weight system."""


class DegenerateBranch(CurveInvError):
    """All parametrization images vanish to the working order."""


class NoConductor(CurveInvError):
    """Value-semigroup conductor not found below the working order."""


class NotTransverseAtOrder(CurveInvError):
    """The branch lies on the other equation: its exact pullback is zero."""


class MilnorMismatch(CurveInvError):
    """mu != 2*delta - r + 1: branch data or asserted values contradict mu."""


class MissingBranchEquation(CurveInvError):
    """Pairwise intersection numbers need per-branch equations."""


class NonMinimalPresentation(CurveInvError):
    """Some equation of an lci presentation has a nonzero linear part."""


class PlanarNoObstruction(CurveInvError):
    """Obstruction requested for a two-variable (planar) presentation."""


class MissingBranchData(CurveInvError):
    """Global delta/r sums need branch data that was not supplied."""
