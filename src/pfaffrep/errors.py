"""Exception hierarchy.

Three families map onto CLI exit codes: schema problems (exit 2),
numerical breakdowns such as rank defects or failed factorizations
(exit 3), and violated call preconditions (exit 4).
"""


class PfaffrepError(Exception):
    """Base class for all library errors."""


class SchemaError(PfaffrepError):
    """Malformed or invalid input document."""

    def __init__(self, message: str, path: str = ""):
        self.message, self.path = message, path
        super().__init__(f"{message}" + (f" (at {path})" if path else ""))

    def under(self, root: str) -> "SchemaError":
        """The same error with its document path ``$...`` moved to ``root...``."""
        if not self.path.startswith("$"):
            return self
        return type(self)(self.message, root + self.path[1:])


class SkewSymmetryViolation(SchemaError):
    """A matrix required to be skew-symmetric is not."""


class NumericalError(PfaffrepError):
    """Numerical rank, convergence or factorization failure."""


class PreconditionError(PfaffrepError):
    """An operation was called outside its contract."""


# -- numerical family ---------------------------------------------------------

class RepeatedRoots(NumericalError):
    """Two roots closer than the rank tolerance; a coordinate change is needed."""


class RankDeficiency(NumericalError):
    """Numerical corank differs from the expected one."""

    def __init__(self, message: str, corank: int | None = None):
        self.corank = corank
        super().__init__(message)


class SpanFailure(NumericalError):
    """Union of point kernels does not span the full space."""


class SingularGamma(NumericalError):
    """The interpolation matrix of a multi-point transformation is singular."""


class DegenerateHessian(NumericalError):
    """Hessian determinant does not factor into three distinct lines."""


class NotAProductOfLines(NumericalError):
    """A cubic expected to split into three lines does not."""


class InconsistentPolarData(NumericalError):
    """Polar coefficient data admits no quartic preimage."""


class NoMatch(NumericalError):
    """No candidate representation realizes the correspondence."""


class MultipleMatches(NumericalError):
    """More than one candidate representation realizes the correspondence."""


class SampleOnExceptionalLine(NumericalError):
    """A sample point hit the exceptional line of a bundle-map instrument."""


class TangencyCheckFailed(NumericalError):
    """A line expected to be a bitangent fails the double-root check."""


# -- precondition family ------------------------------------------------------

class SingularTransform(PreconditionError):
    """Congruence by a singular matrix."""


class NotInCanonicalForm(PreconditionError):
    """Input pencil does not have the required canonical block shape."""


class NotUnimodular(PreconditionError):
    """A gauge block does not have determinant one."""


class VectorNotInKernel(PreconditionError):
    """A vector is not in the kernel of the pencil at the given point."""


class SamePoint(PreconditionError):
    """Two points required to be distinct coincide."""


class DegenerateDenominator(PreconditionError):
    """The direction parameters annihilate the point difference."""


class NotAdmissible(PreconditionError):
    """The coupling constant of the vector pair vanishes."""


class NoAdmissiblePartner(PreconditionError):
    """The partner-point line parametrization is degenerate."""


class CorankNotOne(PreconditionError):
    """A determinantal representation does not have corank one at the point."""


class NotOnBaseLocus(PreconditionError):
    """A vector is not a base point of the quadric net."""
