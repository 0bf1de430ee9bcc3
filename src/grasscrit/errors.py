"""Exception hierarchy for the grasscrit library.

Every domain error derives from :class:`GrasscritError` and carries a
stable ``code`` (the class name) used by the CLI for structured error
reports.
"""


class GrasscritError(Exception):
    """Base class for all grasscrit domain errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


# ---------------------------------------------------------------------------
# Plane / frame / geodesic errors
# ---------------------------------------------------------------------------

class DimensionError(GrasscritError):
    """Incompatible or invalid dimensions (e.g. k > n - k)."""


class RankDeficient(GrasscritError):
    """Input matrix does not have full column rank."""


class FrameMismatch(GrasscritError):
    """Tangent data attached to different frames was mixed."""


class OnCutLocus(GrasscritError):
    """Operation requires a unique minimizing geodesic but the target
    lies on (or numerically at) the cut locus."""


# ---------------------------------------------------------------------------
# Low-rank / spectrum errors
# ---------------------------------------------------------------------------

class IndexOutOfRange(GrasscritError):
    """Index set refers to nonexistent singular values."""


class DegenerateSpectrum(GrasscritError):
    """Singular values coincide (or vanish) within tolerance."""


# ---------------------------------------------------------------------------
# Cut locus / subdifferential errors
# ---------------------------------------------------------------------------

class NotOnCut(GrasscritError):
    """Point is not on the cut locus; the preimage is unique."""


class InsufficientSamples(GrasscritError):
    """Not enough sampled generators for the requested estimate."""


class DimensionMismatch(GrasscritError):
    """Tangent data of incompatible shapes or frames."""


# ---------------------------------------------------------------------------
# Schubert variety errors
# ---------------------------------------------------------------------------

class NotSmoothPoint(GrasscritError):
    """Point is not on the smooth stratum of the variety."""


class NonGenericL(GrasscritError):
    """Reference plane fails the genericity gate (zero, right-angle or
    repeated principal angles within tolerance)."""


class DegenerateAuxSpace(GrasscritError):
    """Auxiliary space for the maximizer family has wrong dimension."""


# ---------------------------------------------------------------------------
# Critical-search errors
# ---------------------------------------------------------------------------

class NoConvergence(GrasscritError):
    """No solver start converged; diagnostics attached."""

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class DomainError(GrasscritError):
    """Scalar argument outside the open domain of a formula."""


class NotUnit(GrasscritError):
    """Vector argument is not unit length within tolerance."""


# ---------------------------------------------------------------------------
# Serialization / CLI errors
# ---------------------------------------------------------------------------

class SchemaError(GrasscritError):
    """JSON document does not match the documented schema."""
