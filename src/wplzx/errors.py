"""Exception hierarchy for the wplzx package.

Every domain error derives from :class:`WplzxError` so callers (and the CLI)
can distinguish domain failures (exit 1) from usage errors (exit 2) and
resource-cap errors (exit 3).
"""


class WplzxError(Exception):
    """Base class for all domain errors raised by this package."""


class ResourceCapError(WplzxError):
    """A configured resource cap was exceeded (CLI exit code 3)."""


# --- phase / grid arithmetic ---

class NotARefinement(WplzxError):
    """Requested grid lift where the source order does not divide the target."""


class GridOverflow(ResourceCapError):
    """An LCM exceeded the configured grid-order cap."""


# --- diagram construction ---

class DanglingWire(WplzxError):
    """A wire endpoint references a missing node or port."""


class DuplicateId(WplzxError):
    """Two nodes share an id."""


class BoundarySlotConflict(WplzxError):
    """A boundary slot is used by zero or several wires."""


class ParseError(WplzxError):
    """Malformed serialized diagram/circuit input."""


# --- rewriting ---

class ColorMismatch(WplzxError):
    """Fusion requested between spiders of different colors."""


class NotConnected(WplzxError):
    """Fusion requested between spiders with no connecting wire."""


class NotIdentity(WplzxError):
    """Identity removal requested on a spider that is not an identity."""


class TraceReplayError(WplzxError):
    """A rewrite trace does not replay on the given diagram."""


# --- semantics ---

class DimensionOverflow(ResourceCapError):
    """Tensor evaluation would exceed the configured size cap."""


class DimensionMismatch(WplzxError):
    """Operands have incompatible shapes."""


# --- metrics ---

class DegenerateVariance(WplzxError):
    """PQVR undefined because the raw phases have zero variance."""


class EmptyBaseline(WplzxError):
    """Compression ratio undefined for an empty baseline count."""


# --- geometry ---

class NonPositiveWeight(WplzxError):
    """Curvature requested for a non-positive effective weight."""


class StepTooLarge(WplzxError):
    """Finite-difference step does not fit inside the parameter domain."""


# --- masd ---

class NegativeLambda(WplzxError):
    """Winding penalty strength must be finite and non-negative."""


class InvalidBeta(WplzxError):
    """Boltzmann inverse temperature must be finite and positive."""


class OddVertexCount(WplzxError):
    """Perfect matching requested on an odd number of vertices."""


class MatchingOverflow(ResourceCapError):
    """A matching needs more subset-DP vertices than the configured cap."""


class ZeroDistance(WplzxError):
    """Decoder-risk metric undefined for a zero-length edge."""


class InvalidDistance(WplzxError):
    """Unsupported surface-code distance."""


# --- datasets ---

class ConfigInvalid(WplzxError):
    """Generator configuration violates its constraints."""


class UnsupportedGate(WplzxError):
    """Circuit contains a gate the converter does not handle."""


class NotCircuitLike(WplzxError):
    """Diagram is outside the restricted circuit-extraction fragment."""
