"""Exception types shared across the package."""


class DeflectGazeError(Exception):
    """Base class for all errors raised by this package."""


class InvariantViolation(DeflectGazeError):
    """A model, config, or parameter field violates a documented invariant."""


class SceneParseError(DeflectGazeError):
    """Scene file could not be parsed, or contains unknown/missing fields."""


class DegenerateBundleError(DeflectGazeError):
    """Line bundle has no well-defined common point."""


class NoRidgeError(DeflectGazeError):
    """Wavelet sweep found no usable carrier in the frame."""


class ShiftCountError(DeflectGazeError):
    """Number of frames does not match the phase-shift pattern."""


class InsufficientLinesError(DeflectGazeError):
    """Too few lines for the requested clustering."""


class SecondCenterNotFoundError(DeflectGazeError):
    """RANSAC could not find a second intersection center."""


class AmbiguousRadiiError(DeflectGazeError):
    """Cluster radii are too similar to tell cornea from sclera."""


class CentersTooCloseError(DeflectGazeError):
    """Cornea and sclera centers are too close to define a gaze axis."""


class EmptyFieldError(DeflectGazeError):
    """Reconstruction produced too few surface samples."""


class UnreliableLossError(DeflectGazeError):
    """Too few jointly valid pixels to evaluate the loss."""


class NoDescentError(DeflectGazeError):
    """Optimizer accepted no trial step from a start whose gradient is
    not zero."""


class EmptyMapError(DeflectGazeError):
    """Correspondence map contains no valid pixels."""


class BenchmarkAbortError(DeflectGazeError):
    """A benchmark position exceeded the allowed failure fraction."""
