"""Exception taxonomy for the library.

The CLI maps these onto distinct exit codes, so keep the split between
configuration problems, physical no-go situations (evanescent waves, total
internal reflection, no phase-matching solution) and unusable data (too
few samples to fit, malformed files).
"""


class SpdcError(Exception):
    """Base class for all library errors."""


class ConfigError(SpdcError):
    """Invalid or inconsistent configuration input."""

    def __init__(self, message, key=None):
        self.key = key
        self.message = message
        if key is not None:
            message = f"{key}: {message}"
        super().__init__(message)


class RangeError(SpdcError):
    """Wavelength outside a material's dispersion validity range."""


class RefractionError(SpdcError):
    """Refraction impossible for the requested geometry (e.g. total internal
    reflection)."""


class KinematicsError(SpdcError):
    """No propagating pair here (omega_p - omega_s <= 0, a partner
    evanescent in air, a photon grazing the face), or no valid map cell."""


class NoSolutionError(SpdcError):
    """A bracketed root search found no sign change in the search interval."""


class FitError(SpdcError):
    """Not enough valid samples to perform the requested fit."""


class DataFormatError(SpdcError):
    """A data file on disk does not follow the expected layout."""
