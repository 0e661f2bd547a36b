"""Exception types shared across the package."""


class RisOptError(Exception):
    """Base class for all library-specific failures."""


class GeometryError(RisOptError):
    """Rejected scene input: degenerate geometry such as a source on a wall."""


class SceneFileError(RisOptError):
    """A scene JSON document is malformed; the message names the offending field."""


class ChannelFileError(RisOptError):
    """A channel JSON document is malformed; the message names the offending field."""


class SingularChannelError(RisOptError):
    """The load/coupling system is singular or too ill-conditioned to invert."""


class InfeasibleUserError(RisOptError):
    """A user has an identically zero channel row; power balancing cannot proceed."""


class DualityError(RisOptError):
    """Downlink power recovery failed (singular system, negative powers,
    or violated power conservation)."""
