"""Exception types shared across the package."""


class SimulationError(Exception):
    """Base class for package-specific failures."""


class SpaceMismatch(SimulationError):
    """Objects bound to different state spaces were combined."""


class ImageOutsideSpace(SimulationError):
    """An operator maps a basis state outside the bound space."""


class EmptySeeds(SimulationError):
    """State-space generation was given no seed states."""


class SeedOutsideCompatTable(SimulationError):
    """A seed state is not part of the 26-state compatibility basis."""


class StateMissing(SimulationError):
    """A required basis state is absent from the space."""


class NotHermitian(SimulationError):
    """A matrix expected to be Hermitian is not."""


class PositivityLost(SimulationError):
    """The evolved density matrix developed a significant negative eigenvalue."""


class NotDensityMatrix(SimulationError):
    """Trace or positivity of a density matrix is violated beyond tolerance."""


class DiscordOutOfBounds(SimulationError):
    """A discord record breaks a bound that `DiscordPoint.check` tests."""


class InsufficientData(SimulationError):
    """Too few samples for the requested fit."""


class NoDominantFrequency(SimulationError):
    """The series has no usable oscillation to fit."""


class WindowTooLarge(SimulationError):
    """An envelope window exceeds the series length."""


class ConfigError(Exception):
    """Base class for experiment-configuration failures."""


class UnknownKey(ConfigError):
    """The configuration contains a key this runner does not define."""


class MissingRequired(ConfigError):
    """A key required by the experiment kind is absent."""


class ConfigTypeError(ConfigError):
    """A configuration value could not be converted to its expected type."""
