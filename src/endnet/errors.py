"""Exception types shared across the toolkit."""


class EndnetError(Exception):
    """Base class for all toolkit errors."""


class CubeFormatError(EndnetError):
    """Header/payload problems while reading a cube, spectra, abundance or checkpoint file."""


class NonFiniteValue(EndnetError):
    """NaN or Inf encountered where only finite values are allowed."""


class DegenerateCube(EndnetError):
    """Cube content unusable (e.g. all-zero reflectance)."""


class DegenerateData(EndnetError):
    """Pixel cloud has no usable extent (e.g. all pixels identical)."""


class DegenerateSimplex(EndnetError):
    """Endmember set is (numerically) coincident; simplex solve is singular."""


class NumericalDivergence(EndnetError):
    """Loss or gradients became non-finite during optimization."""
