"""Exception types shared across the package.

Invalid arguments raise plain ValueError; the classes here mark states a
caller may want to catch and handle (solver stagnation, guard rejection,
audit preconditions) rather than misuse of the API.
"""


class HPlateauError(Exception):
    """Base class for package-specific failures."""


class ConePreconditionError(HPlateauError, ValueError):
    """A curvature vector lies outside the Garding cone an operation requires."""


class DegenerateSpectrumError(HPlateauError):
    """Top eigenvalue not simple within tolerance; derivative formulas undefined."""


class InvalidHeightError(HPlateauError, ValueError):
    """Graph height must be strictly positive in the half-space model."""


class NewtonDivergenceError(HPlateauError):
    """Residual was not reduced after backtracking down to the damping floor.

    Carries the last iterate so callers can inspect how far the solve got:
    ``state`` is the raw vector of the scheme's unknowns, not a height
    field: the heights off the boundary node on the radial side, and on
    the grid the deviation from the cap at one representative node per
    symmetry orbit (gridsolver._GridScheme.full_height spreads it onto
    every node).
    """

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class ConeViolationError(HPlateauError):
    """Cone guard rejected every damped step down to the floor.

    ``state`` is the last accepted iterate in the scheme's unknowns, as
    for NewtonDivergenceError.
    """

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class GridDegeneracyError(HPlateauError, ValueError):
    """The radial map of a star-shaped domain is degenerate on the mesh."""


class AuditPreconditionError(HPlateauError):
    """A solution field does not satisfy the preconditions of an audit check."""
