"""Error taxonomy shared across modules and mapped to CLI exit codes."""


class ConfigError(ValueError):
    """Invalid experiment configuration; carries every violated field."""

    def __init__(self, violations):
        self.violations = [str(v) for v in violations]
        super().__init__("; ".join(self.violations) or "invalid configuration")


class PlotSchemaError(ValueError):
    """Plot input file does not match the expected column schema."""


class NumericalError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


class ShortFitError(ValueError):
    """A power-law fit has fewer than 5 usable points; ``points`` counts them."""

    def __init__(self, points: int):
        self.points = points
        super().__init__(f"need at least 5 usable points in window, got {points}")


class CapacityError(ValueError):
    """Requested problem size exceeds a configured solver cap."""
