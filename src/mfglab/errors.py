"""Exception types shared across the solvers."""


class MfgLabError(Exception):
    pass


class RiccatiEscape(MfgLabError):
    """Riccati solution blew up before reaching the initial time."""

    def __init__(self, t):
        self.t = t
        super().__init__(f"Riccati solution escaped to infinity at t={t:.6g}")


class InvalidParameter(MfgLabError):
    pass


class InvalidInput(MfgLabError):
    pass


class InvalidOracle(MfgLabError):
    """Closed-form Riccati oracle requested for non-quadratic data."""


class NoStationaryPoint(MfgLabError):
    """Multi-start shooting found no stationary point at all."""


class CflViolation(MfgLabError):
    def __init__(self, kind, ratio, bound):
        self.kind = kind
        self.ratio = ratio
        self.bound = bound
        super().__init__(
            f"explicit-scheme stability violated ({kind}): ratio {ratio:.4g} > {bound:.4g}"
        )


class PdeDiverged(MfgLabError):
    def __init__(self, t):
        self.t = t
        super().__init__(f"PDE time-stepping produced non-finite values at t={t:.6g}")


class ConfigError(MfgLabError):
    pass
