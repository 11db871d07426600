"""Exception hierarchy shared by all edgefit modules."""


class EdgefitError(Exception):
    """Base class for every error raised by this package."""


class DataError(EdgefitError):
    """Problems with input data: files, rows, splits, calibration sets."""


class MissingColumn(DataError):
    def __init__(self, column: str, path: str = ""):
        self.column = column
        self.path = path
        where = f" in {path}" if path else ""
        super().__init__(f"required column '{column}' not found{where}")


class MalformedRow(DataError):
    def __init__(self, index: int, reason: str, path: str = ""):
        self.index = index
        self.reason = reason
        self.path = path
        where = f"{path}:" if path else "row "
        super().__init__(f"{where}{index}: {reason}")


class EmptyDataset(DataError):
    pass


class UnseenLabel(DataError):
    def __init__(self, label: int):
        self.label = label
        super().__init__(f"label {label} has zero count in the training set")


class EmptyTrainSet(DataError):
    pass


class EmptyTestSet(DataError):
    pass


class EmptyCalibrationSet(DataError):
    pass


class MissingCalibration(DataError):
    def __init__(self, site: str):
        self.site = site
        super().__init__(f"no calibration range recorded for activation '{site}'")


class FewerThanTwoProfiles(DataError):
    pass


class CorruptFile(DataError):
    pass


class VersionMismatch(DataError):
    pass


class InvalidConfig(EdgefitError):
    pass


class ShapeMismatch(EdgefitError):
    pass


class NumericalContractError(EdgefitError):
    """A numerical invariant the implementation relies on does not hold."""


class NonFiniteInput(NumericalContractError):
    pass


class AccumulatorOverflow(NumericalContractError):
    pass


class RequantRangeError(NumericalContractError):
    """A scale is not finite and positive, or a scale ratio cannot be
    represented as M0 * 2^-(31+n) with n in [-30, 31]."""
