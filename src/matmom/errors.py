"""Exception hierarchy for the matmom package."""


class MatMomError(Exception):
    """Base class for all matmom errors."""


class InputError(MatMomError):
    """Malformed or invalid input data (documents, matrices, option strings, and
    evaluation points outside the transform's domain or grids that do not increase)."""


class SolvabilityError(MatMomError):
    """An operation that requires a solvable moment problem received an unsolvable one."""


class RankError(MatMomError):
    """Internal rank or tolerance inconsistency (conflicting rank decisions)."""


class ParameterError(MatMomError):
    """A parameter matrix was rejected (not a contraction, not unitary, not admissible,
    or the induced extension has fixed points)."""


class EvaluationError(MatMomError):
    """The transform cannot be evaluated reliably at a point of its domain (a
    singular pivot: the parameter is not admissible there)."""
