"""Exception types shared across the toolkit, and the one memory budget
that every array a config sizes is checked against."""


class SuperposeError(Exception):
    """Base class for all toolkit errors."""


class ZeroEdgeMass(SuperposeError):
    """The layer distribution produces no edges in the limit (P_21 = 0)."""


class ZeroMean(SuperposeError):
    """Size-biasing requested for a distribution with zero mean."""


class RateUnderflow(SuperposeError):
    """Compound Poisson rate so large that P(sum = 0) underflows to zero."""


class MemoryBudgetExceeded(SuperposeError):
    """An array that a config sizes would not fit the fixed memory budget."""


MEMORY_BUDGET = 1 << 30  # bytes; one budget for every array a config sizes


def check_memory(need: float, what: str) -> None:
    """Raise MemoryBudgetExceeded, before allocating, if what needs more
    than MEMORY_BUDGET bytes."""
    if need > MEMORY_BUDGET:
        raise MemoryBudgetExceeded(
            f"{what} would take {need / 2**30:.3g} GiB, over the {MEMORY_BUDGET / 2**30:g} GiB budget"
        )


class EmptyGraph(SuperposeError):
    """The graph has no nodes, or no edges where an operation needs one."""


class Degenerate(SuperposeError):
    """A statistic is undefined on its input: a correlation whose marginal
    has zero variance, or a tail fit with too few positive-mass points."""


class InvalidEdgeList(SuperposeError):
    """An edge-list file holds a malformed line, an out-of-range node id or
    a self-loop."""


class MissingRecords(SuperposeError):
    """Per-layer records were not kept for this sample."""


class HypothesisViolation(SuperposeError):
    """Power-law tail hypotheses violated.

    Carries the full list of failed conditions in ``violations``.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ConfigError(SuperposeError):
    """Invalid run configuration.

    ``field`` is a dotted path into the offending config entry.
    """

    def __init__(self, field, reason):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")
