"""Exception types shared across the toolkit, and the one memory budget
that every array a config sizes is checked against."""


class SuperposeError(Exception):
    """Base class for all toolkit errors."""


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


class Degenerate(SuperposeError):
    """A quantity is undefined on its input: a limit law of a layer law
    without edges (P_21 = 0), a law of a graph without nodes or edges, a
    correlation whose marginal has zero variance or whose law has no mass,
    a size-biased law of zero mean, or a tail fit with too few points."""


class InvalidEdgeList(SuperposeError):
    """An edge-list file holds a malformed line, an out-of-range node id or
    a self-loop."""


class MissingRecords(SuperposeError):
    """Per-layer records were not kept for this sample."""


class HypothesisViolation(SuperposeError):
    """Power-law tail hypotheses violated; the message names each one."""


class ConfigError(SuperposeError):
    """Invalid run configuration; field is a dotted path into the offending
    config entry."""

    def __init__(self, field, reason):
        super().__init__(f"{field}: {reason}")
