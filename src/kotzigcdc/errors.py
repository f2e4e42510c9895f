"""Exception types shared across the package."""


class GraphFormatError(ValueError):
    """Input file or JSON document does not describe a valid graph or certificate."""


class NotCubicError(ValueError):
    """Operation requires a 3-regular graph."""


class FrameError(ValueError):
    """Edge set is not a valid Kotzig frame of its host graph."""


class HypothesisError(ValueError):
    """Input violates the stated hypothesis of a constructive routine."""


class OracleLimitError(ValueError):
    """Brute-force search refused because the instance exceeds the size guard."""


class ConstructionInvariantError(RuntimeError):
    """A step the underlying theory guarantees to succeed has failed.

    This is never expected on valid input; it signals either a bug in this
    package or a counterexample to the theory it implements, so it must not
    be silently swallowed.
    """
