"""Exception types shared across the package.

All domain errors derive from :class:`QbagError`, which is itself a
``ValueError`` so that callers who do not care about the fine-grained
classification can catch the usual built-in.
"""


class QbagError(ValueError):
    """Base class for all graph, chain, analysis, and document errors."""


class InvalidArgumentId(QbagError):
    """Argument id is empty or contains whitespace, a comma or a lone surrogate."""


class DuplicateArgument(QbagError):
    """The same argument id was declared more than once."""


class DanglingEndpoint(QbagError):
    """A relation endpoint refers to an undeclared argument."""


class RelationOverlap(QbagError):
    """The same ordered pair occurs in both the attack and support relations."""


class StrengthOutOfRange(QbagError):
    """A strength or threshold value lies outside the closed unit interval."""


class UnknownArgument(QbagError):
    """An operation referenced an argument the graph does not contain."""


class CyclicGraph(QbagError):
    """The graph contains a directed cycle and cannot be evaluated."""


class UnknownSemantics(QbagError):
    """No semantics is registered under the requested name."""


class EmptyChain(QbagError):
    """A chain must contain at least one graph."""


class EmptyTopicSet(QbagError):
    """A topic set must name at least one argument."""


class TopicNotInChain(QbagError):
    """A topic argument is missing from at least one step of the chain."""


class DocumentError(QbagError):
    """A document is syntactically malformed or violates the schema."""
