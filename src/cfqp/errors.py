"""Exception hierarchy for cfqp.

Every error family has its own class so the CLI can map families to
distinct exit codes.
"""


class CfqpError(Exception):
    """Base class for all cfqp errors."""


class ProblemFormatError(CfqpError):
    """Malformed or inconsistent problem/case data."""


class SingularJacobian(CfqpError):
    """The base KKT Jacobian J is numerically singular."""


class SingularActiveJacobian(CfqpError):
    """The active-set Jacobian J_B is numerically singular
    (linearly dependent active constraints or a violated
    constraint qualification)."""


class EnumerationLimit(CfqpError, ValueError):
    """The problem has too many inequalities for active-set enumeration."""


class Infeasible(CfqpError):
    """No active set yields a KKT-consistent solution at this theta."""


class InfeasibleStart(CfqpError):
    """Discovery was asked to start from an infeasible parameter point."""


class UnresolvableTransition(CfqpError):
    """Neither adding nor dropping a single constraint explains the
    observed KKT violation (degeneracy, or a region was skipped)."""


class DuplicateRegion(CfqpError):
    """Attempted to register an active set that the model already holds."""


class DigestMismatch(CfqpError):
    """A serialized model does not belong to the supplied problem."""


class MalformedModel(CfqpError):
    """A serialized model payload is truncated or structurally invalid."""


class DisconnectedNetwork(CfqpError):
    """The power network graph is not connected."""


class MissingSlack(CfqpError):
    """The declared slack bus does not exist in the case."""
