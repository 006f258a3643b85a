"""Exception hierarchy for the WebdamLog reproduction.

All library errors derive from :class:`WebdamLogError` so callers can catch a
single exception type at API boundaries while still being able to
discriminate finer-grained failures.
"""


class WebdamLogError(Exception):
    """Base class for every error raised by the repro package."""


class ParseError(WebdamLogError):
    """Raised when a WebdamLog program, rule or fact cannot be parsed.

    Attributes
    ----------
    line:
        1-based line number of the offending token, when known.
    column:
        1-based column number of the offending token, when known.
    """

    def __init__(self, message, line=None, column=None):
        location = ""
        if line is not None:
            location = f" (line {line}"
            if column is not None:
                location += f", column {column}"
            location += ")"
        super().__init__(message + location)
        self.line = line
        self.column = column


class SchemaError(WebdamLogError):
    """Raised on arity mismatches, unknown relations or duplicate declarations."""


class SafetyError(WebdamLogError):
    """Raised when a rule is unsafe.

    A WebdamLog rule is safe when every variable appearing in the head, in a
    negated literal, or in a relation/peer position is bound by a preceding
    positive literal (left-to-right evaluation order).
    """


class StratificationError(WebdamLogError):
    """Raised when a program has a cycle through negation.

    No stratification exists for such a program, so negation-as-failure
    would let the written order of the rules pick the answer.  The program
    is refused instead.

    Attributes
    ----------
    cycle:
        The heads of the rules on the cycle (``"rel@peer"``, variables
        kept), the first repeated at the end: each rule reads the next, the
        first under negation.
    rules:
        The text of each rule on the cycle, in the same order.
    """

    def __init__(self, cycle, rules):
        self.cycle = tuple(cycle)
        self.rules = tuple(rules)
        super().__init__(
            "cycle through negation (each rule reads the next, the first "
            "under negation): " + " -> ".join(self.cycle) + "; rules: "
            + "; ".join(f"[{rule}]" for rule in self.rules))


class EvaluationError(WebdamLogError):
    """Raised when rule evaluation fails (e.g. unbound peer at delegation time)."""


class DelegationError(WebdamLogError):
    """Raised for invalid delegation operations (unknown peer, self-delegation loops)."""


class AccessControlError(WebdamLogError):
    """Raised when an operation violates an access-control policy."""


class TransportError(WebdamLogError):
    """Raised for message-delivery failures in the runtime transports."""


class WrapperError(WebdamLogError):
    """Raised by wrappers when the simulated external service rejects a request."""


class WorkloadError(WebdamLogError):
    """Raised by workload generators on inconsistent parameters."""
