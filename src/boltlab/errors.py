"""Error taxonomy shared across the package.

Every domain error carries a machine-readable ``kind`` so the CLI can emit
``{"error_kind": ..., "detail": ...}`` documents without string matching.
"""
from __future__ import annotations


class BoltlabError(Exception):
    """Base class for all domain errors."""

    kind = "domain_error"

    def report(self) -> dict:
        return {"error_kind": self.kind, "detail": str(self)}


class DimensionMismatch(BoltlabError):
    kind = "dimension_mismatch"


class BadInput(BoltlabError):
    """An input file is missing, unreadable, not JSON, or not the expected document,
    or an output file cannot be written."""

    kind = "bad_input"


class PreconditionError(BoltlabError):
    """A caller violated a structural precondition (reported distinctly from bad luck)."""

    kind = "precondition_violated"


class EnumerationCapExceeded(BoltlabError):
    kind = "enumeration_cap_exceeded"


class QubitCapExceeded(BoltlabError):
    kind = "qubit_cap_exceeded"


class AttackFailure(BoltlabError):
    """max_tries exhausted without meeting the attack's success condition."""

    kind = "attack_failed"


class ConvergenceError(BoltlabError):
    kind = "no_convergence"
