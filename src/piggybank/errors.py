"""Exception hierarchy shared by every piggybank module.

Plain precondition violations (bad ranges, bad flags) raise ValueError;
everything that can happen to a well-formed program at runtime gets a
class of its own so callers can route on it.
"""

from __future__ import annotations


class PiggyBankError(Exception):
    """Base class for all library-specific failures."""


class NotInvertibleError(PiggyBankError):
    """Modular inverse requested for a non-unit; carries the offending gcd."""

    def __init__(self, a: int, m: int, gcd: int):
        super().__init__(f"{a} is not invertible mod {m} (gcd = {gcd})")
        self.gcd = gcd


class IntegrityError(PiggyBankError):
    """A cross-check between two independently derived values failed."""


class DegenerateCaseError(PiggyBankError):
    """Parameters hit an algebraic degeneracy the protocol cannot encode."""


class WireError(PiggyBankError):
    """Base class for codec failures."""


class FormatError(WireError):
    """Frame structurally invalid: magic, version, tag, or trailing bytes."""


class TruncationError(WireError):
    """Frame ends before a declared length is satisfied."""


class CanonicalityError(WireError):
    """A field magnitude carries a leading zero byte."""


class PeerValueError(PiggyBankError, ValueError):
    """A value the peer sent lies outside the range its field allows."""


class TransportClosedError(PiggyBankError):
    """Peer closed the channel before the expected frame arrived."""


class HandshakeError(PiggyBankError):
    """The two endpoints disagree on protocol or variant."""


class CascadeAuditError(PiggyBankError):
    """A reconciliation flip landed on a bit that was already correct."""


class NoKeyError(PiggyBankError):
    """Digest protocol exhausted max_rounds; carries the attempt stats."""

    def __init__(self, rounds: int, pulses: int):
        super().__init__(
            f"no key accepted after {rounds} rounds ({pulses} pulses consumed)"
        )
        self.rounds = rounds
        self.pulses = pulses
