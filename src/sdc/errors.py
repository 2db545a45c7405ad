"""Exception types shared across the package."""


class SdcError(Exception):
    """Base class for all package errors."""


class UnsupportedOrder(SdcError):
    """Requested Hadamard order can never exist (not 1, 2, or a multiple of 4)."""


class ConstructionUnavailable(SdcError):
    """Order is admissible but no construction (built-in or registered) covers it."""


class IndexOutOfRange(SdcError):
    """Matrix entry index exceeds the matrix order."""


class LabelOutOfRange(SdcError):
    """Signed channel label outside +-1..+-N."""


class DimensionMismatch(SdcError):
    """Operator and state (or two states) disagree on dimensions."""


class UnsupportedOperator(SdcError):
    """Operand is neither a SignedPermutationOp nor a PermutedBlockOp."""


class OrderMismatch(SdcError):
    """Hadamard order does not match the channel count it must index."""


class ArgOutOfRange(SdcError):
    """Scalar argument outside its documented range."""


class NonInvolutory(SdcError):
    """Grand operator failed its self-inverse check; the partner convention is wrong."""


class PropertyViolated(SdcError):
    """The member mixer breaks its row-product law, or the composed encoder misses the direct one."""


class NonDeterministicOutcome(SdcError):
    """Decoder produced a spread-out distribution where a point mass was required."""


class CollisionDetected(SdcError):
    """Two distinct messages decoded to the same outcome pair."""


class MessageOutOfRange(SdcError):
    """Message id outside 0 .. message_count-1."""


class ConfigError(SdcError):
    """Malformed configuration file or option value."""
