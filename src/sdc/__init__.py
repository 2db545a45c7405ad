"""Exact simulator and verification suite for dense coding over entangled
spatial channel states."""

from .hadamard import HadamardMatrix, build
from .hilbert import SignedPermutationOp, StateVector, apply
from .bell import (
    BellLabel,
    all_labels,
    bell_state,
    compact_relabel_holds,
    label_to_message,
    message_to_label,
)
from .encoder import encode_direct
from .decoder import Decoder, build_decode_table, grand_blocks, make_decoder
from .analysis import (
    TimingModel,
    advantage,
    capacity_bits,
    rate_maximal,
    rate_pairwise,
    rate_spatial,
    run_protocol,
    spin_capacity,
)

__version__ = "0.1.0"
