"""Basic operator toolbox on the 2N-channel position space.

Single-channel gates (sign flip, half-axis swap, channel Hadamard), the
cyclic ladder shift, and the two nonlocal two-particle gates used by the
measurement pipeline: the position-controlled swap and the Hadamard-weighted
channel mixer.  Every gate is a `SignedPermutationOp` except the channel
Hadamard and the Hadamard layer, which are read-only complex ndarrays, and the
mixer, which is a scipy sparse matrix on the two-particle space.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import ArgOutOfRange, NonUnitaryResolution, OrderMismatch
from .hadamard import HadamardMatrix
from .hilbert import SignedPermutationOp, TOL_CHAINED, label_to_index

__all__ = [
    "channel_sign_gate",
    "channel_swap_gate",
    "ladder_shift_gate",
    "channel_hadamard_gate",
    "hadamard_layer",
    "position_controlled_swap",
    "nonlocal_mixer",
    "resolve_mixer_normalization",
    "MIXER_READINGS",
]


def _check_site(N: int, n: int):
    if not 1 <= n <= N:
        raise ArgOutOfRange(f"channel {n} outside 1..{N}")


def channel_sign_gate(N: int, n: int) -> SignedPermutationOp:
    """Diagonal gate: +1 on channel +n, -1 on channel -n, identity elsewhere."""
    _check_site(N, n)
    phase = np.ones(2 * N, dtype=np.complex128)
    phase[label_to_index(-n, N)] = -1.0
    return SignedPermutationOp(2 * N, np.arange(2 * N), phase)


def channel_swap_gate(N: int, n: int) -> SignedPermutationOp:
    """Swap channels +n and -n, identity elsewhere."""
    _check_site(N, n)
    target = np.arange(2 * N)
    a, b = label_to_index(n, N), label_to_index(-n, N)
    target[a], target[b] = b, a
    return SignedPermutationOp(2 * N, target, np.ones(2 * N, dtype=np.complex128))


def ladder_shift_gate(N: int, power: int) -> SignedPermutationOp:
    """Cyclic channel shift by `power` within each half-axis, modulo N.

    Negative powers shift backwards; power 0 is the identity.
    """
    target = np.empty(2 * N, dtype=np.intp)
    for n in range(1, N + 1):
        m = ((n - 1 + power) % N) + 1
        target[label_to_index(n, N)] = label_to_index(m, N)
        target[label_to_index(-n, N)] = label_to_index(-m, N)
    return SignedPermutationOp(2 * N, target, np.ones(2 * N, dtype=np.complex128))


def channel_hadamard_gate(N: int, n: int) -> np.ndarray:
    """Hadamard rotation of the (+n, -n) channel pair: (swap + sign)/sqrt(2).

    Acts as [[1, 1], [1, -1]]/sqrt(2) on the pair and as identity elsewhere;
    involutory because the two generators anticommute on the pair.
    """
    _check_site(N, n)
    m = np.eye(2 * N, dtype=np.complex128)
    a, b = label_to_index(n, N), label_to_index(-n, N)
    s = 1.0 / np.sqrt(2.0)
    m[a, a] = s
    m[a, b] = s
    m[b, a] = s
    m[b, b] = -s
    m.setflags(write=False)
    return m


def hadamard_layer(N: int) -> np.ndarray:
    """Product of the channel Hadamards over all N sites.

    The sites are disjoint, so the product is order-independent and takes the
    half-axis block form [[I, I], [I, -I]]/sqrt(2) under the index embedding.
    """
    eye = np.eye(N)
    m = (np.block([[eye, eye], [eye, -eye]]) / np.sqrt(2.0)).astype(np.complex128)
    m.setflags(write=False)
    return m


def position_controlled_swap(N: int) -> SignedPermutationOp:
    """Two-particle gate: flip the second particle's half-axis when the first
    particle sits on the negative half; do nothing otherwise."""
    dim = 2 * N
    i1, i2 = np.divmod(np.arange(dim * dim), dim)
    target = i1 * dim + np.where(i1 >= N, (i2 + N) % dim, i2)
    return SignedPermutationOp(dim * dim, target, np.ones(dim * dim, dtype=np.complex128))


# Candidate normalizations for the mixer rows: exact integer signs scaled by
# 1/sqrt(N) (equivalently, normalized Hadamard entries with no extra factor),
# and the doubly normalized variant.  Only a scaling that yields a unitary
# involution is accepted.
MIXER_READINGS = (
    ("pm1-entries-over-sqrt-dim", lambda N: 1.0 / np.sqrt(N)),
    ("double-normalized", lambda N: 1.0 / N),
)


def _mixer_block(N: int, HN: HadamardMatrix, scale: float) -> sp.csr_matrix:
    """Magnitude-sector block (N^2 x N^2) of the mixer, shared by all four
    sign sectors."""
    rows, cols, vals = [], [], []
    n_arr = np.arange(1, N + 1)
    for l in range(1, N + 1):
        sl = ((l + n_arr - 2) % N) + 1
        for m in range(1, N + 1):
            sm = ((m + n_arr - 2) % N) + 1
            col = (l - 1) * N + (m - 1)
            rows.extend((sl - 1) * N + (sm - 1))
            cols.extend([col] * N)
            vals.extend(HN.ints[m - 1, sm - 1] * scale)
    return sp.csr_matrix(
        (np.array(vals, dtype=np.complex128), (rows, cols)), shape=(N * N, N * N)
    )


def _block_residuals(block: sp.csr_matrix) -> tuple[float, float]:
    """(unitarity, involution) residuals of one magnitude block.

    Exact sparse products up to 16 channels; beyond that a seeded sample of
    applied vectors, which suffices because the block is real symmetric by
    construction (so involution implies unitarity).
    """
    dim = block.shape[0]
    if dim <= 256:
        eye = sp.identity(dim, dtype=np.complex128, format="csr")
        unit = abs(block.conj().T @ block - eye)
        invol = abs(block @ block - eye)
        unit_res = float(unit.max()) if unit.nnz else 0.0
        invol_res = float(invol.max()) if invol.nnz else 0.0
        return unit_res, invol_res
    rng = np.random.default_rng(20240513)
    invol_res = 0.0
    for _ in range(8):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        invol_res = max(invol_res, float(np.max(np.abs(block @ (block @ v) - v))))
    sym_res = float(abs(block - block.T).max()) if (block - block.T).nnz else 0.0
    return max(invol_res, sym_res), invol_res


def _resolved_block(N: int, HN: HadamardMatrix) -> tuple[sp.csr_matrix, dict]:
    if HN.order != N:
        raise OrderMismatch(f"mixer needs order {N}, got {HN.order}")
    tried = []
    for name, scale in MIXER_READINGS:
        block = _mixer_block(N, HN, scale(N))
        unit_res, invol_res = _block_residuals(block)
        tried.append((name, unit_res, invol_res))
        if unit_res <= TOL_CHAINED and invol_res <= TOL_CHAINED:
            return block, {
                "reading": name,
                "unitarity_residual": unit_res,
                "involution_residual": invol_res,
            }
    raise NonUnitaryResolution(f"no mixer normalization candidate passed: {tried}")


def resolve_mixer_normalization(N: int, HN: HadamardMatrix) -> dict:
    """Pick the mixer row normalization that makes it a unitary involution.

    Returns the chosen reading name with its residuals so reports can carry
    the decision.  Raises NonUnitaryResolution if no candidate passes, which
    would mean the sign-pattern convention itself is wrong.
    """
    return _resolved_block(N, HN)[1]


def nonlocal_mixer(N: int, HN: HadamardMatrix) -> sp.csc_matrix:
    """Two-particle channel mixer completing the measurement pipeline.

    Sends the pair ket with magnitudes (l, m) and signs (r, r') to the
    Hadamard-row-weighted superposition over n of the pair with magnitudes
    (shift_l(n), shift_m(n)) and the same signs; the weight is the row-m entry
    at the shifted column.  Built per sign sector from one shared magnitude
    block; the normalization reading is resolved, not assumed.
    """
    block = _resolved_block(N, HN)[0].tocoo()

    dim = 2 * N
    p_out, q_out = block.row // N, block.row % N
    p_in, q_in = block.col // N, block.col % N
    rows, cols, vals = [], [], []
    for a in (0, 1):
        for b in (0, 1):
            rows.append((p_out + N * a) * dim + (q_out + N * b))
            cols.append((p_in + N * a) * dim + (q_in + N * b))
            vals.append(block.data)
    return sp.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim * dim, dim * dim),
    )
