"""Sign-matrix construction and validation."""

import numpy as np
import pytest

from sdc import hadamard
from sdc.errors import ConfigError, ConstructionUnavailable, IndexOutOfRange, UnsupportedOrder


def test_order_two_is_the_base_pattern():
    H = hadamard.build(2)
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.array_equal(H.normalized, expected)


def test_order_four_squares_to_identity_by_multiplication():
    H = hadamard.build(4)
    assert np.max(np.abs(H.normalized @ H.normalized - np.eye(4))) < 1e-12


@pytest.mark.parametrize("order", [1, 2, 4, 8, 16, 32])
def test_invariants_across_supported_orders(order):
    H = hadamard.build(order)
    # symmetric exactly, in integer arithmetic
    assert np.array_equal(H.ints, H.ints.T)
    # entries +-1/sqrt(order)
    assert np.all(np.abs(H.ints) == 1)
    # self-inverse within 1e-12 after normalization
    assert np.max(np.abs(H.normalized @ H.normalized - np.eye(order))) < 1e-12
    # distinct unnormalized rows have zero dot product, exactly
    assert np.array_equal(H.ints @ H.ints.T, order * np.eye(order, dtype=np.int64))


def test_construction_is_deterministic():
    a, b = hadamard.build(8), hadamard.build(8)
    assert np.array_equal(a.ints, b.ints)


def test_matrices_compare_and_hash_by_value():
    a, b = hadamard.build(4), hadamard.build(4)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    # the entries' dtype is not part of the value
    narrow = hadamard.HadamardMatrix(4, a.ints.astype(np.int8))
    assert a == narrow and hash(a) == hash(narrow)
    # order 1 admits both signs, so one entry can change and stay valid
    plus = hadamard.HadamardMatrix(1, np.array([[1]]))
    assert plus != hadamard.HadamardMatrix(1, np.array([[-1]]))
    assert a != hadamard.HadamardMatrix(4, a.ints.copy(), construction="custom")
    assert a != hadamard.build(8)
    assert a != a.ints and a != "sylvester" and (a == None) is False  # noqa: E711


def test_construction_leaves_the_callers_array_writable():
    m = np.array([[1, 1], [1, -1]])
    H = hadamard.HadamardMatrix(2, m)
    m[0, 0] = -1
    assert H.ints[0, 0] == 1 and not H.ints.flags.writeable


@pytest.mark.parametrize("order", [6, 10, 14, 3, 5, 0, -4])
def test_impossible_orders_rejected(order):
    with pytest.raises(UnsupportedOrder):
        hadamard.build(order)


def test_admissible_but_unregistered_order_unavailable():
    with pytest.raises(ConstructionUnavailable):
        hadamard.build(12)


class TestUnnormalizedAccessor:
    def test_first_row_of_base_pattern(self):
        assert hadamard.build(2).ints[0, 0] == 1

    def test_value_from_order_four(self):
        # frozen from the doubling construction: row 2, col 2 flips sign
        assert hadamard.build(4).row(2)[1] == -1

    def test_indices_above_order_rejected(self):
        with pytest.raises(IndexOutOfRange):
            hadamard.build(2).row(3)


# an alternative symmetric sign matrix of order 4, not the built-in one
ALT4 = "1 1 1 -1\n1 1 -1 1\n1 -1 1 1\n-1 1 1 1\n"


class TestCustomRegistry:
    def test_load_and_build(self, tmp_path):
        path = tmp_path / "mats.txt"
        path.write_text(ALT4)
        registry = hadamard.load_custom_matrices(path)
        assert set(registry) == {4}
        H = hadamard.build(4, custom=registry)
        assert H.construction == "custom"
        assert np.max(np.abs(H.normalized @ H.normalized - np.eye(4))) < 1e-12

    def test_multiple_blocks(self, tmp_path):
        path = tmp_path / "mats.txt"
        path.write_text("1 1\n1 -1\n\n" + ALT4)
        registry = hadamard.load_custom_matrices(path)
        assert set(registry) == {2, 4}

    def test_asymmetric_matrix_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 1\n-1 1\n")
        with pytest.raises(ConstructionUnavailable):
            hadamard.load_custom_matrices(path)

    def test_non_orthogonal_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 1\n1 1\n")
        with pytest.raises(ConstructionUnavailable):
            hadamard.load_custom_matrices(path)

    def test_wrong_entries_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n2 1\n")
        with pytest.raises(ConstructionUnavailable):
            hadamard.load_custom_matrices(path)

    def test_two_blocks_of_one_order_name_both_start_lines(self, tmp_path):
        path = tmp_path / "twice.txt"
        path.write_text(ALT4 + "\n1 1\n1 -1\n\n# the order-4 Sylvester matrix\n"
                        + "1 1 1 1\n1 -1 1 -1\n1 1 -1 -1\n1 -1 -1 1\n")
        with pytest.raises(ConfigError) as err:
            hadamard.load_custom_matrices(path)
        assert str(err.value) == f"{path}: the blocks at lines 1 and 10 both have order 4"


@pytest.mark.parametrize("order", [4, 64])
def test_symmetric_sign_matrix_that_does_not_square_to_order_is_refused(order):
    m = hadamard.build(order).ints.copy()
    m[1, 2] = m[2, 1] = -m[1, 2]  # still symmetric and +-1, no longer Hadamard
    with pytest.raises(ConstructionUnavailable, match="^matrix is not self-inverse after normalization$"):
        hadamard.HadamardMatrix(order, m)
