"""_kernels.fsum_rows against math.fsum, row by row and bit for bit."""
import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extenso import _kernels
from extenso._kernels import fsum_rows


def fsum_reprs(rows):
    return [repr(math.fsum(row)) for row in rows]


@contextlib.contextmanager
def tree_for_every_block():
    """Send every nonempty block to the TwoSum tree, which blocks of at most
    _FSUM_TREE_MIN entries otherwise skip."""
    saved, _kernels._FSUM_TREE_MIN = _kernels._FSUM_TREE_MIN, 0
    try:
        yield
    finally:
        _kernels._FSUM_TREE_MIN = saved


def assert_matches_fsum(rows):
    block = np.array(rows, dtype=np.float64).reshape(len(rows), -1)
    assert [repr(v) for v in fsum_rows(block).tolist()] == fsum_reprs(rows)
    with tree_for_every_block():
        assert [repr(v) for v in fsum_rows(block).tolist()] == fsum_reprs(rows)


def blocks(elements, max_width=40):
    """Lists of 1 to 6 equal-width rows of 1 to max_width entries."""
    return st.integers(1, max_width).flatmap(
        lambda w: st.lists(st.lists(elements, min_size=w, max_size=w), min_size=1, max_size=6)
    )


# magnitudes from 1e-300 to 1e300, subnormals and signed zeros
WIDE = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_subnormal=True)
# dyadic values: small odd mantissas over a narrow exponent range, so that
# sums land on exact ties and cancel exactly
DYADIC = st.builds(lambda m, e: math.ldexp(m, e), st.integers(-(2**53), 2**53), st.integers(-60, 4))
ZEROS = st.sampled_from([0.0, -0.0])


class TestFsumRows:
    @settings(max_examples=150, deadline=None)
    @given(blocks(WIDE))
    def test_wide_magnitudes(self, rows):
        assert_matches_fsum(rows)

    @settings(max_examples=150, deadline=None)
    @given(blocks(DYADIC))
    def test_dyadic_values(self, rows):
        assert_matches_fsum(rows)

    @settings(max_examples=100, deadline=None)
    @given(blocks(st.one_of(WIDE, DYADIC, ZEROS), max_width=20), st.randoms(use_true_random=False))
    def test_full_cancellation(self, rows, rnd):
        # each row and its negation, shuffled: the exact sum is zero
        cancelled = []
        for row in rows:
            both = row + [-x for x in row]
            rnd.shuffle(both)
            cancelled.append(both)
        assert_matches_fsum(cancelled)

    @settings(max_examples=50, deadline=None)
    @given(blocks(ZEROS))
    def test_signed_zeros(self, rows):
        assert_matches_fsum(rows)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0.01, 50.0), st.integers(0, 2**52 - 1)), min_size=1, max_size=6
        ),
        st.integers(1, 38),
    )
    def test_half_ulp_ties(self, pairs, pad):
        # gamma-sized a and b = half an ulp of a: the pair's TwoSum error is
        # exactly half an ulp, so a + b is a tie, which ties-to-even breaks
        # down for an even a; a tiny entry of either sign, or none, decides
        # the correctly rounded sum
        rows = []
        for x, bits in pairs:
            m, e = math.frexp(x)
            a = math.ldexp(math.floor(math.ldexp(m, 53)) ^ (bits & 1), e - 53)
            tiny = math.ldexp((bits >> 1 & 1) * (1 - 2 * (bits >> 2 & 1)), e - 110)
            tail = [0.0] * pad
            tail[bits % pad] = tiny
            rows.append([a, math.ulp(a) / 2] + tail)
        assert_matches_fsum(rows)

    def test_axiom_sized_block_takes_no_fallback(self, monkeypatch):
        # entropy-like rows: every row is certified exact, none is summed again
        rng = np.random.default_rng(0)
        block = rng.gamma(1.0, 1.0, (357, 9)) * rng.random((357, 9))
        block[:, 7:] = 0.0
        calls, fsum = [], math.fsum
        monkeypatch.setattr(_kernels.math, "fsum", lambda row: calls.append(row) or fsum(row))
        got = fsum_rows(block)
        assert calls == []
        assert got.tolist() == [fsum(row) for row in block.tolist()]

    @pytest.mark.parametrize(
        "row",
        [
            [math.inf, 1.0],
            [-math.inf, -math.inf, 2.0],
            [math.inf, -math.inf],
            [math.nan, 1.0],
            [1e308, 1e308, -1e308],
            [1.7e308, 1.7e308],
            [1e308, -1e308, 5.0],
        ],
    )
    def test_non_finite_rows_do_what_fsum_does(self, row):
        for mode in (contextlib.nullcontext(), tree_for_every_block()):
            with mode:
                try:
                    want = repr(math.fsum(row))
                except (OverflowError, ValueError) as e:
                    with pytest.raises(type(e)):
                        fsum_rows(np.array([row]))
                    continue
                assert [repr(v) for v in fsum_rows(np.array([row])).tolist()] == [want]
                # one such row sends its whole block to math.fsum, the others unchanged
                rows = [row, [0.25] * len(row)]
                assert [repr(v) for v in fsum_rows(np.array(rows)).tolist()] == fsum_reprs(rows)

    def test_empty_blocks(self):
        assert fsum_rows(np.empty((0, 4))).tolist() == []
        assert fsum_rows(np.empty((3, 0))).tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize(
        "shape, loop",
        [
            ((6, 16), True),
            ((32, 16), True),  # 512 entries: any block this small
            ((32, 17), False),
            ((1, 513), True),  # fewer than 32 rows: up to 2 048 entries
            ((1, 2048), True),
            ((1, 2049), False),
            ((16, 128), True),
            ((16, 129), False),
            ((31, 66), True),
            ((31, 67), False),
        ],
    )
    def test_block_shape_picks_loop_or_tree(self, shape, loop, monkeypatch):
        # math.fsum row by row for small blocks and for short stacks of
        # long rows; the tree for the rest, where no row here falls back
        rng = np.random.default_rng(1)
        calls, fsum = [], math.fsum
        monkeypatch.setattr(_kernels.math, "fsum", lambda row: calls.append(row) or fsum(row))
        block = 1.0 + rng.random(shape)
        assert fsum_rows(block).tolist() == [fsum(row) for row in block.tolist()]
        assert len(calls) == (shape[0] if loop else 0)
