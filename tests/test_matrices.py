"""Page/Hankel construction and the window engine's reshaping back."""

import numpy as np
import pytest

from pagerec import ConfigError, MatrixVariant, RecoveryConfig, ShapeError
from pagerec.matrices import hankel_entries, page_entries
from pagerec.recovery import _unstack


def antidiag_oracle(block, length):
    """Brute-force anti-diagonal mean."""
    L, cols = block.shape
    out = np.zeros(length)
    cnt = np.zeros(length)
    for i in range(L):
        for j in range(cols):
            out[i + j] += block[i, j]
            cnt[i + j] += 1
    return out / cnt


def unstack(stacked, L, variant=MatrixVariant.PAGE, n_channels=1):
    """One stacked matrix (L, n_channels * cols) back to its (n_channels, T)
    window through the engine, with the identity scale (mid 0, half 1)."""
    cols = stacked.shape[1] // n_channels
    T = L * cols if variant is MatrixVariant.PAGE else L + cols - 1
    cfg = RecoveryConfig(L=L, T=T, variant=variant)
    scale = np.zeros((1, n_channels, 1))
    return _unstack(stacked[None], scale, scale + 1.0, cfg)[0]


# ---------------------------------------------------------------------------
# page_entries
# ---------------------------------------------------------------------------

def test_page_basic_l2():
    assert np.array_equal(page_entries([1, 2, 3, 4, 5, 6], 2), [[1, 3, 5], [2, 4, 6]])


def test_page_basic_l3():
    assert np.array_equal(page_entries([1, 2, 3, 4, 5, 6], 3), [[1, 4], [2, 5], [3, 6]])


def test_page_30_over_5_is_5x6():
    assert page_entries(np.arange(30.0), 5).shape == (5, 6)


def test_page_rejects_indivisible():
    with pytest.raises(ShapeError):
        page_entries(np.arange(7.0), 2)


def test_page_rejects_l1():
    with pytest.raises(ConfigError):
        page_entries(np.arange(6.0), 1)


@pytest.mark.parametrize("make", [page_entries, hankel_entries])
def test_zero_dimensional_window_rejected(make):
    with pytest.raises(ShapeError, match=r"^window must be at least 1-D, got shape \(\)$"):
        make(np.float64(3.0), 2)


# ---------------------------------------------------------------------------
# hankel_entries
# ---------------------------------------------------------------------------

def test_hankel_basic():
    assert np.array_equal(hankel_entries([1, 2, 3, 4], 2), [[1, 2, 3], [2, 3, 4]])


def test_hankel_shapes():
    assert hankel_entries(np.arange(30.0), 5).shape == (5, 26)
    assert hankel_entries(np.arange(10.0), 5).shape == (5, 6)


def test_hankel_entry_definition():
    w = np.random.default_rng(0).normal(size=12)
    m = hankel_entries(w, 4)
    for i in range(4):
        for j in range(9):
            assert m[i, j] == w[i + j]


def test_hankel_rejects_short_window():
    with pytest.raises(ShapeError):
        hankel_entries([1.0, 2.0], 3)


# ---------------------------------------------------------------------------
# stacked matrices: channel blocks side by side, and back through the engine
# ---------------------------------------------------------------------------

def test_stack_two_blocks():
    a = page_entries([1, 2, 3, 4, 5, 6], 2)
    b = page_entries([7, 8, 9, 10, 11, 12], 2)
    s = np.hstack([a, b])
    assert s.shape == (2, 6)
    # channel a owns columns 0:3 and channel b columns 3:6
    back = unstack(s, 2, n_channels=2)
    assert np.array_equal(back, [[1, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11, 12]])
    s[:, 3:] = 0.0
    assert np.array_equal(unstack(s, 2, n_channels=2), [[1, 2, 3, 4, 5, 6], [0] * 6])


def test_stack_dimension_arithmetic():
    # 30 channels x (54000/10) columns each
    L, T, N = 10, 54000, 30
    blocks = page_entries(np.zeros((N, T)), L)
    assert blocks.shape == (N, L, T // L)
    assert (L, N * blocks.shape[-1]) == (10, 162000)


def test_stack_hankel_dimension_arithmetic():
    L, T, N = 5, 30, 4
    blocks = hankel_entries(np.zeros((N, T)), L)
    assert blocks.shape == (N, L, T - L + 1)
    assert N * blocks.shape[-1] == N * (T - L + 1)


def test_page_round_trip_identity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        L = int(rng.integers(2, 7))
        cols = int(rng.integers(1, 9))
        w = rng.normal(size=L * cols)
        out = unstack(page_entries(w, L), L)
        assert np.array_equal(out[0], w)


def test_hankel_unmodified_round_trip():
    out = unstack(hankel_entries([1.0, 2.0, 3.0, 4.0], 2), 2, MatrixVariant.HANKEL)
    assert np.allclose(out[0], [1.0, 2.0, 3.0, 4.0])


def test_hankel_antidiagonal_mean_example():
    # modified 2x3 hankel-layout block averages anti-diagonals
    m = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    out = unstack(m, 2, MatrixVariant.HANKEL)
    expected = antidiag_oracle(m, 4)
    assert np.allclose(expected, [1.0, 3.0, 4.0, 6.0])
    assert np.allclose(out[0], expected)


def test_stacked_round_trip_multichannel():
    rng = np.random.default_rng(9)
    windows = {f"c{i}": rng.normal(size=20) for i in range(4)}
    s = np.hstack([page_entries(w, 5) for w in windows.values()])
    out = unstack(s, 5, n_channels=4)
    for i, w in enumerate(windows.values()):
        assert np.array_equal(out[i], w)


def test_column_count_page_vs_hankel():
    # Page has T/L columns, Hankel T-L+1; Hankel is wider whenever T > L
    rng = np.random.default_rng(11)
    for _ in range(50):
        L = int(rng.integers(2, 8))
        cols = int(rng.integers(2, 10))
        T = L * cols
        p = page_entries(np.zeros(T), L)
        h = hankel_entries(np.zeros(T), L)
        assert p.shape[1] == T // L
        assert h.shape[1] == T - L + 1
        assert h.shape[1] > p.shape[1]


def test_lrf_page_matrix_low_rank():
    # a sequence obeying f(t) = sum_g a_g f(t-g) yields numerical Page rank
    # at most G+1 when L > G
    rng = np.random.default_rng(13)
    for _ in range(20):
        G = int(rng.integers(1, 4))
        # stable coefficients from roots inside the unit circle
        roots = rng.uniform(0.5, 0.95, G) * rng.choice([-1, 1], G)
        coeffs = -np.poly(roots)[1:]
        f = np.empty(240)
        f[:G] = rng.normal(size=G)
        for t in range(G, 240):
            f[t] = np.dot(coeffs, f[t - 1::-1][:G])
        L = G + int(rng.integers(2, 4))
        m = page_entries(f[:L * (240 // L)], L)
        s = np.linalg.svd(m, compute_uv=False)
        assert (s[G + 1:] < 1e-8 * s[0]).all()
