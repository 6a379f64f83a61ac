"""Hard singular value thresholding: scaling, threshold formula, estimation."""

import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from pagerec import NumericError, optimal_threshold, osvt_estimate
from pagerec.svt import osvt_batch
from pagerec.matrices import page_entries


def threshold_oracle(zeta_str: str) -> float:
    """Arbitrary-precision evaluation of the closed-form cutoff."""
    getcontext().prec = 50
    z = Decimal(zeta_str)
    inner = (z * z + 14 * z + 1).sqrt()
    return float((2 * (z + 1) + 8 * z / ((z + 1) + inner)).sqrt())


# ---------------------------------------------------------------------------
# the estimator's scaling into [-1, 1]: its bounds, and the spectrum it
# thresholds against that of the scaled matrix computed here
# ---------------------------------------------------------------------------

def test_scale_symmetric_range():
    X = np.array([[-2.0, 0.0], [1.0, 2.0]])
    out = osvt_estimate(X)
    assert out.scale_bounds == (-2.0, 2.0)
    assert np.allclose(out.singular_values, np.linalg.svd(X / 2.0, compute_uv=False))


def test_scale_endpoints_map_to_unit():
    out = osvt_estimate(np.array([[0.0, 10.0]]))
    assert np.allclose(out.singular_values, np.linalg.svd([[-1.0, 1.0]], compute_uv=False))
    assert out.scale_bounds == (0.0, 10.0)


def test_scale_constant_matrix_flagged_by_bounds():
    X = np.full((3, 4), 5.0)
    out = osvt_estimate(X)
    a, b = out.scale_bounds
    assert a == b == 5.0
    assert out.constant_input
    assert np.array_equal(out.estimate, X)


def test_scale_rejects_nonfinite():
    with pytest.raises(NumericError):
        osvt_estimate(np.array([[1.0, np.nan]]))


def test_scale_range_always_unit():
    rng = np.random.default_rng(1)
    for _ in range(100):
        X = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 10),
                       (int(rng.integers(1, 8)), int(rng.integers(1, 8))))
        if X.min() == X.max():
            continue
        out = osvt_estimate(X)
        a, b = out.scale_bounds
        assert (a, b) == (X.min(), X.max())
        Y = (X - 0.5 * (a + b)) / (0.5 * (b - a))
        assert Y.min() >= -1.0 - 1e-12 and Y.max() <= 1.0 + 1e-12
        assert math.isclose(Y.min(), -1.0) and math.isclose(Y.max(), 1.0)
        s = np.linalg.svd(Y, compute_uv=False)
        assert np.allclose(out.singular_values, s, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# optimal_threshold
# ---------------------------------------------------------------------------

def test_threshold_square_matrix_closed_form():
    # zeta = 1 simplifies to 4/sqrt(3)
    assert optimal_threshold(7, 7) == pytest.approx(4.0 / math.sqrt(3.0), abs=1e-12)


def test_threshold_flat_limit_sqrt2():
    assert optimal_threshold(1, 10**9) == pytest.approx(math.sqrt(2.0), abs=1e-4)


def test_threshold_half_ratio_matches_high_precision_oracle():
    # frozen from a 50-digit Decimal evaluation at zeta = 1/2
    assert threshold_oracle("0.5") == pytest.approx(1.9785990537531034, abs=1e-15)
    assert optimal_threshold(5, 10) == pytest.approx(1.9785990537531034, abs=1e-12)


def test_threshold_monotone_in_aspect():
    values = [optimal_threshold(m, 100) for m in (1, 10, 50, 100)]
    assert values == sorted(values)


def test_threshold_rejects_tall():
    with pytest.raises(ValueError):
        optimal_threshold(10, 5)


# ---------------------------------------------------------------------------
# osvt_estimate
# ---------------------------------------------------------------------------

def symmetric_tone_page(n=200, L=5, phase=0.3):
    """Page matrix of a quarter-rate tone. The sample values form an exactly
    symmetric set, so the [-1, 1] scaling is a pure rescale and the matrix
    is exactly rank 2 (L odd keeps the four column phases distinct)."""
    w = np.sin(0.5 * np.pi * np.arange(n) + phase)
    return page_entries(w, L)


def test_estimate_recovers_clean_tone():
    X = symmetric_tone_page()
    s = np.linalg.svd(X / np.abs(X).max(), compute_uv=False)  # oracle spectrum
    assert s[1] > 1e-3 * s[0]
    assert s[2] < 1e-8 * s[0]
    out = osvt_estimate(X)
    assert out.kept_rank in (2, 3, 4)
    rel = np.linalg.norm(out.estimate - X) / np.linalg.norm(X)
    assert rel < 1e-6


def test_estimate_rank_one_exact():
    u = np.array([1.0, -1.0, 0.5, 0.25])
    v = np.linspace(0.5, 2.0, 12)
    X = np.outer(u, v)  # entries span [-2, 2] symmetrically, so no shift term
    s = np.linalg.svd(X / 2.0, compute_uv=False)
    assert s[0] > optimal_threshold(4, 12) and s[1] < 1e-12
    out = osvt_estimate(X)
    assert out.kept_rank == 1
    assert np.abs(out.estimate - X).max() < 1e-9
    assert not out.fallback_rank1


def test_estimate_constant_matrix_unchanged():
    X = np.full((4, 9), 2.5)
    out = osvt_estimate(X)
    assert out.constant_input
    assert out.kept_rank == 1
    assert np.array_equal(out.estimate, X)


def test_estimate_empty_keep_set_falls_back_to_top_triple():
    rng = np.random.default_rng(5)
    X = rng.normal(0.0, 1.0, (6, 8))  # pure noise: scaled spectrum sits under the cutoff
    out = osvt_estimate(X)
    if out.fallback_rank1:
        assert out.kept_rank == 1
        assert (out.singular_values > out.threshold).sum() == 0


def test_estimate_outcome_invariants():
    rng = np.random.default_rng(6)
    for _ in range(100):
        X = rng.normal(rng.uniform(-3, 3), rng.uniform(0.1, 5),
                       (int(rng.integers(2, 7)), int(rng.integers(2, 12))))
        out = osvt_estimate(X)
        m, n = X.shape
        assert out.estimate.shape == X.shape
        assert np.isfinite(out.estimate).all()
        assert 1 <= out.kept_rank <= min(m, n)
        expected_kept = int((out.singular_values > out.threshold).sum())
        if not out.fallback_rank1 and not out.constant_input:
            assert out.kept_rank == expected_kept
        if out.kept_rank == min(m, n):
            a, b = out.scale_bounds
            assert out.estimate.min() >= a - 1e-9 and out.estimate.max() <= b + 1e-9


def test_estimate_transpose_consistency():
    rng = np.random.default_rng(7)
    for _ in range(100):
        X = rng.normal(0, rng.uniform(0.5, 3),
                       (int(rng.integers(2, 7)), int(rng.integers(2, 10))))
        a = osvt_estimate(X).estimate
        b = osvt_estimate(X.T).estimate.T
        assert np.abs(a - b).max() < 1e-9


def test_estimate_shift_equivariance():
    rng = np.random.default_rng(8)
    for _ in range(100):
        t = np.arange(60) / 60.0
        w = np.sin(2 * np.pi * rng.uniform(2, 9) * t + rng.uniform(0, 6))
        X = page_entries(w, 6) * rng.uniform(0.5, 2.0)
        c = rng.uniform(-50.0, 50.0)
        base = osvt_estimate(X)
        shifted = osvt_estimate(X + c)
        assert shifted.kept_rank == base.kept_rank
        assert np.allclose(shifted.scale_bounds,
                           (base.scale_bounds[0] + c, base.scale_bounds[1] + c))
        assert np.abs(shifted.estimate - (base.estimate + c)).max() < 1e-9


def test_estimate_idempotent_on_kept_subspace():
    rng = np.random.default_rng(9)
    for _ in range(20):
        X = symmetric_tone_page(n=120, L=5, phase=rng.uniform(0, 6))
        X = X * rng.uniform(0.5, 4.0)
        first = osvt_estimate(X)
        second = osvt_estimate(first.estimate)
        rel = np.linalg.norm(second.estimate - first.estimate) / np.linalg.norm(first.estimate)
        assert rel < 1e-6


def test_estimate_rejects_nonfinite():
    with pytest.raises(NumericError):
        osvt_estimate(np.array([[1.0, np.inf], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# osvt_batch: the bare kernel on already-scaled stacks
# ---------------------------------------------------------------------------

def to_unit(X):
    """X mapped affinely onto [-1, 1], min to -1 and max to 1, as the window
    engine maps each channel block."""
    a, b = X.min(), X.max()
    return (X - 0.5 * (a + b)) / (0.5 * (b - a))


def mixed_stack():
    """Scaled 5 x 36 matrices that keep ranks 1, 2 and 3, the all-zero
    matrix a window of constant channels scales to, and one whose spectrum
    lies wholly under the cutoff; the last two fall back to rank 1."""
    rng = np.random.default_rng(21)
    mats = []
    for rank in (1, 2, 3, 2, 1, 3):
        u = np.linalg.qr(rng.standard_normal((5, rank)))[0]
        v = np.linalg.qr(rng.standard_normal((36, rank)))[0]
        signal = (u * [1.0, 0.9, 0.8][:rank]) @ v.T
        mats.append(to_unit(signal + 1e-4 * rng.standard_normal((5, 36))))
    mats.append(np.zeros((5, 36)))
    spikes = np.zeros((5, 36))
    spikes[0, 0], spikes[0, 1], spikes[2, 7] = 1.0, 0.5, -1.0
    mats.append(spikes)
    return np.array(mats)


@pytest.mark.parametrize("tall", [False, True])
def test_batch_matrix_results_equal_single_matrix_results_bitwise(tall):
    X = mixed_stack()
    if tall:
        X = X.swapaxes(1, 2).copy()
    out = osvt_batch(X)
    assert out.kept_rank.tolist() == [1, 2, 3, 2, 1, 3, 1, 1]
    assert out.fallback_rank1.tolist() == [False] * 6 + [True, True]
    assert not out.estimate[6].any()
    for i in range(len(X)):
        alone = osvt_batch(X[i:i + 1])
        assert alone.threshold == out.threshold
        for name in ("estimate", "kept_rank", "singular_values", "U", "fallback_rank1"):
            a, b = getattr(alone, name)[0], getattr(out, name)[i]
            assert a.dtype == b.dtype and a.shape == b.shape, (i, name)
            assert a.tobytes() == b.tobytes(), (i, name)


@pytest.mark.parametrize("tall", [False, True])
def test_batch_thresholds_its_input_as_given(tall):
    # entries strictly inside (-1, 1): the kernel must not stretch them
    rng = np.random.default_rng(22)
    u = np.linalg.qr(rng.standard_normal((6, 2)))[0]
    v = np.linalg.qr(rng.standard_normal((40, 2)))[0]
    Y = (u * [4.0, 2.5]) @ v.T + 0.01 * rng.standard_normal((6, 40))
    Y *= 0.9 / np.abs(Y).max()
    if tall:
        Y = Y.T.copy()
    out = osvt_batch(Y[None])
    U, s, Vt = np.linalg.svd(Y, full_matrices=False)
    assert np.allclose(out.singular_values[0], s, rtol=1e-13, atol=0)
    k = int((s > out.threshold).sum())
    assert k == out.kept_rank[0] == 2
    assert np.allclose(out.estimate[0], (U[:, :k] * s[:k]) @ Vt[:k], rtol=0, atol=1e-14)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("tall", [False, True])
def test_estimate_rejects_nonfinite_entry(bad, tall):
    # osvt_batch checks nothing; osvt_estimate, which scales, rejects
    X = mixed_stack()[3]
    X[2, 4] = bad
    if tall:
        X = X.T
    with pytest.raises(NumericError, match="non-finite"):
        osvt_estimate(X)
