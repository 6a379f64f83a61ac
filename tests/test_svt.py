"""Hard singular value thresholding: scaling, threshold formula, estimation."""

import math
import re
from decimal import Decimal, getcontext

import numpy as np
import pytest

from pagerec import (
    Dataset,
    MatrixVariant,
    NumericError,
    RecoveryConfig,
    optimal_threshold,
    predict_next,
)
from pagerec.svt import OsvtBatch, _cutoff, osvt_batch
from pagerec.matrices import hankel_entries, page_entries
from pagerec.recovery import _forecast


def threshold_oracle(zeta_str: str) -> float:
    """Arbitrary-precision evaluation of the closed-form cutoff."""
    getcontext().prec = 50
    z = Decimal(zeta_str)
    inner = (z * z + 14 * z + 1).sqrt()
    return float((2 * (z + 1) + 8 * z / ((z + 1) + inner)).sqrt())


# ---------------------------------------------------------------------------
# scaling into [-1, 1] as the window engine scales a channel block, and the
# spectrum osvt_batch reports for the scaled matrix
# ---------------------------------------------------------------------------

def unit_scale(X):
    """mid and half such that (X - mid) / half maps X affinely onto [-1, 1],
    min to -1 and max to 1, with the window engine's arithmetic: the halves
    of min and max are combined, so both stay finite for any finite X, and
    a half-range of zero (a constant X, or entries 0 and 5e-324) keeps half
    = 1, so a constant X maps to zeros."""
    lo, hi = 0.5 * X.min(), 0.5 * X.max()
    half = hi - lo
    return lo + hi, half if half else 1.0


def to_unit(X):
    """X mapped onto [-1, 1] by unit_scale."""
    mid, half = unit_scale(X)
    return (X - mid) / half


def unit_estimate(X):
    """The thresholded estimate of the matrix X in X's units, and osvt_batch's
    record of it: X scaled by unit_scale, thresholded and mapped back."""
    mid, half = unit_scale(X)
    out = osvt_batch(((X - mid) / half)[None])
    return out.estimate()[0] * half + mid, out


def test_scale_symmetric_range():
    X = np.array([[-2.0, 0.0], [1.0, 2.0]])
    assert unit_scale(X) == (0.0, 2.0)
    out = osvt_batch(to_unit(X)[None])
    assert np.allclose(out.singular_values[0], np.linalg.svd(X / 2.0, compute_uv=False))


def test_scale_endpoints_map_to_unit():
    Y = to_unit(np.array([[0.0, 10.0]]))
    assert Y.tolist() == [[-1.0, 1.0]]
    out = osvt_batch(Y[None])
    assert np.allclose(out.singular_values[0], np.linalg.svd([[-1.0, 1.0]], compute_uv=False))


def test_scale_constant_matrix_flagged_by_bounds():
    # a constant matrix scales to the zero matrix, whose spectrum is zero:
    # nothing lies above the cutoff, so it keeps its top triple, of value
    # zero, which comes back as zero vectors
    X = np.full((3, 4), 5.0)
    assert unit_scale(X) == (5.0, 1.0)
    out = osvt_batch(to_unit(X)[None])
    assert out.fallback_rank1[0] and out.kept_rank[0] == 1
    assert not out.singular_values.any() and not out.U.any() and not out.Vt.any()


def test_scale_range_always_unit():
    rng = np.random.default_rng(1)
    for _ in range(100):
        X = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 10),
                       (int(rng.integers(1, 8)), int(rng.integers(1, 8))))
        if X.min() == X.max():
            continue
        Y = to_unit(X)
        assert Y.min() >= -1.0 - 1e-12 and Y.max() <= 1.0 + 1e-12
        assert math.isclose(Y.min(), -1.0) and math.isclose(Y.max(), 1.0)
        s = np.linalg.svd(Y, compute_uv=False)
        out = osvt_batch(Y[None])
        assert np.allclose(out.singular_values[0], s, rtol=1e-12, atol=1e-12)


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
# the thresholded estimate of one matrix, scaled by unit_scale
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
    estimate, out = unit_estimate(X)
    assert out.kept_rank[0] in (2, 3, 4)
    rel = np.linalg.norm(estimate - X) / np.linalg.norm(X)
    assert rel < 1e-6


def test_estimate_rank_one_exact():
    u = np.array([1.0, -1.0, 0.5, 0.25])
    v = np.linspace(0.5, 2.0, 12)
    X = np.outer(u, v)  # entries span [-2, 2] symmetrically, so no shift term
    s = np.linalg.svd(X / 2.0, compute_uv=False)
    estimate, out = unit_estimate(X)
    assert s[0] > out.threshold[0] and s[1] < 1e-12
    assert out.kept_rank[0] == 1
    assert np.abs(estimate - X).max() < 1e-9
    assert not out.fallback_rank1[0]


def test_estimate_constant_matrix_unchanged():
    X = np.full((4, 9), 2.5)
    estimate, out = unit_estimate(X)
    assert out.fallback_rank1[0]
    assert out.kept_rank[0] == 1
    assert np.array_equal(estimate, X)


def test_estimate_empty_keep_set_falls_back_to_top_triple():
    rng = np.random.default_rng(1)
    X = rng.normal(0.0, 1.0, (6, 8))  # pure noise: scaled spectrum sits under the cutoff
    estimate, out = unit_estimate(X)
    assert out.fallback_rank1[0]
    assert out.kept_rank[0] == 1
    assert not (out.singular_values[0] > out.threshold[0]).any()
    # the estimate is the top singular triple of the scaled matrix, mapped back
    mid, half = unit_scale(X)
    U, s, Vt = np.linalg.svd((X - mid) / half)
    assert np.abs(estimate - (s[0] * np.outer(U[:, 0], Vt[0]) * half + mid)).max() <= 1e-12


def test_estimate_outcome_invariants():
    rng = np.random.default_rng(6)
    for _ in range(100):
        X = rng.normal(rng.uniform(-3, 3), rng.uniform(0.1, 5),
                       (int(rng.integers(2, 7)), int(rng.integers(2, 12))))
        estimate, out = unit_estimate(X)
        m, n = X.shape
        kept = out.kept_rank[0]
        assert estimate.shape == X.shape
        assert np.isfinite(estimate).all()
        assert 1 <= kept <= min(m, n)
        expected_kept = int((out.singular_values[0] > out.threshold[0]).sum())
        if out.fallback_rank1[0]:
            assert kept == 1 and expected_kept == 0
        else:
            assert kept == expected_kept
        if kept == min(m, n):
            assert estimate.min() >= X.min() - 1e-9 and estimate.max() <= X.max() + 1e-9


def test_estimate_transpose_consistency():
    rng = np.random.default_rng(7)
    for _ in range(100):
        X = rng.normal(0, rng.uniform(0.5, 3),
                       (int(rng.integers(2, 7)), int(rng.integers(2, 10))))
        a = unit_estimate(X)[0]
        b = unit_estimate(X.T)[0].T
        assert np.abs(a - b).max() < 1e-9


def test_estimate_shift_equivariance():
    rng = np.random.default_rng(8)
    for _ in range(100):
        t = np.arange(60) / 60.0
        w = np.sin(2 * np.pi * rng.uniform(2, 9) * t + rng.uniform(0, 6))
        X = page_entries(w, 6) * rng.uniform(0.5, 2.0)
        c = rng.uniform(-50.0, 50.0)
        base, base_out = unit_estimate(X)
        shifted, shifted_out = unit_estimate(X + c)
        assert shifted_out.kept_rank[0] == base_out.kept_rank[0]
        assert np.abs(shifted - (base + c)).max() < 1e-9


def test_estimate_idempotent_on_kept_subspace():
    rng = np.random.default_rng(9)
    for _ in range(20):
        X = symmetric_tone_page(n=120, L=5, phase=rng.uniform(0, 6))
        X = X * rng.uniform(0.5, 4.0)
        first = unit_estimate(X)[0]
        second = unit_estimate(first)[0]
        rel = np.linalg.norm(second - first) / np.linalg.norm(first)
        assert rel < 1e-6


@pytest.mark.parametrize("low, high", [(-1e308, 1e308), (0.0, 5e-324)])
def test_estimate_accepts_any_finite_range(low, high):
    # 0.5 (high - low) overflows for the first and rounds to zero for the
    # second; the suite turns the warnings either gives into errors
    X = np.where(np.arange(40).reshape(4, 10) % 3 == 0, high, low)
    estimate, out = unit_estimate(X)
    assert np.isfinite(estimate).all()
    assert np.isfinite(out.singular_values).all()


# ---------------------------------------------------------------------------
# osvt_batch: the bare kernel on already-scaled stacks
# ---------------------------------------------------------------------------

def mixed_stack(cols=36):
    """10 x cols matrices that keep ranks 1, 2 and 3, the all-zero matrix a
    window of constant channels scales to, and one whose spectrum lies
    wholly under the cutoff; the last two fall back to rank 1. Every rank
    is below half the rows, so at least half of each spectrum is noise and
    a cutoff that reads the spectrum finds it there. The first six are
    scaled into [-1, 1] without a shift: to_unit's shift adds a rank-one
    term, which at 156 columns rises above the cutoff."""
    rng = np.random.default_rng(21)
    mats = []
    for rank in (1, 2, 3, 2, 1, 3):
        u = np.linalg.qr(rng.standard_normal((10, rank)))[0]
        v = np.linalg.qr(rng.standard_normal((cols, rank)))[0]
        noisy = (u * [1.0, 0.9, 0.8][:rank]) @ v.T + 1e-4 * rng.standard_normal((10, cols))
        mats.append(noisy / np.abs(noisy).max())
    mats.append(np.zeros((10, cols)))
    spikes = np.zeros((10, cols))
    spikes[0, 0], spikes[0, 1], spikes[2, 7] = 1.0, 0.5, -1.0
    mats.append(spikes)
    return np.array(mats)


def routes(narrow, wide):
    """(cols, tall) cases for an osvt_batch test, each as given and
    transposed: a column count a few times the rows, as in a page window's
    stack (ids False, True), and a wide one, 15 to 40 columns per row, as
    in a Hankel stream window's stack, 5 x 156 at L=5, T=30 (ids
    wide-False, wide-True)."""
    return [
        pytest.param(narrow, False, id="False"),
        pytest.param(narrow, True, id="True"),
        pytest.param(wide, False, id="wide-False"),
        pytest.param(wide, True, id="wide-True"),
    ]


@pytest.mark.parametrize("cols, tall", routes(36, 156))
def test_batch_matrix_results_equal_single_matrix_results_bitwise(cols, tall):
    X = mixed_stack(cols)
    if tall:
        X = X.swapaxes(1, 2).copy()
    out = osvt_batch(X)
    assert out.kept_rank.tolist() == [1, 2, 3, 2, 1, 3, 1, 1]
    assert out.fallback_rank1.tolist() == [False] * 6 + [True, True]
    estimate = out.estimate()
    assert not estimate[6].any()
    for i in range(len(X)):
        alone = osvt_batch(X[i:i + 1])
        for name in ("kept_rank", "singular_values", "U", "Vt", "threshold", "fallback_rank1"):
            a, b = getattr(alone, name)[0], getattr(out, name)[i]
            assert a.dtype == b.dtype and a.shape == b.shape, (i, name)
            assert a.tobytes() == b.tobytes(), (i, name)
        a, b = alone.estimate()[0], estimate[i]
        assert a.shape == b.shape == X.shape[1:], i
        assert a.tobytes() == b.tobytes(), i


@pytest.mark.parametrize("cols, tall", routes(40, 240))
def test_batch_thresholds_its_input_as_given(cols, tall):
    # entries strictly inside (-1, 1): the kernel must not stretch them
    rng = np.random.default_rng(22)
    u = np.linalg.qr(rng.standard_normal((6, 2)))[0]
    v = np.linalg.qr(rng.standard_normal((cols, 2)))[0]
    Y = (u * [4.0, 2.5]) @ v.T + 0.01 * rng.standard_normal((6, cols))
    Y *= 0.9 / np.abs(Y).max()
    if tall:
        Y = Y.T.copy()
    out = osvt_batch(Y[None])
    U, s, Vt = np.linalg.svd(Y, full_matrices=False)
    assert np.allclose(out.singular_values[0], s, rtol=1e-13, atol=0)
    k = int((s > out.threshold[0]).sum())
    assert k == out.kept_rank[0] == 2
    assert np.allclose(out.estimate()[0], (U[:, :k] * s[:k]) @ Vt[:k], rtol=0, atol=1e-14)


def kept_vectors(out):
    """(B, r) flags of the triples whose vectors out holds: the nonzero
    columns of U, which must be the nonzero rows of Vt."""
    kept = out.U.any(axis=1)
    assert np.array_equal(kept, out.Vt.any(axis=2))
    return kept


@pytest.mark.parametrize("cols, tall", routes(36, 156))
def test_batch_weights_are_the_spectrum_up_to_the_kept_rank(cols, tall):
    # each matrix's cutoff is lambda* of the oriented shape, and its kept
    # rank, kept vectors and fallback flag follow from its own cutoff: the
    # estimate weights the vectors of its first kept_rank triples by their
    # values, and every other vector is zero. The fallback (spikes) and
    # all-zero matrices keep one triple too, and the zero matrix's kept
    # value is zero, so it holds no vector
    X = mixed_stack(cols)
    if tall:
        X = X.swapaxes(1, 2).copy()
    out = osvt_batch(X)
    assert out.threshold.shape == (len(X),)
    assert (out.threshold == optimal_threshold(*sorted(X.shape[1:]))).all()
    kept = kept_vectors(out)
    for i, k in enumerate(out.kept_rank):
        s = out.singular_values[i]
        above = s > out.threshold[i]
        assert k == max(above.sum(), 1) and out.fallback_rank1[i] == (not above.any()), i
        assert np.array_equal(kept[i], (np.arange(len(s)) < k) & (s > 0)), i
    assert not kept[6].any()
    assert kept[7].tolist() == [True] + [False] * 9


@pytest.mark.parametrize("shape", [(5, 36), (2, 1, 5, 36), (1, 0, 5), (1, 5, 0)])
def test_batch_rejects_a_stack_that_is_not_three_dimensional(shape):
    with pytest.raises(NumericError, match=rf"^expected a \(B, m, n\) stack, got shape "
                                           rf"{re.escape(str(shape))}$"):
        osvt_batch(np.zeros(shape))


@pytest.mark.parametrize("shape", [(0, 5, 36), (0, 36, 5)])
def test_batch_of_no_matrices_is_an_empty_result(shape):
    out = osvt_batch(np.zeros(shape))
    assert out.kept_rank.shape == out.threshold.shape == (0,)
    assert out.estimate().shape == shape


def lapack_batch(X):
    """The OsvtBatch of a (B, m, n) stack, m <= n, from LAPACK's SVD: the
    kept set is the values above the cutoff, or the top value, and the
    triples past it or of value zero are zero vectors."""
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    threshold = _cutoff(s, *X.shape[1:])
    above = s > threshold[:, None]
    kept = np.maximum(above.sum(axis=1), 1)
    keep = (np.arange(s.shape[1]) < kept[:, None]) & (s > 0)
    return OsvtBatch(kept, s, U * keep[:, None], Vt * keep[..., None], threshold, ~above[:, 0])


@pytest.mark.parametrize("cols", [36, 156])
def test_kernel_agrees_with_lapack_svd_on_the_same_stacks(cols):
    # 6 channel blocks of cols / 6 columns for the forecast
    X = mixed_stack(cols)
    mid, half = np.zeros((len(X), 6, 1)), np.ones((len(X), 6, 1))
    out, ref = osvt_batch(X), lapack_batch(X)
    assert out.kept_rank.tolist() == ref.kept_rank.tolist() == [1, 2, 3, 2, 1, 3, 1, 1]
    assert out.fallback_rank1.tolist() == ref.fallback_rank1.tolist()
    # the spectrum at and above the cutoff
    s = ref.singular_values
    at = s >= out.threshold[:, None]
    assert np.abs(out.singular_values - s)[at].max() <= 1e-13 * s.max()
    for a, b in zip((out.estimate(), *_forecast(out, mid, half)),
                    (ref.estimate(), *_forecast(ref, mid, half))):
        assert np.isfinite(a).all()
        assert np.abs(a - b).max() <= 1e-12
    # the zero matrix: one kept triple of value zero, zero vectors, a zero
    # estimate and zero forecast coefficients
    assert out.kept_rank[6] == 1 and not out.U[6].any()
    assert not out.singular_values[6].any() and not out.Vt[6].any()
    assert not out.estimate()[6].any()
    assert not _forecast(out, mid, half)[1][6].any()


@pytest.mark.parametrize("L, T", [(5, 30), (10, 240)])
def test_kernel_returns_factors_in_the_callers_orientation(L, T):
    # the engine's wide page stacks of 6 channel blocks: 5 x 36 for a stream
    # window, 10 x 144 for the benchmark's impute window
    rng = np.random.default_rng(31)
    B, N = 7, 6
    t = np.arange(T) / 60.0
    rows = np.sin(2 * np.pi * rng.uniform(2, 9, (B, N, 1)) * t + rng.uniform(0, 6, (B, N, 1)))
    rows += 0.05 * rng.standard_normal(rows.shape)
    lo, hi = rows.min(axis=-1, keepdims=True), rows.max(axis=-1, keepdims=True)
    blocks = page_entries((rows - 0.5 * (lo + hi)) / (0.5 * (hi - lo)), L)
    Y = blocks.transpose(0, 2, 1, 3).reshape(B, L, -1)
    m, n = Y.shape[1:]
    out = osvt_batch(Y)
    U, s, Vt = out.U, out.singular_values, out.Vt
    assert U.shape == (B, m, m) and s.shape == (B, m) and Vt.shape == (B, m, n)
    assert (out.kept_rank < m).all()
    # the kept triples: orthonormal vectors whose estimate is Y projected on
    # the kept left vectors; past the kept rank every vector is zero
    for b, k in enumerate(out.kept_rank):
        Uk, Vk, eye = U[b, :, :k], Vt[b, :k], np.eye(k)
        assert np.abs(Uk.T @ Uk - eye).max() <= 1e-13
        assert np.abs(Vk @ Vk.T - eye).max() <= 1e-13
        assert np.abs(out.estimate()[b] - Uk @ (Uk.T @ Y[b])).max() <= 1e-13
        assert not U[b, :, k:].any() and not Vt[b, k:].any()
    # the stack transposed: the same factors, swapped
    tall = osvt_batch(Y.swapaxes(1, 2))
    assert np.array_equal(tall.U, Vt.swapaxes(1, 2)) and np.array_equal(tall.Vt, U.swapaxes(1, 2))
    assert np.array_equal(tall.singular_values, s)


def stress_stack(rng, m, n):
    """One (m, n) matrix of each kind the stress test draws, scaled so that
    its largest entry is 1: rank 0 to m plus noise of 1e-12 to 1e-6 (near
    rank deficient), or spectra falling from 1 to about sqrt(eps), where
    the kernel's error below the cutoff is largest."""
    rank = int(rng.integers(0, m + 1))
    X = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    X += 10.0 ** rng.uniform(-12, -6) * rng.standard_normal((m, n))
    yield X / np.abs(X).max()
    k = min(m, n)
    u = np.linalg.qr(rng.standard_normal((m, k)))[0]
    v = np.linalg.qr(rng.standard_normal((n, k)))[0]
    spectrum = np.sort(10.0 ** rng.uniform(-10, 0, k))[::-1]
    spectrum[0] = 1.0
    X = (u * spectrum) @ v.T
    yield X / np.abs(X).max()


def test_kernel_stress_keeps_a_prefix_to_the_stated_precision():
    # the module docstring: values at and above the cutoff to rounding (to
    # 1e-13 s1 here), below it within about sqrt(eps) s1 (bounded at twice
    # that), the kept set a prefix of the spectrum equal to LAPACK's, the
    # estimate LAPACK's to 1e-12, kept rows i and j of Vt orthogonal to
    # eps s1 / min(s_i, s_j) (bounded at four times that), and every
    # vector past the kept rank zero
    rng = np.random.default_rng(41)
    eps = np.finfo(float).eps
    below = 0.0
    for _ in range(150):
        m = int(rng.integers(2, 11))
        n = int(rng.integers(m, 8 * m + 30))
        for X in stress_stack(rng, m, n):
            out, ref = osvt_batch(X[None]), lapack_batch(X[None])
            s, got = ref.singular_values[0], out.singular_values[0]
            k = int(out.kept_rank[0])
            assert k == ref.kept_rank[0]
            assert np.array_equal(kept_vectors(out)[0], (np.arange(len(got)) < k) & (got > 0))
            cut = out.threshold[0]
            assert (got[:k] > cut).all() or out.fallback_rank1[0]
            assert not (got[k:] > cut).any()
            at = s >= cut
            assert np.abs(got - s)[at].max(initial=0.0) <= 1e-13 * s[0]
            below = max(below, np.abs(got - s).max() / s[0])
            assert np.abs(out.estimate() - ref.estimate()).max() <= 1e-12
            Vk = out.Vt[0, :k]
            pairs = ~np.eye(k, dtype=bool)
            smaller = np.minimum(got[:k, None], got[:k])
            assert (np.abs(Vk @ Vk.T) <= 4.0 * eps * got[0] / smaller)[pairs].all()
            assert not out.U[0, :, k:].any() and not out.Vt[0, k:].any()
    assert 1e-10 < below <= 2.0 * math.sqrt(np.finfo(float).eps)
    # a zero matrix, and one of subnormal offsets (the window engine's
    # scaling of a channel holding 0 and 5e-324), whose products underflow:
    # both read as a zero spectrum, keep one triple of value zero and have
    # a zero estimate; a triple of value zero is returned as zero vectors
    offsets = np.where(np.arange(60).reshape(5, 12) % 3 == 0, 5e-324, 0.0)
    for X in (np.zeros((5, 12)), offsets, -offsets.T):
        out = osvt_batch(X[None])
        assert out.kept_rank[0] == 1 and out.fallback_rank1[0]
        assert not out.singular_values.any() and not out.estimate().any()
        assert not out.U.any() and not out.Vt.any()


@pytest.mark.parametrize("scale", [1e-140, 1e-150, 1e-155])
def test_kernel_keeps_a_tiny_matrix_exact(scale):
    # entries in [-1, 1] at any scale meet osvt_batch's precondition. All
    # values lie below the cutoff, so the top triple is kept; its row of Vt
    # is divided by its own value alone, and the estimate is LAPACK's top
    # triple to rounding. Near 1e-155 the Gram products are subnormal: each
    # is off by up to their spacing, 2^-1074, relative to scale^2 (module
    # docstring), and the bounds widen by that much
    spacing = 2.0 ** -1074 / scale ** 2
    X = np.random.default_rng(51).uniform(-1.0, 1.0, (5, 36)) * scale
    out = osvt_batch(X[None])
    assert out.fallback_rank1[0] and out.kept_rank[0] == 1
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    # in units of scale, whose squares do not underflow
    top = s[0] / scale * np.outer(U[:, 0], Vt[0])
    error = np.linalg.norm(out.estimate()[0] / scale - top) / np.linalg.norm(top)
    assert error <= 1e-13 + 100.0 * spacing
    assert abs(np.linalg.norm(out.Vt[0, 0]) - 1.0) <= 1e-15 + spacing
    assert kept_vectors(out)[0].tolist() == [True] + [False] * 4


@pytest.mark.parametrize("variant", ["page", "hankel"])
def test_batch_estimate_entries_equal_the_slice_of_the_whole_estimate(variant):
    # a chunk of stream windows as the engine stacks them: 6 channels at
    # L=5, T=30, blocks of cols columns side by side; the forecast reads
    # rows 1.. of each block's last column
    rng = np.random.default_rng(23)
    L, T, N = 5, 30, 6
    t = np.arange(T + 181) / 60.0
    rows = np.sin(2 * np.pi * rng.uniform(2, 9, (N, 1)) * t + rng.uniform(0, 6, (N, 1)))
    rows += 0.05 * rng.standard_normal(rows.shape)
    windows = np.lib.stride_tricks.sliding_window_view(rows, T, axis=1).transpose(1, 0, 2)
    make = page_entries if variant == "page" else hankel_entries
    blocks = np.stack([np.stack([make(to_unit(w), L) for w in win]) for win in windows])
    cols = blocks.shape[-1]
    stacked = blocks.transpose(0, 2, 1, 3).reshape(len(blocks), L, N * cols)
    out = osvt_batch(stacked)
    whole = out.estimate()
    for rows_at, columns_at in [
        (slice(1, None), slice(cols - 1, None, cols)),
        (slice(None), slice(cols - 1, None, cols)),
        (slice(1, None), slice(None)),
        (slice(2, 4), slice(3, 3 * cols)),
    ]:
        part = out.estimate(rows_at, columns_at)
        expect = whole[:, rows_at, columns_at]
        assert part.shape == expect.shape
        assert part.tobytes() == np.ascontiguousarray(expect).tobytes(), (rows_at, columns_at)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("tall", [False, True])
def test_estimate_rejects_nonfinite_entry(bad, tall):
    # osvt_batch checks nothing; the window engine, which scales, rejects a
    # non-finite observed sample before it stacks. Two hankel channel blocks
    # stack to 5 x 52 at L=5, T=30 and to 6 x 2, tall, at L = T = 6
    L, T = (6, 6) if tall else (5, 30)
    cfg = RecoveryConfig(L=L, T=T, variant=MatrixVariant.HANKEL)
    t = np.arange(T) / 60.0
    rows = np.vstack([np.sin(20.0 * t + 1.0), np.cos(7.0 * t) + 2.0])
    window = Dataset.from_arrays(t, rows, np.ones(rows.shape, dtype=bool), ("a", "b"))
    assert np.isfinite(list(predict_next(window, cfg)[0].values())).all()
    rows[1, 3] = bad
    with pytest.raises(NumericError, match="^channel 'b' has a non-finite"):
        predict_next(window.with_values(rows), cfg)
