"""Major-axis slope fits in log space, bootstrap CIs, and per-firm exponents."""

import re
import tracemalloc

import numpy as np
import pytest

from conftest import make_directional
from patchscale import allometry
from patchscale.allometry import (
    PAIRS,
    bivariate_fit,
    log_points,
    pca2,
    pca3,
    per_firm_exponents,
    trivariate_fit,
)
from patchscale.errors import NumericalError

AXIS = np.array([1.9, 1.1, 1.0])  # (log T, log N, log V) direction


def _noiseless_cloud(seed=70, n=400):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, n)[:, None] * AXIS


def _noisy_cloud(seed=71, n=2000, noise=0.3):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, n)[:, None] * AXIS + rng.normal(0.0, noise, (n, 3))


def test_pca2_hand_oracle():
    pts = np.array([(3.0, 3.0), (-3.0, -3.0), (1.0, -1.0), (-1.0, 1.0)])
    slope, explained = pca2(pts)
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert explained == pytest.approx(0.9, abs=1e-12)


def test_pca2_anisotropic_cloud():
    # Axis variance ratio 10:1 along direction (1, 2).
    u = np.array([1.0, 2.0]) / np.sqrt(5.0)
    v = np.array([-2.0, 1.0]) / np.sqrt(5.0)
    pts = np.stack([np.sqrt(20.0) * u, -np.sqrt(20.0) * u, np.sqrt(2.0) * v, -np.sqrt(2.0) * v])
    slope, explained = pca2(pts)
    assert 1.9 <= slope <= 2.1
    assert explained == pytest.approx(10.0 / 11.0, abs=1e-12)


def test_pca2_negative_slope():
    pts = np.array([(1.0, -2.0), (-1.0, 2.0), (2.0, -4.0), (-2.0, 4.0)])
    slope, explained = pca2(pts)
    assert slope == pytest.approx(-2.0, abs=1e-12)
    assert explained == pytest.approx(1.0, abs=1e-12)


def test_pca2_translation_invariance():
    pts = _noisy_cloud()[:, (2, 1)]
    base, _ = pca2(pts)
    shifted, _ = pca2(pts + np.array([100.0, -40.0]))
    assert shifted == pytest.approx(base, abs=1e-9)


def test_pca2_isotropic_cloud_is_ambiguous():
    pts = np.array([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)])
    with pytest.raises(NumericalError):
        pca2(pts)


def test_pca3_noiseless_exact_recovery():
    fit = pca3(_noiseless_cloud())
    assert fit.g1 == pytest.approx(AXIS[1] / AXIS[2], abs=1e-12)
    assert fit.g2 == pytest.approx(AXIS[0] / AXIS[2], abs=1e-12)
    assert fit.g3 == pytest.approx(AXIS[1] / AXIS[0], abs=1e-12)
    assert fit.explained_variance == pytest.approx(1.0, abs=1e-12)
    assert fit.mode == "tri"


def test_pca3_identity_holds_exactly():
    for seed in range(5):
        fit = pca3(_noisy_cloud(seed=100 + seed))
        assert abs(fit.g1 - fit.g2 * fit.g3) <= 1e-12


def test_pca3_isotropic_cloud_is_ambiguous():
    pts = np.concatenate([np.eye(3), -np.eye(3)])
    with pytest.raises(NumericalError):
        pca3(pts)


def test_trivariate_fit_bootstrap_deterministic():
    pts = _noisy_cloud()
    a = trivariate_fit(pts, B=300, seed=11)
    b = trivariate_fit(pts, B=300, seed=11)
    assert a.ci95s == b.ci95s
    c = trivariate_fit(pts, B=300, seed=12)
    assert c.ci95s != a.ci95s
    for name, value in (("g1", a.g1), ("g2", a.g2), ("g3", a.g3)):
        lo, hi = a.ci95s[name]
        assert lo < value < hi


def test_bivariate_fit_matches_pairwise_pca2():
    pts = _noisy_cloud(seed=72)
    fit = bivariate_fit(pts, B=300, seed=13)
    assert fit.mode == "bi"
    assert fit.g1 == pytest.approx(pca2(pts[:, (2, 1)])[0], abs=1e-12)
    assert fit.g2 == pytest.approx(pca2(pts[:, (2, 0)])[0], abs=1e-12)
    assert fit.g3 == pytest.approx(pca2(pts[:, (0, 1)])[0], abs=1e-12)
    assert PAIRS == {"g1": (2, 1), "g2": (2, 0), "g3": (0, 1)}
    assert set(fit.explained_variance) == {"g1", "g2", "g3"}
    assert all(0.5 < share <= 1.0 for share in fit.explained_variance.values())


def _reference_estimates(pts, num, den, anchor, B, seed):
    """Usable ratio estimates of the gather-form bootstrap, and its failure count.

    The per-estimator bootstrap: its own draw over exactly the columns of
    pts, each resample's rows gathered, centred on their own mean and
    multiplied out, eigh, sign fixed by the anchor component, and ratio
    lead[num] / lead[den].
    """
    m = len(pts)
    rng = np.random.default_rng(seed)
    chunk = max(1, allometry._BOOTSTRAP_CHUNK_CELLS // m)
    kept = []
    failures = done = 0
    while done < B:
        size = min(chunk, B - done)
        samples = pts[rng.integers(0, m, size=(size, m))]
        centered = samples - samples.mean(axis=1)[:, None, :]
        covs = np.einsum("bmi,bmj->bij", centered, centered) / m
        eigenvalues, eigenvectors = np.linalg.eigh(covs)
        lam = eigenvalues[:, ::-1]
        lead = eigenvectors[:, :, -1]
        bad = (lam[:, 0] <= 0.0) | ((lam[:, 0] - lam[:, 1]) <= 1e-12 * lam[:, 0])
        bad |= lead[:, anchor] == 0.0
        lead = lead * np.where(bad, 1.0, np.sign(lead[:, anchor]))[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            est = lead[:, num] / lead[:, den]
        bad |= ~np.isfinite(est)
        failures += int(bad.sum())
        kept.append(est[~bad])
        done += size
    return np.concatenate(kept), failures


def _reference_ci(pts, num, den, anchor, B, seed):
    """Percentile 95% CI of the gather-form bootstrap of one ratio."""
    kept, failures = _reference_estimates(pts, num, den, anchor, B, seed)
    assert failures <= 0.01 * B
    return float(np.quantile(kept, 0.025)), float(np.quantile(kept, 0.975))


# The fits sum each resample's moments in another order than the gather
# oracle, so CIs agree to rounding only: the worst relative difference seen on
# these clouds is 2.2e-15.  This bound is not to be loosened to pass.
ORACLE_RTOL = 1e-12
# (numerator, denominator) eigenvector components of each trivariate ratio.
TRI_RATIOS = {"g1": (1, 2), "g2": (0, 2), "g3": (1, 0)}


@pytest.mark.parametrize(
    ("n", "chunk_cells"),
    [(37, 5_000_000), (1_700, 5_000_000), (1_700, 50_000)],  # the last spans 11 chunks
)
def test_bootstrap_cis_match_per_estimator_oracle(monkeypatch, n, chunk_cells):
    monkeypatch.setattr(allometry, "_BOOTSTRAP_CHUNK_CELLS", chunk_cells)
    pts = _noisy_cloud(seed=74, n=n)
    B, seed = 300, 17
    tri = trivariate_fit(pts, B, seed)
    for name, (num, den) in TRI_RATIOS.items():
        oracle = _reference_ci(pts, num, den, 2, B, seed)
        assert tri.ci95s[name] == pytest.approx(oracle, rel=ORACLE_RTOL)
    bi = bivariate_fit(pts, B, seed)
    for name, columns in PAIRS.items():
        oracle = _reference_ci(pts[:, columns], 1, 0, 0, B, seed)
        assert bi.ci95s[name] == pytest.approx(oracle, rel=ORACLE_RTOL)
    assert bivariate_fit(pts, B, seed + 1).ci95s != bi.ci95s


def test_each_fit_resamples_once(monkeypatch):
    # The two fits of one cloud, B and seed share one draw; another seed or
    # another cloud draws again.
    calls = []
    resample = allometry._resampled_covariances

    def counting(pts, B, seed):
        calls.append((pts.shape, B, seed))
        return resample(pts, B, seed)

    monkeypatch.setattr(allometry, "_resampled_covariances", counting)
    pts = _noisy_cloud(seed=75, n=500)
    trivariate_fit(pts, B=300, seed=3)
    bivariate_fit(pts, B=300, seed=3)
    assert calls == [((500, 3), 300, 3)]
    bivariate_fit(pts, B=300, seed=4)
    trivariate_fit(pts, B=300, seed=4)
    assert calls == [((500, 3), 300, 3), ((500, 3), 300, 4)]
    trivariate_fit(pts + 1.0, B=300, seed=4)
    assert len(calls) == 3
    assert not allometry._shared_covariances(pts.tobytes(), pts.shape, 300, 4).flags.writeable


def test_bootstrap_memory_is_bounded():
    # A paper-sized stock: B x m = 6e6 drawn row indices, drawn in chunks of
    # at most 2^19 so that no more than two chunk-sized arrays are live.
    pts = _noisy_cloud(seed=76, n=6_000)
    tracemalloc.start()
    try:
        allometry._resampled_covariances(pts, 1000, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_bootstrap_chunking_does_not_change_covariances(monkeypatch):
    # 2^19 cells hold 247 resamples of 2,119 rows: four such chunks and a
    # last one of 12 would give those 12 other last bits, since BLAS sums a
    # small product in another order.  Five chunks of 200 give the bytes of one.
    pts = _noisy_cloud(seed=77, n=2_119)
    monkeypatch.setattr(allometry, "_BOOTSTRAP_CHUNK_CELLS", 10**9)
    whole = allometry._resampled_covariances(pts, 1000, 2)
    monkeypatch.setattr(allometry, "_BOOTSTRAP_CHUNK_CELLS", 2**19)
    assert np.array_equal(allometry._resampled_covariances(pts, 1000, 2), whole)


@pytest.mark.parametrize("fit", [trivariate_fit, bivariate_fit])
def test_degenerate_resamples_fail_the_fit(fit):
    # A resample without the one off-origin point has no principal axis.
    pts = np.zeros((5, 3))
    pts[4] = (1.0, 2.0, 3.0)
    message = "estimator failed on 91/300 bootstrap resamples: degenerate data"
    with pytest.raises(NumericalError, match=re.escape(message)):
        fit(pts, B=300, seed=1)


def _one_point_cloud(point, other):
    pts = np.empty((7, 3))
    pts[:6] = point
    pts[6] = other
    return pts


@pytest.mark.parametrize(
    ("fit", "columns", "num", "den", "anchor"),
    [(trivariate_fit, (0, 1, 2), 1, 2, 2), (bivariate_fit, PAIRS["g1"], 1, 0, 0)],
)
def test_repeated_row_resamples_fail_as_in_gather_oracle(fit, columns, num, den, anchor):
    # Six identical rows of non-dyadic values: a resample that draws only
    # them has zero spread, but the count form's E[xx'] - E[x]E[x]' leaves
    # rounding noise there unless such resamples are flagged exactly.  The
    # gather oracle centres each resample on its own mean, which is exact
    # for these values, so it fails exactly those resamples too.
    pts = _one_point_cloud((np.log(3.0), 0.3, 0.6), (0.7, 1.3, 2.9))
    _, failures = _reference_estimates(pts[:, columns], num, den, anchor, 300, 1)
    assert failures == 95
    message = f"estimator failed on {failures}/300 bootstrap resamples: degenerate data"
    with pytest.raises(NumericalError, match=re.escape(message)):
        fit(pts, B=300, seed=1)


@pytest.mark.parametrize("fit", [trivariate_fit, bivariate_fit])
def test_repeated_row_resamples_fail_whatever_their_rounding(fit):
    # Seven copies of 0.1 do not average back to exactly 0.1, so the gather
    # oracle keeps these resamples with an axis made of rounding error; the
    # count form fails every resample that drew one distinct row only.
    pts = _one_point_cloud((0.1, 0.3, 0.7), (1.1, 1.3, 2.9))
    drawn = np.random.default_rng(1).integers(0, 7, size=(300, 7))
    one_row = int(((drawn < 6).all(axis=1) | (drawn == 6).all(axis=1)).sum())
    assert _reference_estimates(pts, 1, 2, 2, 300, 1)[1] == 0
    message = f"estimator failed on {one_row}/300 bootstrap resamples: degenerate data"
    with pytest.raises(NumericalError, match=re.escape(message)):
        fit(pts, B=300, seed=1)


def test_log_points_skips_nonpositive_durations():
    usable = make_directional(T=900)
    degenerate = make_directional(T=0)
    pts, skipped = log_points([usable, degenerate, usable])
    assert skipped == 1
    assert pts.shape == (2, 3)
    assert pts[0, 0] == pytest.approx(np.log(900.0))
    assert pts[0, 1] == pytest.approx(np.log(9.0))
    assert pts[0, 2] == pytest.approx(np.log(90.0))


def test_per_firm_exponents_thresholds_and_values():
    rng = np.random.default_rng(73)
    patches = []
    for firm, count in (("A", 30), ("B", 30), ("C", 5)):
        for _ in range(count):
            v = float(np.exp(rng.normal(4.0, 0.8)))
            t = max(1, int(v ** 1.9 * np.exp(rng.normal(0.0, 0.2))))
            n = max(1, int(v ** 1.1 * np.exp(rng.normal(0.0, 0.2))))
            patches.append(make_directional(firm_id=firm, T=t, N_m=n, V_m=v))
    out = per_firm_exponents(patches, min_patches=10)
    assert set(out) == {"A", "B"}
    for firm_exp in out.values():
        assert firm_exp.n_patches == 30
        assert 0.8 <= firm_exp.g1 <= 1.4
        assert 1.5 <= firm_exp.g2 <= 2.3
    # A looser threshold admits the small firm too.
    assert set(per_firm_exponents(patches, min_patches=5)) == {"A", "B", "C"}
