"""Major-axis slope fits in log space, bootstrap CIs, and per-firm exponents."""

import numpy as np
import pytest

from conftest import make_directional
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
