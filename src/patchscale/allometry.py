"""Allometric scaling exponents between patch variables via PCA in log space.

Slopes are ratios of leading-eigenvector components of the covariance
matrix of natural logs, with percentile-bootstrap confidence intervals.
Each fit draws one set of row resamples, shared by its three exponents, and
the pipeline shares one set between a stock's two fits.  A resample is held
as counts, how often it drew each distinct row, so its covariance comes from
count-weighted moments (Efron & Tibshirani 1993); a resample that drew a
single distinct row is marked degenerate exactly and fails, whatever the
rounding of its moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import NumericalError
from .patches import DEFAULT_MIN_FIRM_PATCHES, VARIABLES, PatchRecord, variables

DEFAULT_BOOTSTRAP_SAMPLES = 1000
_EIGENVALUE_TIE_RTOL = 1e-12
_MAX_ESTIMATOR_FAILURES = 0.01
# Row indices drawn per chunk, at most.  A chunk holds its int64 draws and
# then its float64 counts, ~4 MiB each at this size: below the segment
# stage's peak memory, where 2^20 set the pipeline's peak, and as fast.
_BOOTSTRAP_CHUNK_CELLS = 1 << 19

# The (x, y) log-point columns of each pairwise exponent: y ~ x^g.  Columns
# are (ln T, ln N_m, ln V_m), the order of patches.VARIABLES.
PAIRS = {
    "g1": (2, 1),  # N_m vs V_m
    "g2": (2, 0),  # T vs V_m
    "g3": (0, 1),  # N_m vs T
}


@dataclass(frozen=True, slots=True)
class AllometricFit:
    """Exponents g1, g2, g3 with bootstrap CIs and explained-variance shares.

    mode "tri" derives all three from one eigenvector, so g1 = g2*g3 exactly
    and explained_variance is a single share; mode "bi" fits each pair
    separately and carries one share per exponent.
    """

    mode: str
    g1: float
    g2: float
    g3: float
    ci95s: dict[str, tuple[float, float]] | None
    explained_variance: float | dict[str, float]
    n_points: int
    B: int
    seed: int | None


@dataclass(frozen=True, slots=True)
class FirmExponents:
    firm_id: str
    n_patches: int
    g1: float
    g2: float
    g3: float


def log_points(records: Iterable[PatchRecord]) -> tuple[np.ndarray, int]:
    """(m, 3) array of (ln T, ln N_m, ln V_m) over directional records.

    Records with T = 0 have no log and are skipped; their count is returned
    alongside.
    """
    values = variables(list(records))
    usable = values["T"] > 0
    columns = [values[name][usable] for name in VARIABLES]
    return np.log(np.column_stack(columns)), int((~usable).sum())


def _leading_eigen(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    if eigenvalues[0] <= 0.0:
        raise NumericalError("degenerate covariance: all points identical")
    if (eigenvalues[0] - eigenvalues[1]) <= _EIGENVALUE_TIE_RTOL * eigenvalues[0]:
        raise NumericalError("no unique principal axis: leading eigenvalues tie")
    return eigenvalues, eigenvectors[:, order[0]]


def pca2(points) -> tuple[float, float]:
    """Major-axis slope and explained-variance share of a 2-d point cloud.

    The slope is the (v-component)/(u-component) ratio of the leading
    eigenvector, signed so the u-component is positive.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected (m, 2) points, got shape {pts.shape}")
    if len(pts) < 3:
        raise ValueError(f"need >= 3 points, got {len(pts)}")
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / len(pts)
    eigenvalues, lead = _leading_eigen(cov)
    if lead[0] == 0.0:
        raise NumericalError("axis-degenerate configuration: leading axis is vertical")
    if lead[0] < 0.0:
        lead = -lead
    return float(lead[1] / lead[0]), float(eigenvalues[0] / eigenvalues.sum())


def pca3(points) -> AllometricFit:
    """Trivariate fit from the leading eigenvector (a_T, a_N, a_V).

    g1 = a_N/a_V, g2 = a_T/a_V, g3 = a_N/a_T, so g1 = g2*g3 identically; the
    sign is fixed by a_V > 0.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (m, 3) points, got shape {pts.shape}")
    if len(pts) < 4:
        raise ValueError(f"need >= 4 points, got {len(pts)}")
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / len(pts)
    eigenvalues, lead = _leading_eigen(cov)
    a_t, a_n, a_v = (float(c) for c in lead)
    if a_v == 0.0 or a_t == 0.0:
        raise NumericalError("axis-degenerate configuration: zero eigenvector component")
    if a_v < 0.0:
        a_t, a_n, a_v = -a_t, -a_n, -a_v
    return AllometricFit(
        mode="tri",
        g1=a_n / a_v,
        g2=a_t / a_v,
        g3=a_n / a_t,
        ci95s=None,
        explained_variance=float(eigenvalues[0] / eigenvalues.sum()),
        n_points=len(pts),
        B=0,
        seed=None,
    )


def _resampled_covariances(pts: np.ndarray, B: int, seed: int) -> np.ndarray:
    """(B, d, d) covariances of B seeded row resamples of an (m, d) point cloud.

    Resamples are drawn in chunks of at most _BOOTSTRAP_CHUNK_CELLS row
    indices to bound memory; the draws depend only on seed, B and m.  Chunks
    are of near-equal size, since BLAS may sum a much smaller last chunk's
    product in another order and so give its covariances other last bits
    than one whole chunk would.  Each chunk is taken in count form: one
    bincount gives how often each distinct row was drawn, and one matmul of
    those counts against the rows' first and second moments, centred once on
    the full-sample mean, gives each resample's E[x] and E[xx'], so
    cov = E[xx'] - E[x]E[x]'.  A resample that drew one
    distinct row m times has no spread, but the subtraction would leave
    rounding noise in place of its zero covariance; it is set to exactly zero
    so that _leading_axes fails it.
    """
    if B < 200:
        raise ValueError(f"B must be >= 200, got {B}")
    m, dims = pts.shape
    rng = np.random.default_rng(seed)
    chunks = -(-B // max(1, _BOOTSTRAP_CHUNK_CELLS // m))
    rows, labels = np.unique(pts, axis=0, return_inverse=True)
    n = len(rows)
    centered = rows - pts.mean(axis=0)
    moments = np.hstack([centered, (centered[:, :, None] * centered[:, None, :]).reshape(n, -1)])
    covs = np.empty((B, dims, dims))
    for i in range(chunks):
        done = B * i // chunks
        size = B * (i + 1) // chunks - done
        drawn = labels[rng.integers(0, m, size=(size, m))]
        drawn += n * np.arange(size)[:, None]
        counts = np.bincount(drawn.ravel(), minlength=size * n).reshape(size, n)
        del drawn  # freed before the float copy, so a chunk holds two (size, n) arrays at most
        sums = counts.astype(np.float64) @ moments / m
        mean, second = sums[:, :dims], sums[:, dims:].reshape(size, dims, dims)
        cov = covs[done : done + size]
        np.subtract(second, mean[:, :, None] * mean[:, None, :], out=cov)
        cov[counts.max(axis=1) == m] = 0.0
    return covs


def _leading_axes(covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leading eigenvector of each covariance, and where it is not unique.

    Eigenvectors keep eigh's arbitrary sign: a ratio of two components of one
    vector does not depend on it.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(covs)
    top, second = eigenvalues[:, -1], eigenvalues[:, -2]
    tie = (top <= 0.0) | ((top - second) <= _EIGENVALUE_TIE_RTOL * top)
    return eigenvectors[:, :, -1], tie


def _percentile_ci(estimates: np.ndarray, failed: np.ndarray) -> tuple[float, float]:
    """Percentile 95% interval over the resamples whose estimate is usable.

    A resample fails when it is marked failed or its estimate is not finite;
    more than 1% failures means the data are degenerate.
    """
    failed = failed | ~np.isfinite(estimates)
    failures = int(failed.sum())
    if failures > _MAX_ESTIMATOR_FAILURES * len(estimates):
        raise NumericalError(
            f"estimator failed on {failures}/{len(estimates)} bootstrap resamples: "
            "degenerate data"
        )
    kept = estimates[~failed]
    return float(np.quantile(kept, 0.025)), float(np.quantile(kept, 0.975))


def trivariate_fit(
    points,
    B: int = DEFAULT_BOOTSTRAP_SAMPLES,
    seed: int = 0,
) -> AllometricFit:
    """pca3 plus percentile-bootstrap CIs for all three exponents.

    The three CIs come from one set of B resamples; a resample fails for all
    three when its principal axis is not unique or has a_V = 0.
    """
    pts = np.asarray(points, dtype=np.float64)
    return _trivariate_fit(pts, B, seed, lambda: _resampled_covariances(pts, B, seed))


def _trivariate_fit(
    points, B: int, seed: int, resample: Callable[[], np.ndarray]
) -> AllometricFit:
    """trivariate_fit, with its resampled covariances from resample()."""
    fit = pca3(points)
    lead, failed = _leading_axes(resample())
    a_t, a_n, a_v = lead.T
    failed |= a_v == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = {"g1": a_n / a_v, "g2": a_t / a_v, "g3": a_n / a_t}
    ci95s = {name: _percentile_ci(ratio, failed) for name, ratio in ratios.items()}
    return AllometricFit(
        mode="tri",
        g1=fit.g1,
        g2=fit.g2,
        g3=fit.g3,
        ci95s=ci95s,
        explained_variance=fit.explained_variance,
        n_points=fit.n_points,
        B=B,
        seed=seed,
    )


def bivariate_fit(
    points,
    B: int = DEFAULT_BOOTSTRAP_SAMPLES,
    seed: int = 0,
) -> AllometricFit:
    """Three pairwise pca2 fits: N vs V (g1), T vs V (g2), N vs T (g3).

    Unlike the trivariate mode, g1 = g2*g3 holds only approximately here.
    Each pair's CI comes from the 2x2 blocks of one set of B resampled 3x3
    covariances.
    """
    pts = np.asarray(points, dtype=np.float64)
    return _bivariate_fit(pts, B, seed, lambda: _resampled_covariances(pts, B, seed))


def _bivariate_fit(
    points, B: int, seed: int, resample: Callable[[], np.ndarray]
) -> AllometricFit:
    """bivariate_fit, with its resampled covariances from resample()."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (m, 3) points, got shape {pts.shape}")
    slopes: dict[str, float] = {}
    shares: dict[str, float] = {}
    ci95s: dict[str, tuple[float, float]] = {}
    covs = None
    for name, columns in PAIRS.items():
        slopes[name], shares[name] = pca2(pts[:, columns])
        # Resampled only once the first pair's point fit has accepted the
        # points, so errors keep their order: each pair's point fit, then its
        # CI, pair by pair.
        if covs is None:
            covs = resample()
        lead, failed = _leading_axes(covs[:, columns][:, :, columns])
        with np.errstate(divide="ignore", invalid="ignore"):
            ci95s[name] = _percentile_ci(lead[:, 1] / lead[:, 0], failed)
    return AllometricFit(
        mode="bi",
        g1=slopes["g1"],
        g2=slopes["g2"],
        g3=slopes["g3"],
        ci95s=ci95s,
        explained_variance=shares,
        n_points=len(pts),
        B=B,
        seed=seed,
    )


def per_firm_exponents(
    records: Iterable[PatchRecord],
    min_patches: int = DEFAULT_MIN_FIRM_PATCHES,
) -> dict[str, FirmExponents]:
    """Bivariate exponents per firm with at least min_patches usable patches.

    Patches with T = 0 are unusable in log space and do not count; firms
    whose point cloud is degenerate are omitted.
    """
    by_firm: dict[str, list[PatchRecord]] = {}
    for r in records:
        by_firm.setdefault(r.firm_id, []).append(r)
    out: dict[str, FirmExponents] = {}
    for firm_id in sorted(by_firm):
        pts, _ = log_points(by_firm[firm_id])
        if len(pts) < min_patches:
            continue
        try:
            g = {name: pca2(pts[:, columns])[0] for name, columns in PAIRS.items()}
        except NumericalError:
            continue
        out[firm_id] = FirmExponents(firm_id=firm_id, n_patches=len(pts), **g)
    return out
