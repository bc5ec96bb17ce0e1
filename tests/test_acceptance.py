"""End-to-end acceptance checks, one test per headline behavior.

Each test exercises one guarantee the package makes — segmentation error
rates, estimator calibration, scaling-law recovery on generated markets,
classification properties, and determinism — against fixed seeds and
tolerances, and prints one summary line with the measured quantities.
"""

import json
import time
from pathlib import Path

import numpy as np

from conftest import make_patch
from patchscale import allometry, lognormal, pipeline, segmentation, synth, tails
from test_segmentation import closed_form_oracle
from patchscale.patches import classify


def _verdict(label: str, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    print(line)
    return line


def test_criterion_1_segmentation_oracle():
    """Pure noise is almost never cut; clean three-level steps always are.

    500 seeded i.i.d. Gaussian series (n = 1000) at threshold 0.99 must
    yield a false-cut rate in [0%, 3%], and on 200 seeded three-level step
    series (300 points per level, 8-SD gaps) both true boundaries must be
    recovered within +-15 indices in at least 95% of seeds.
    """
    t0 = time.perf_counter()
    false_cuts = 0
    for s in range(500):
        rng = np.random.default_rng(np.random.SeedSequence([11, s]))
        seg = segmentation.segment(rng.standard_normal(1000), 0.99)
        false_cuts += len(seg.boundaries) > 2
    rate = false_cuts / 500

    levels = np.repeat([0.0, 8.0, 16.0], 300)
    recovered = 0
    for s in range(200):
        rng = np.random.default_rng(np.random.SeedSequence([10, s]))
        seg = segmentation.segment(levels + rng.standard_normal(900), 0.99)
        interior = seg.boundaries[1:-1]
        recovered += all(
            any(abs(found - true) <= 15 for found in interior) for true in (300, 600)
        )
    elapsed = time.perf_counter() - t0

    ok = rate <= 0.03 and recovered >= 190 and elapsed < 120.0
    detail = (
        f"false-cut rate {100 * rate:.2f}% (bound 3%), "
        f"step boundaries recovered in {recovered}/200 seeds (need >= 190), "
        f"{elapsed:.1f}s"
    )
    assert ok, _verdict("criterion 1 segmentation oracle", ok, detail)
    _verdict("criterion 1 segmentation oracle", ok, detail)


def test_criterion_2_significance_calibration():
    """Closed-form cut significance tracks the Monte Carlo null within 0.05.

    For n in {50, 200, 1000}, take the 10^4-trial null table of the maximum
    t statistic, read off its quantiles at 34 levels spanning 0.90-0.999,
    and require the closed-form significance at each quantile to agree with
    the level to 0.05 absolute.  Segmentation decides cuts from critical
    values, so the significance itself comes from the scipy oracle the
    segmentation tests check those decisions against.
    """
    t0 = time.perf_counter()
    worst = 0.0
    for n in (50, 200, 1000):
        table = segmentation._null_table(n, 10_000, segmentation.DEFAULT_MC_SEED)
        for level in np.linspace(0.90, 0.999, 34):
            t_star = float(np.quantile(table, level))
            worst = max(worst, abs(closed_form_oracle(t_star, n) - float(level)))
    elapsed = time.perf_counter() - t0

    ok = worst <= 0.05 and elapsed < 300.0
    detail = f"worst |closed-form - MC level| = {worst:.3f} (bound 0.05), {elapsed:.1f}s"
    assert ok, _verdict("criterion 2 significance calibration", ok, detail)
    _verdict("criterion 2 significance calibration", ok, detail)


def test_criterion_3_hill_estimator():
    """Hill estimates match a hand oracle exactly and stay near the truth.

    The hand-computable case hill({8,4,2,1}, k=3) = 3/(6 ln 2) must match to
    1e-12.  Across 50 seeded samples of 10^5 Pareto draws with tail exponent
    2 and k = 1000, the estimate must land in [1.9, 2.1] for at least 48
    seeds.  That band is +-1.58 standard errors (sd = zeta/sqrt(k) ~ 0.063),
    so a perfectly calibrated estimator lands inside it only ~88.6% of the
    time per seed — expected hits ~44.3/50, and the chance of reaching 48
    is ~6%.  The sweep below is therefore expected to fail by sampling
    error alone, not through any defect in the estimator.
    """
    hand = tails.hill([8.0, 4.0, 2.0, 1.0], 3).zeta
    assert abs(hand - 3.0 / (6.0 * np.log(2.0))) <= 1e-12

    t0 = time.perf_counter()
    hits = 0
    for s in range(50):
        rng = np.random.default_rng(np.random.SeedSequence([0, s]))
        draws = rng.pareto(2.0, 100_000) + 1.0
        zeta = tails.hill(draws, 1000).zeta
        hits += 1.9 <= zeta <= 2.1
    elapsed = time.perf_counter() - t0

    ok = hits >= 48 and elapsed < 30.0
    detail = (
        f"hand oracle exact; {hits}/50 estimates in [1.9, 2.1] (need >= 48), "
        f"{elapsed:.1f}s. The band is +-1.58 standard errors at k=1000, so a "
        f"correct estimator is expected in-band ~88.6% per seed (~44.3/50); "
        f"a shortfall here reflects nominal Hill sampling error."
    )
    assert ok, _verdict("criterion 3 hill estimator", ok, detail)
    _verdict("criterion 3 hill estimator", ok, detail)


def test_criterion_4_allometry_recovery():
    """Principal-axis exponents are exact on clean manifolds, covered on noisy ones.

    Noiseless rays along three planted axes must reproduce every exponent to
    1e-9.  On 100 seeded noisy clouds (10^4 points, isotropic log-noise 0.35
    around the axis (1.9, 1.1, 1.0)), each planted exponent must fall inside
    its bootstrap 95% CI in at least 90 of 100 seeds, and every trivariate
    fit must satisfy g1 = g2*g3 to 1e-12.
    """
    t0 = time.perf_counter()
    for axis in ((1.9, 1.1, 1.0), (0.66, 1.25, 0.9), (1.0, 2.0, 0.5)):
        a_t, a_n, a_v = axis
        u = np.linspace(-3.0, 3.0, 500)
        fit = allometry.pca3(np.outer(u, axis))
        assert abs(fit.g1 - a_n / a_v) <= 1e-9
        assert abs(fit.g2 - a_t / a_v) <= 1e-9
        assert abs(fit.g3 - a_n / a_t) <= 1e-9
        assert abs(fit.g1 - fit.g2 * fit.g3) <= 1e-12

    axis = np.array([1.9, 1.1, 1.0])
    truths = {"g1": 1.1 / 1.0, "g2": 1.9 / 1.0, "g3": 1.1 / 1.9}
    coverage = {"g1": 0, "g2": 0, "g3": 0}
    worst_identity = 0.0
    for s in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([20, s]))
        u = rng.normal(0.0, 2.0, 10_000)
        pts = np.outer(u, axis) + rng.normal(0.0, 0.35, (10_000, 3))
        fit = allometry.trivariate_fit(pts, 400, s)
        worst_identity = max(worst_identity, abs(fit.g1 - fit.g2 * fit.g3))
        for name, truth in truths.items():
            lo, hi = fit.ci95s[name]
            coverage[name] += lo <= truth <= hi
    elapsed = time.perf_counter() - t0

    ok = (
        all(count >= 90 for count in coverage.values())
        and worst_identity <= 1e-12
        and elapsed < 180.0
    )
    detail = (
        f"noiseless recovery exact; CI coverage per exponent "
        f"g1={coverage['g1']}/100, g2={coverage['g2']}/100, g3={coverage['g3']}/100 "
        f"(each needs >= 90), worst |g1 - g2*g3| = {worst_identity:.1e}, {elapsed:.1f}s"
    )
    assert ok, _verdict("criterion 4 allometry recovery", ok, detail)
    _verdict("criterion 4 allometry recovery", ok, detail)


def test_criterion_5_jarque_bera_calibration():
    """The normality test holds its size on normals and rejects exponentials.

    Over 2000 seeded normal samples of n = 100 the rejection rate at the 95%
    level must fall in [3%, 7%]; over 2000 exponential samples it must
    exceed 99%.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(30)
    type_one = sum(
        lognormal.jarque_bera(rng.standard_normal(100))[1] for _ in range(2000)
    ) / 2000
    power = sum(
        lognormal.jarque_bera(rng.exponential(1.0, 100))[1] for _ in range(2000)
    ) / 2000
    elapsed = time.perf_counter() - t0

    ok = 0.03 <= type_one <= 0.07 and power > 0.99 and elapsed < 60.0
    detail = (
        f"type-I {100 * type_one:.2f}% (bounds [3%, 7%]), "
        f"exponential rejection {100 * power:.2f}% (need > 99%), {elapsed:.1f}s"
    )
    assert ok, _verdict("criterion 5 jarque-bera calibration", ok, detail)
    _verdict("criterion 5 jarque-bera calibration", ok, detail)


def test_criterion_6_heterogeneity_mechanism(tmp_path):
    """A generated market reproduces pooled power laws from lognormal firms.

    One full pipeline run on the large generator preset (>= 50 firms,
    >= 5000 planted packages) must show: per-firm lognormality non-rejection
    >= 80% for N_m and V_m; pooled lognormality rejected for T, N_m, and
    V_m; pooled tail exponents within +-0.3 of (T, N_m, V_m) targets
    (1.3, 1.8, 2.0); and pairwise principal-axis exponents within +-0.2 of
    (g1, g2, g3) targets (1.1, 1.9, 0.66).
    """
    t0 = time.perf_counter()
    config = pipeline.RunConfig(
        output_dir=str(tmp_path),
        synth=synth.paper_like(),
        seed=2001,
        bootstrap_samples=400,
        min_trades_per_year=0,
        min_active_days=0,
    )
    report = pipeline.run_pipeline(config)
    elapsed = time.perf_counter() - t0

    truth = json.loads((tmp_path / "ground_truth.json").read_text())
    assert len(truth["firm_sizes"]) >= 50
    assert len(truth["packages"]) >= 5000

    stock = report["stocks"]["SYN"]
    per_firm = {
        v: stock["lognormality"]["per_firm"][v]["percent"] for v in ("N_m", "V_m")
    }
    pooled = {
        v: stock["lognormality"]["pooled"][v]["reject"] for v in ("T", "N_m", "V_m")
    }
    zetas = {v: stock["tails"][v]["zeta"] for v in ("T", "N_m", "V_m")}
    zeta_targets = {"T": 1.3, "N_m": 1.8, "V_m": 2.0}
    bi = stock["allometry"]["bivariate"]
    g_targets = {"g1": 1.1, "g2": 1.9, "g3": 0.66}

    ok = (
        all(percent >= 80.0 for percent in per_firm.values())
        and all(pooled.values())
        and all(abs(zetas[v] - zeta_targets[v]) <= 0.3 for v in zeta_targets)
        and all(abs(bi[g] - g_targets[g]) <= 0.2 for g in g_targets)
        and elapsed < 600.0
    )
    detail = (
        f"per-firm non-rejection N_m {per_firm['N_m']:.1f}% / V_m {per_firm['V_m']:.1f}% "
        f"(need >= 80%); pooled rejected {pooled}; "
        f"tail exponents T {zetas['T']:.3f} / N_m {zetas['N_m']:.3f} / V_m {zetas['V_m']:.3f} "
        f"vs targets (1.3, 1.8, 2.0) +-0.3; "
        f"pairwise exponents g1 {bi['g1']:.3f} / g2 {bi['g2']:.3f} / g3 {bi['g3']:.3f} "
        f"vs targets (1.1, 1.9, 0.66) +-0.2; {elapsed:.1f}s"
    )
    assert ok, _verdict("criterion 6 heterogeneity mechanism", ok, detail)
    _verdict("criterion 6 heterogeneity mechanism", ok, detail)


def test_criterion_7_directional_properties():
    """Buy/sell labels are mutually exclusive, strict at the edge, and nested in theta.

    Over randomized patches and a grid of thresholds: the label always
    matches the dominance predicate (so buy and sell are mutually exclusive
    for theta > 0.5), a patch exactly at the threshold stays non-directional,
    and the directional set only shrinks as theta rises.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    pool = []
    for _ in range(400):
        v_b = float(rng.lognormal(3.0, 2.0)) if rng.random() > 0.05 else 0.0
        v_s = float(rng.lognormal(3.0, 2.0)) if rng.random() > 0.05 else 0.0
        pool.append(make_patch(V_b=v_b, V_s=v_s))

    thetas = [0.5001, 0.55, 0.6, 2.0 / 3.0, 0.7, 0.75, 0.8, 0.9, 0.95, 0.999]
    previous = None
    for theta in thetas:
        directional = set()
        for index, patch in enumerate(pool):
            label = classify(patch, theta)
            v = patch.V_b + patch.V_s
            buy_dominates = v > 0 and patch.V_b / v > theta
            sell_dominates = v > 0 and patch.V_s / v > theta
            assert not (buy_dominates and sell_dominates)
            expected = "buy" if buy_dominates else "sell" if sell_dominates else "none"
            assert label == expected
            if label != "none":
                directional.add(index)
        if previous is not None:
            assert directional <= previous
        previous = directional

    # Exactly at the threshold the strict inequality keeps the patch neutral.
    assert classify(make_patch(V_b=3.0, V_s=1.0), 0.75) == "none"
    assert classify(make_patch(V_b=5.0, V_s=3.0), 0.625) == "none"
    assert classify(make_patch(V_b=3.0 + 1e-9, V_s=1.0), 0.75) == "buy"
    elapsed = time.perf_counter() - t0

    ok = elapsed < 10.0
    detail = (
        f"{len(pool)} patches x {len(thetas)} thresholds: labels match dominance, "
        f"threshold edge neutral, directional sets nested; {elapsed:.1f}s"
    )
    assert ok, _verdict("criterion 7 directional properties", ok, detail)
    _verdict("criterion 7 directional properties", ok, detail)


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_criterion_8_determinism(tmp_path):
    """Identical config and seed give byte-identical output trees."""
    t0 = time.perf_counter()
    trees = []
    for name in ("first", "second"):
        out = tmp_path / name
        config = pipeline.RunConfig(
            output_dir=str(out),
            synth=synth.small_preset(),
            seed=2001,
            bootstrap_samples=400,
            min_trades_per_year=0,
            min_active_days=0,
        )
        pipeline.run_pipeline(config)
        trees.append(_tree_bytes(out))
    elapsed = time.perf_counter() - t0

    first, second = trees
    same_files = sorted(first) == sorted(second)
    differing = [name for name in first if same_files and first[name] != second[name]]
    ok = same_files and not differing
    detail = (
        f"{len(first)} artifacts compared, "
        f"file sets {'match' if same_files else 'differ'}, "
        f"{len(differing)} files differ; {elapsed:.1f}s"
    )
    assert ok, _verdict("criterion 8 determinism", ok, detail)
    _verdict("criterion 8 determinism", ok, detail)
