"""Recursive maximum-t segmentation of signed traded-value series.

A window is split at the position maximizing the two-sample t statistic,
provided the split is significant at the acceptance threshold and the newly
created segments remain significantly distinct from their existing
neighbors.  The significance of a maximum t is the probability that an
i.i.d. sequence of the same length n gives one no larger, from the closed
form of Bernaola-Galvan et al. or from a seeded Monte Carlo null.  It rises
with t, so every test compares t with a critical value t_crit(n, threshold):
the closed form's is solved with numpy on a grid of lengths, the null's is
an entry of the null table.

Series are segmented in lockstep: every series keeps its own recursion, and
each step scans the new windows of all series in one batch and scores their
cuts in one pass.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator, Sequence

import numpy as np

from .errors import NumericalError
from .trades import SignedSeries

DELTA = 0.40
DEFAULT_THRESHOLD = 0.99
DEFAULT_MC_TRIALS = 10_000
# Closed-form eta = 4.19 ln n - 11.54 is non-positive below n ~ 16, so the
# approximation saturates there; windows below this length use the Monte
# Carlo null.
SMALL_N_MC = 20
# Internal seed for Monte Carlo null tables; fixed so identical inputs give
# identical segmentations without caller-supplied seeds.
DEFAULT_MC_SEED = 271828
# Normals drawn per chunk of a Monte Carlo null table.
_NULL_DRAWS = 1 << 14
# segment_many holds series until their rows would pass this bound (a longer
# series forms a group alone); the group's prefix sums take 16 bytes a row.
_GROUP_ROWS = 1 << 18
# Splits scored per _pooled_t call, so that the kernel's temporaries stay in
# cache (a run of short windows may pass it by less than _LONG_SPLITS).
_SCAN_CHUNK = 1 << 14
# A window with more splits is scanned on its own, as a slice of the prefix
# sums; shorter ones are scanned together, at a higher cost per split that
# their shared fixed overhead more than repays.
_LONG_SPLITS = 1 << 11
# What segment_many tallies: every window scanned either becomes an accepted
# cut or is rejected by the threshold or by the neighbour test, and its max t
# is scored by the Monte Carlo null or by the closed form.
COUNT_KEYS = (
    "windows_scanned",
    "cuts_accepted",
    "rejected_threshold",
    "rejected_neighbour",
    "windows_monte_carlo",
    "windows_closed_form",
)


@dataclass(frozen=True, slots=True)
class Segmentation:
    """Strictly increasing boundary indices from 0 to series length."""

    boundaries: tuple[int, ...]


def _pooled_t(sum_left, sq_left, sum_right, sq_right, n_left, n_right, n):
    """Pooled-variance two-sample t from each side's sum, sum of squares and count.

    Elementwise over arrays; n is the window length n_left + n_right.
    Rounding can leave a side's sum of squared deviations slightly below
    zero; it counts as zero.  When the pooled variance vanishes, t is +inf
    for distinct means and 0.0 for equal means (a deterministic step is
    maximally significant).
    """
    ss_left = sq_left - sum_left * sum_left / n_left
    ss_right = sq_right - sum_right * sum_right / n_right
    diff = abs(sum_left / n_left - sum_right / n_right)
    # ss * (ss > 0.0) is max(ss, 0.0) up to the sign of a zero.
    denom_sq = (ss_left * (ss_left > 0.0) + ss_right * (ss_right > 0.0)) / (n - 2) * (
        1.0 / n_left + 1.0 / n_right
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        t = diff / np.sqrt(denom_sq)
    degenerate = denom_sq <= 0.0
    if degenerate.any():
        t[degenerate] = np.where(diff[degenerate] > 0.0, np.inf, 0.0)
    return t


def _scan_long(sums, sq_sums, lo: int, hi: int) -> tuple[int, float]:
    """Best split of one window, _SCAN_CHUNK positions at a time; ties go to the smallest."""
    sum_lo, sq_lo = sums[lo], sq_sums[lo]
    sum_all, sq_all = sums[hi] - sum_lo, sq_sums[hi] - sq_lo
    best_at, best_t = lo + 2, -1.0
    for a in range(lo + 2, hi - 1, _SCAN_CHUNK):
        b = min(a + _SCAN_CHUNK, hi - 1)
        n_left = np.arange(a - lo, b - lo, dtype=np.float64)
        sum_left = sums[a:b] - sum_lo
        sq_left = sq_sums[a:b] - sq_lo
        t = _pooled_t(
            sum_left, sq_left, sum_all - sum_left, sq_all - sq_left,
            n_left, hi - lo - n_left, hi - lo,
        )
        i = int(np.argmax(t))
        # Strictly greater: an earlier chunk keeps a tie.
        if t[i] > best_t:
            best_at, best_t = a + i, float(t[i])
    return best_at, best_t


def _scan_short(sums, sq_sums, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best split of each of many windows: their splits laid end to end, one _pooled_t call."""
    count = hi - lo - 3
    first = np.cumsum(count) - count
    w = np.repeat(np.arange(len(lo)), count)
    at = np.arange(len(w)) + np.repeat(lo + 2 - first, count)
    n_left = (at - lo[w]).astype(np.float64)
    n = (hi - lo).astype(np.float64)[w]
    sum_lo, sq_lo = sums[lo], sq_sums[lo]
    sum_left = sums[at] - sum_lo[w]
    sq_left = sq_sums[at] - sq_lo[w]
    t = _pooled_t(
        sum_left, sq_left, (sums[hi] - sum_lo)[w] - sum_left, (sq_sums[hi] - sq_lo)[w] - sq_left,
        n_left, n - n_left, n,
    )
    top = np.maximum.reduceat(t, first)
    # The first maximum of each window: ties go to the smallest position.
    hits = np.flatnonzero(t == np.repeat(top, count))
    return at[hits[np.searchsorted(hits, first)]], top


def _scan(sums, sq_sums, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position and value of the maximum t over all admissible splits of each window.

    lo and hi are int64 arrays of windows [lo, hi) of the flat prefix sums,
    each at least 4 rows long.  A window of more than _LONG_SPLITS splits is
    scanned on its own, which needs no per-split window values; the others
    are scanned together in runs of about _SCAN_CHUNK splits.
    """
    cut = np.empty(len(lo), dtype=np.int64)
    t = np.empty(len(lo))
    count = hi - lo - 3
    alone = count > _LONG_SPLITS
    for i in np.flatnonzero(alone).tolist():
        cut[i], t[i] = _scan_long(sums, sq_sums, int(lo[i]), int(hi[i]))
    short = np.flatnonzero(~alone)
    if len(short):
        run = (np.cumsum(count[short]) - count[short]) // _SCAN_CHUNK
        for part in np.split(short, np.flatnonzero(np.diff(run)) + 1):
            cut[part], t[part] = _scan_short(sums, sq_sums, lo[part], hi[part])
    return cut, t


# ln B(a, DELTA) takes ln Gamma(a + DELTA) - ln Gamma(a) from Stirling's
# series, with the coefficients B_2k / (2k (2k - 1)), k = 1..6: good to ~2e-14
# from a = 7.2 (n = 20) up, where a difference of math.lgamma values would
# lose ~6 digits at a ~ 1e5.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
_TINY = 1e-300
# A pair whose t is this close (relative) to its grid bracket has t_crit solved
# at its own n; the solver is good to ~1e-12.
_MARGIN = 1e-9
# The t_crit grid: points per octave from SMALL_N_MC, and the octaves built first.
_PER_OCTAVE = 32
_FIRST_OCTAVES = 8


def _nonzero(v):
    return np.where(np.abs(v) < _TINY, _TINY, v)


def _lentz(p, q, x):
    """The continued fraction of I_x(p, q) by modified Lentz (Numerical Recipes 6.4).

    I_x(p, q) is x^p (1 - x)^q / (p B(p, q)) times the value returned, which
    converges fast for x < (p + 1) / (p + q + 2).  Each element stops at its
    own convergence, so its value does not depend on the others.
    """
    c = np.ones_like(x)
    d = 1.0 / _nonzero(1.0 - (p + q) * x / (p + 1.0))
    h = d
    live = np.ones(len(x), dtype=bool)
    for m in range(1, 1000):
        even = m * (q - m) * x / ((p + 2 * m - 1) * (p + 2 * m))
        odd = -(p + m) * (p + q + m) * x / ((p + 2 * m) * (p + 2 * m + 1))
        for term in (even, odd):
            d = 1.0 / _nonzero(1.0 + term * d)
            c = _nonzero(1.0 + term / c)
            h = np.where(live, h * d * c, h)
        live &= np.abs(d * c - 1.0) > 1e-15
        if not live.any():
            return h
    raise NumericalError("the continued fraction of I_x did not converge")


def _ln_closed_form(w, nu):
    """ln I_x(DELTA nu, DELTA) at x = nu / (nu + t^2) with t^2 = e^w, and its slope in w."""
    s = np.exp(w)
    a = DELTA * nu
    ln_x = -np.log1p(s / nu)
    ln_v = w - np.log(nu + s)  # ln(1 - x)
    series = sum(c * ((a + DELTA) ** -(2 * k + 1) - a ** -(2 * k + 1)) for k, c in enumerate(_STIRLING))
    ln_gamma_ratio = (a - 0.5) * np.log1p(DELTA / a) + DELTA * np.log(a + DELTA) - DELTA + series
    ln_front = a * ln_x + DELTA * ln_v - math.lgamma(DELTA) + ln_gamma_ratio
    # Past (a + 1) / (a + DELTA + 2) the fraction of I_x(a, DELTA) converges
    # slowly, and 1 - I_{1-x}(DELTA, a) is taken instead.
    flip = np.exp(ln_x) > (a + 1.0) / (a + DELTA + 2.0)
    p = np.where(flip, DELTA, a)
    fraction = _lentz(p, np.where(flip, a, DELTA), np.exp(np.where(flip, ln_v, ln_x)))
    ln_part = ln_front + np.log(fraction / p)
    ln_i = np.where(flip, np.log1p(-np.exp(ln_part)), ln_part)
    # dI/dx = x^(a-1) (1-x)^(DELTA-1) / B and dx/dw = -x (1-x), so d ln I/dw = -front / I.
    return ln_i, -np.exp(ln_front - ln_i)


def _solve_t_crit(n: np.ndarray, theta: float) -> np.ndarray:
    """The closed form's t_crit(n, theta) for each n >= SMALL_N_MC, to ~1e-12 relative.

    t_crit^2 = nu (1/x* - 1) where I_x*(DELTA nu, DELTA) = 1 - theta^(1/eta):
    Newton on ln I in w = ln t^2, each element from the same start and
    stopping on its own, so a value does not depend on the other n solved.
    """
    n = np.asarray(n, dtype=np.float64)
    nu = n - 2.0
    ln_y = np.log(-np.expm1(math.log(theta) / (4.19 * np.log(n) - 11.54)))
    # I ~ e^(-0.4 t^2) far in the tail: a start within a few Newton steps of
    # the root for thresholds from 0.05 to 1 - 1e-7.
    w = np.log(2.5 * (1.0 - ln_y))
    live = np.arange(len(n))
    for _ in range(100):
        ln_i, slope = _ln_closed_form(w[live], nu[live])
        step = (ln_i - ln_y[live]) / slope
        w[live] -= step
        live = live[np.abs(step) > 1e-9]
        if not len(live):
            return np.exp(0.5 * w)
    raise NumericalError(f"t_crit did not converge at threshold {theta}")


class _CriticalT:
    """The closed form's t_crit(n, theta) for one theta, from a grid with exact brackets.

    t_crit is solved at integer n on a geometric grid of _PER_OCTAVE points
    per octave from SMALL_N_MC, grown by octaves to cover the longest window.
    Between two grid points where it is monotone, t_crit lies between their
    values, so a pair is decided by that bracket unless its t is within
    _MARGIN of it.  Such pairs, and those in an interval next to a turn of
    t_crit (it falls with n over part of the range for theta >~ 0.997), have
    t_crit solved at their own n.
    """

    def __init__(self, theta: float) -> None:
        self.theta = theta
        self.grid = np.empty(0, dtype=np.int64)
        self.values = np.empty(0)
        self.solved: dict[int, float] = {}
        self._grow(_FIRST_OCTAVES)

    def _grow(self, octaves: int) -> None:
        k = np.arange(octaves * _PER_OCTAVE + 1)
        grid = np.unique(np.round(SMALL_N_MC * 2.0 ** (k / _PER_OCTAVE)).astype(np.int64))
        # The old grid is a prefix of the new one.
        new = grid[len(self.grid):]
        values = _solve_t_crit(new, self.theta)
        self.solved.update(zip(new.tolist(), values.tolist()))
        self.grid, self.values = grid, np.concatenate([self.values, values])
        rises = np.diff(self.values) > 0.0
        turns = np.flatnonzero(rises[1:] != rises[:-1]) + 1
        # interval i runs from grid[i] to grid[i + 1]; both sides of a turn are unsure.
        self.unsure = np.zeros(len(grid) - 1, dtype=bool)
        self.unsure[turns - 1] = self.unsure[turns] = True

    def passes(self, t: np.ndarray, n: np.ndarray) -> np.ndarray:
        """Whether t[i] >= t_crit(n[i]), n int64 and all >= SMALL_N_MC."""
        longest = int(n.max())
        # Keep a grid interval past the longest n, so that a turn at its end shows.
        if self.grid[-2] < longest:
            self._grow(math.ceil(math.log2(longest / SMALL_N_MC) + 1 / _PER_OCTAVE))
        at = np.searchsorted(self.grid, n, side="right") - 1
        left, right = self.values[at], self.values[at + 1]
        sure = ~self.unsure[at]
        ok = sure & (t >= np.maximum(left, right) * (1.0 + _MARGIN))
        solve = ~ok & ~(sure & (t < np.minimum(left, right) * (1.0 - _MARGIN)))
        if solve.any():
            ok[solve] = t[solve] >= self._solved(n[solve])
        return ok

    def _solved(self, n: np.ndarray) -> np.ndarray:
        missing = sorted(set(n.tolist()) - self.solved.keys())
        if missing:
            self.solved.update(zip(missing, _solve_t_crit(np.array(missing), self.theta).tolist()))
        return np.array([self.solved[k] for k in n.tolist()])


@functools.cache
def _critical_t(theta: float) -> _CriticalT:
    return _CriticalT(theta)


def _max_t_rows(rows: np.ndarray) -> np.ndarray:
    """Maximum pooled t over all splits, one value per row."""
    n = rows.shape[1]
    cum = np.cumsum(rows, axis=1)
    cum_sq = np.cumsum(rows * rows, axis=1)
    split = np.arange(2, n - 1)
    n_left = split.astype(np.float64)[None, :]
    sum_left = cum[:, split - 1]
    sq_left = cum_sq[:, split - 1]
    t = _pooled_t(
        sum_left, sq_left,
        cum[:, -1][:, None] - sum_left, cum_sq[:, -1][:, None] - sq_left,
        n_left, n - n_left, n,
    )
    return t.max(axis=1)


@functools.cache
def _null_table(n: int, trials: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed, n, trials]))
    # At most _NULL_DRAWS normals per chunk (one row if n is larger):
    # _max_t_rows holds ~12 chunk-sized temporaries at once.  The generator
    # fills in sequence, so the table does not depend on the chunk size.
    chunk = max(1, _NULL_DRAWS // n)
    maxima = np.empty(trials)
    for lo in range(0, trials, chunk):
        rows = rng.standard_normal((min(chunk, trials - lo), n))
        maxima[lo : lo + len(rows)] = _max_t_rows(rows)
    maxima.sort()
    return maxima


def significance_mc(
    t_max: float,
    n: int,
    trials: int = DEFAULT_MC_TRIALS,
    seed: int = DEFAULT_MC_SEED,
) -> float:
    """Monte Carlo P(max t <= t_max) over seeded standard-normal sequences.

    Deterministic for a fixed (n, trials, seed); tables are cached.
    """
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if math.isnan(t_max):
        raise ValueError("t_max must not be NaN")
    return int(np.searchsorted(_null_table(n, trials, seed), t_max, side="right")) / trials


def _null_rank(threshold: float, trials: int) -> int:
    """The smallest c with c / trials >= threshold in floating point.

    threshold * trials can itself round across an integer, so its ceiling
    is only a start.
    """
    c = math.ceil(threshold * trials)
    while c > 1 and (c - 1) / trials >= threshold:
        c -= 1
    while c / trials < threshold:
        c += 1
    return c


def _passes_null(t: np.ndarray, n: np.ndarray, threshold: float, trials: int, seed: int) -> np.ndarray:
    """Whether each pair's Monte Carlo significance reaches threshold, one table per distinct n.

    The share of a sorted table at or below t reaches threshold iff
    t >= table[c - 1], with c from _null_rank.  An infinite t always
    passes and builds no table.
    """
    ok = t == np.inf
    finite = np.flatnonzero(~ok)
    sizes, where = np.unique(n[finite], return_inverse=True)
    rank = _null_rank(threshold, trials) - 1
    critical = np.array([_null_table(size, trials, seed)[rank] for size in sizes.tolist()])
    ok[finite] = t[finite] >= critical[where]
    return ok


@dataclass(frozen=True, slots=True)
class SignificancePolicy:
    """How segmentation decides that a window's max t is significant at a threshold.

    The significance of (t, n) is P(max t <= t) over i.i.d. sequences of
    length n, and a cut needs it to reach the threshold theta.  mode
    "closed-form" takes the approximation of Bernaola-Galvan et al. (PRL 87
    (2001) 168105), {1 - I_x(delta nu, delta)}^eta with x = nu / (nu + t^2),
    nu = n - 2, delta = 0.40 and eta = 4.19 ln n - 11.54, except that windows
    shorter than small_n_mc take the Monte Carlo null, where eta is near or
    below zero.  mode "monte-carlo" takes the seeded null everywhere.  Both
    rise with t, so neither is computed as a probability: a pair passes iff
    t >= t_crit(n, theta).
    """

    mode: str = "closed-form"
    mc_trials: int = DEFAULT_MC_TRIALS
    seed: int = DEFAULT_MC_SEED
    small_n_mc: ClassVar[int] = SMALL_N_MC

    def __post_init__(self) -> None:
        if self.mode not in ("closed-form", "monte-carlo"):
            raise ValueError(f"unknown significance mode {self.mode!r}")

    def uses_null(self, n: np.ndarray) -> np.ndarray:
        """Which window lengths are scored by the Monte Carlo null."""
        if self.mode == "monte-carlo":
            return np.ones(len(n), dtype=bool)
        return n < self.small_n_mc

    def passes(self, t: np.ndarray, n: np.ndarray, threshold: float) -> np.ndarray:
        """Whether each pair (t[i], n[i]) is significant at threshold, n int64 and all >= 4."""
        ok = np.empty(len(t), dtype=bool)
        null = self.uses_null(n)
        if null.any():
            ok[null] = _passes_null(t[null], n[null], threshold, self.mc_trials, self.seed)
        if not null.all():
            ok[~null] = _critical_t(threshold).passes(t[~null], n[~null])
        return ok


def _name(item, index: int) -> str:
    if isinstance(item, SignedSeries):
        return f"firm {item.firm_id!r}, stock {item.stock_id!r}"
    return f"series {index}"


def segment_many(
    series: Iterable[SignedSeries | Sequence[float]],
    threshold: float = DEFAULT_THRESHOLD,
    *,
    policy: SignificancePolicy | None = None,
    counts: dict[str, int] | None = None,
) -> Iterator[Segmentation]:
    """Recursively partition each series of a stream into homogeneous segments.

    Yields one Segmentation per series, in input order.  Each window's best
    cut is accepted when its significance reaches the threshold and both new
    segments also differ significantly from their adjacent existing segments
    (evaluated at the combined length of the two segments compared; absent
    neighbors skip that side).  Windows shorter than 4 points are terminal.
    Each series recurses depth-first, left first, which fixes its boundary
    set deterministically and independently of the other series.

    Series are read in groups of up to _GROUP_ROWS rows and segmented in
    lockstep.  A non-finite value raises ValueError naming the series and
    index.  When counts is given, the COUNT_KEYS tallies are added to it.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if policy is None:
        policy = SignificancePolicy()
    if counts is not None:
        for key in COUNT_KEYS:
            counts.setdefault(key, 0)
    return _segment_stream(series, threshold, policy, counts)


def _segment_stream(series, threshold, policy, counts) -> Iterator[Segmentation]:
    group: list[tuple[np.ndarray, str]] = []
    rows = 0
    for index, item in enumerate(series):
        values = item.signed_values if isinstance(item, SignedSeries) else item
        x = np.asarray(values, dtype=np.float64)
        if group and rows + len(x) > _GROUP_ROWS:
            yield from _segment_group(group, threshold, policy, counts)
            group, rows = [], 0
        group.append((x, _name(item, index)))
        rows += len(x)
    if group:
        yield from _segment_group(group, threshold, policy, counts)


def _prefix_sums(group: list[tuple[np.ndarray, str]]) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Each series' offset into one flat pair of prefix-sum arrays, and the arrays.

    Series k takes n_k + 1 slots from its offset: a leading zero, then the
    running sums of its values and of their squares.  t is scale-invariant
    and scaling by a power of two is exact, so each series is first brought
    to max|x| in [0.5, 1), where the squares cannot overflow, then centred.
    """
    base = [0]
    for x, _ in group:
        base.append(base[-1] + len(x) + 1)
    sums = np.empty(base[-1])
    sq_sums = np.empty(base[-1])
    scratch = np.empty(max(len(x) for x, _ in group))
    for (x, name), offset in zip(group, base):
        n = len(x)
        sums[offset] = sq_sums[offset] = 0.0
        if n == 0:
            continue
        peak = float(np.abs(x).max())
        if not math.isfinite(peak):
            bad = int(np.flatnonzero(~np.isfinite(x))[0])
            raise ValueError(f"{name}: value at index {bad} is not finite ({x[bad]!r})")
        centred = scratch[:n]
        if peak > 0.0:
            np.ldexp(x, -np.frexp(peak)[1], out=centred)
        else:
            centred[:] = x
        centred -= centred.mean()
        np.cumsum(centred, out=sums[offset + 1 : offset + 1 + n])
        np.multiply(centred, centred, out=centred)
        np.cumsum(centred, out=sq_sums[offset + 1 : offset + 1 + n])
    return base[:-1], sums, sq_sums


def _segment_group(group, threshold, policy, counts) -> list[Segmentation]:
    """The group's segmentations; its prefix sums are freed when this returns.

    Windows, cuts and boundaries are kept as indices into the flat prefix
    sums, so series k's row i is base[k] + i.
    """
    base, sums, sq_sums = _prefix_sums(group)
    boundaries = [[b, b + len(x)] for b, (x, _) in zip(base, group)]
    # Per series, the windows still to be popped: (lo, hi, best cut), each
    # already scanned and over the threshold.  A window under the threshold
    # or shorter than 4 rows would be popped without effect, so it is never
    # pushed, and each series' pops keep the order of the one-at-a-time
    # recursion.
    stacks: list[list[tuple[int, int, int]]] = [[] for _ in group]
    tally = dict.fromkeys(COUNT_KEYS, 0)
    fresh = [(k, lo, hi) for k, (lo, hi) in enumerate(boundaries) if hi - lo >= 4]
    live = [k for k, _, _ in fresh]
    while True:
        if fresh:
            windows = np.array([window[1:] for window in fresh], dtype=np.int64)
            lo, hi = windows[:, 0], windows[:, 1]
            cuts, t = _scan(sums, sq_sums, lo, hi)
            passed = policy.passes(t, hi - lo, threshold)
            tally["windows_scanned"] += len(fresh)
            tally["windows_monte_carlo"] += int(policy.uses_null(hi - lo).sum())
            tally["rejected_threshold"] += len(fresh) - int(passed.sum())
            for (k, lo_k, hi_k), cut, ok in zip(fresh, cuts.tolist(), passed.tolist()):
                if ok:
                    stacks[k].append((lo_k, hi_k, cut))
        live = [k for k in live if stacks[k]]
        if not live:
            break
        popped = [(k, *stacks[k].pop()) for k in live]
        accepted = _neighbours_pass(popped, boundaries, sums, sq_sums, threshold, policy)
        tally["cuts_accepted"] += sum(accepted)
        tally["rejected_neighbour"] += len(popped) - sum(accepted)
        fresh = []
        for (k, lo_k, hi_k, cut), ok in zip(popped, accepted):
            if ok:
                insort(boundaries[k], cut)
                # Right child first, so the left one is popped first.
                if hi_k - cut >= 4:
                    fresh.append((k, cut, hi_k))
                if cut - lo_k >= 4:
                    fresh.append((k, lo_k, cut))
    tally["windows_closed_form"] = tally["windows_scanned"] - tally["windows_monte_carlo"]
    if counts is not None:
        for key, value in tally.items():
            counts[key] += value
    return [
        Segmentation(boundaries=tuple(b - bounds[0] for b in bounds)) for bounds in boundaries
    ]


def _neighbours_pass(popped, boundaries, sums, sq_sums, threshold, policy) -> list[bool]:
    """Whether each popped cut's new segments differ significantly from their neighbours.

    A cut is tested against the segment before its window and the one after
    it, where there is one, and is accepted iff every test it has passes.
    No test's outcome depends on another's, so all are scored in one batch.
    """
    tests = []
    for slot, (k, lo, hi, cut) in enumerate(popped):
        bounds = boundaries[k]
        at = bisect_right(bounds, lo) - 1
        if at > 0:
            prev = bounds[at - 1]
            if lo - prev >= 2 and cut - lo >= 2:
                tests.append((slot, prev, lo, cut))
        at = bisect_right(bounds, hi) - 1
        if at < len(bounds) - 1:
            nxt = bounds[at + 1]
            if nxt - hi >= 2 and hi - cut >= 2:
                tests.append((slot, cut, hi, nxt))
    accepted = [True] * len(popped)
    if tests:
        slot, lo, mid, hi = np.array(tests, dtype=np.int64).T
        sum_left, sq_left = sums[mid] - sums[lo], sq_sums[mid] - sq_sums[lo]
        sum_right, sq_right = sums[hi] - sums[mid], sq_sums[hi] - sq_sums[mid]
        t = _pooled_t(sum_left, sq_left, sum_right, sq_right, mid - lo, hi - mid, hi - lo)
        for rejected in slot[~policy.passes(t, hi - lo, threshold)].tolist():
            accepted[rejected] = False
    return accepted


def segment(
    series: SignedSeries | Sequence[float],
    threshold: float = DEFAULT_THRESHOLD,
    *,
    policy: SignificancePolicy | None = None,
) -> Segmentation:
    """Recursively partition one series into homogeneous segments (see segment_many)."""
    return next(segment_many([series], threshold, policy=policy))
