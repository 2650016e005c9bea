"""Seeded Monte Carlo for the continuous-time companions of the tree results:
exponential deflators for drifted Brownian motion, the jump counterexample
with its death-time repair, the survival-measure supermartingale gap, and the
insider information-drift deflator.

Stream version 2 (`STREAM_VERSION`): block b of `PATH_BLOCK` paths draws from
one Philox generator keyed by `SeedSequence(entropy=seed, spawn_key=(b,))`,
in chunks of at most max(1, CHUNK_FLOATS // width) consecutive paths, where
width is the number of variates a path needs.  A chunk draws each kind of
variate as one array in C order, path by path:

- diffusion: per cell, one standard normal scaled to N(0, len * dt), where a
  cell is a run of steps with constant holding; no holding, or a scalar one,
  is one cell, and the sampler takes one cell per step;
- survival: per cell, Poisson(len * dt) up and then down jump counts;
- jump counterexample: exponential death times, then per cell the up and
  down counts of its part before death (the estimators' one cell is
  [0, horizon]; the sampler's are the grid cells, whose parts after death it
  draws next);
- insider: steps normals for the grid increments, then one for the endpoint.

Only the counterexample draws more than one array per chunk, so only there is
the chunk layout part of the stream.  Reductions over paths run in a fixed
pairwise order, so results are bit-identical across runs.  The pinned
generator is part of the scenario identity: a different counter-based
generator reproduces the statistics, not the bits.  Death
times and jump counts are exact draws, never thinned onto the grid, so only
strategy integrals (piecewise constant on the grid) meet the grid at all.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

MIN_PATHS_FOR_VERDICT = 100
DEFAULT_CONFIDENCE_SIGMAS = 3.0
STREAM_VERSION = 2
PATH_BLOCK = 4096
CHUNK_FLOATS = 2 ** 14


def pairwise_sum(values: np.ndarray) -> float:
    """Fixed-order balanced reduction; independent of how partials were made."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if n == 0:
        return 0.0
    work = values.copy()
    while work.size > 1:
        half = work.size // 2
        head = work[: 2 * half].reshape(half, 2).sum(axis=1)
        if work.size % 2:
            head = np.concatenate([head, work[-1:]])
        work = head
    return float(work[0])


@dataclass
class PathBatch:
    """Sampled trajectories on the grid for inspection and plotting.

    Row r is path r of the stream (seed, path index), drawn by its law's
    kernel with one cell per grid step: insider rows are the estimators'
    paths, other rows share their law but not their variates.  Estimators
    never consume these arrays, so sampling cannot perturb any statistic."""

    times: "np.ndarray"
    values: dict[str, "np.ndarray"]       # name -> paths x grid points
    stream_ids: list[tuple[int, int]]

    def summary_rows(self) -> list[dict]:
        names = sorted(self.values)
        rows = []
        for r, (seed, idx) in enumerate(self.stream_ids):
            row = {"path": idx, "seed": seed}
            for name in names:
                row[f"{name}_end"] = float(self.values[name][r, -1])
                row[f"{name}_min"] = float(self.values[name][r].min())
                row[f"{name}_max"] = float(self.values[name][r].max())
            rows.append(row)
        return rows


@dataclass
class MartingaleTest:
    """Per-path statistics tested for mean target at a stated confidence."""

    mean: float
    se: float
    z: float
    n_paths: int
    target: float = 0.0
    crit: float = DEFAULT_CONFIDENCE_SIGMAS
    insufficient: bool = False

    @property
    def consistent(self) -> bool:
        """Fails to reject the martingale hypothesis at the stated level.
        A sample with no spread (se 0, where z is set to 0) is judged
        exactly: it is consistent only when its mean is the target."""
        if self.se == 0:
            return not self.insufficient and self.mean == self.target
        return not self.insufficient and abs(self.z) <= self.crit

    @property
    def rejects(self) -> bool:
        if self.se == 0:
            return not self.insufficient and self.mean != self.target
        return not self.insufficient and abs(self.z) > self.crit

    @property
    def verdict(self) -> str:
        if self.insufficient:
            return "insufficient"
        return "consistent" if self.consistent else "reject"


def summarize(per_path: np.ndarray, target: float = 0.0,
              crit: float = DEFAULT_CONFIDENCE_SIGMAS) -> MartingaleTest:
    n = int(per_path.size)
    mean = pairwise_sum(per_path) / n
    centered = per_path - mean
    var = pairwise_sum(centered * centered) / (n - 1) if n > 1 else 0.0
    se = float(np.sqrt(var / n)) if n > 1 else float("inf")
    z = (mean - target) / se if se > 0 else 0.0
    return MartingaleTest(mean=mean, se=se, z=z, n_paths=n, target=target,
                          crit=crit, insufficient=n < MIN_PATHS_FOR_VERDICT)


def _run_blocks(seed: int, n_paths: int, width: int, chunk
                ) -> list[np.ndarray]:
    """The arrays chunk(rng, rows) returns, one row per path, for paths
    0..n_paths-1, each concatenated in path order.

    Block b draws from Philox keyed by (seed, b), and chunk sees its paths in
    consecutive runs of at most max(1, CHUNK_FLOATS // width) rows, in the
    calling thread, block after block."""
    rows = max(1, CHUNK_FLOATS // width)
    parts = []
    for block in range(-(-n_paths // PATH_BLOCK)):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=seed, spawn_key=(block,))))
        size = min(PATH_BLOCK, n_paths - block * PATH_BLOCK)
        parts += [chunk(rng, min(rows, size - start))
                  for start in range(0, size, rows)]
    return [np.concatenate(column) for column in zip(*parts)]


def _check_scenario(sc) -> None:
    """Integers where a field is declared int and finite real numbers
    elsewhere, booleans being neither; one path or more, a seed >= 0, one
    step or more and a positive horizon whose step does not round to 0."""
    for field in dataclasses.fields(sc):
        value = getattr(sc, field.name)
        integral = field.type == "int"
        if isinstance(value, bool) or not isinstance(
                value, numbers.Integral if integral else numbers.Real) \
                or not abs(value) < math.inf:
            kind = "an integer" if integral else "a finite real number"
            raise ValueError(f"{field.name} must be {kind} (got {value!r})")
    if sc.paths < 1:
        raise ValueError(f"paths must be at least 1 (got {sc.paths})")
    if sc.seed < 0:
        raise ValueError(f"seed must be non-negative (got {sc.seed})")
    if sc.steps < 1 or sc.horizon <= 0:
        raise ValueError("need a positive horizon and at least one step")
    if sc.horizon / sc.steps == 0:      # every draw would be scaled by 0
        raise ValueError(f"the step horizon / steps = {sc.horizon!r} / "
                         f"{sc.steps} rounds to 0")


def _cells(pi, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The runs of constant holding in pi, a number or one per grid step:
    their lengths in steps, and the holding on each."""
    if any(isinstance(x, (bool, np.bool_))
           for x in np.asarray(pi, dtype=object).flat):
        raise ValueError("pi must hold numbers, not booleans")
    pi_arr = np.broadcast_to(np.asarray(pi, dtype=np.float64), (steps,))
    if not np.all(np.isfinite(pi_arr)):     # None reads as nan
        raise ValueError("pi: strategy must be bounded")
    starts = np.flatnonzero(np.r_[True, pi_arr[1:] != pi_arr[:-1]])
    return np.diff(np.r_[starts, steps]), pi_arr[starts]


def _from_zero(increments: np.ndarray) -> np.ndarray:
    """Running sums of rows x steps increments on the grid: rows x steps+1."""
    out = np.zeros((increments.shape[0], increments.shape[1] + 1))
    np.cumsum(increments, axis=1, out=out[:, 1:])
    return out


def _jump_counts(rng: np.random.Generator, spans: np.ndarray) -> np.ndarray:
    """Unit-rate up and then down jump counts over each span, as an array of
    shape spans.shape + (2,)."""
    return rng.poisson(spans[..., None], spans.shape + (2,))


# -- drifted Brownian motion ------------------------------------------------------


@dataclass
class DiffusionScenario:
    """Arithmetic Brownian price dS = mu dt + sigma dW on [0, horizon].

    The density is the exponential of the market-price-of-risk integral
    against the martingale part M = sigma W: with lam = mu / sigma**2,
    Z_T = exp(-lam M_T - lam**2 <M>_T / 2)."""

    mu: float
    sigma: float
    horizon: float = 1.0
    steps: int = 512
    paths: int = 100_000
    seed: int = 0
    s0: float = 1.0

    def __post_init__(self) -> None:
        _check_scenario(self)
        if self.sigma <= 0:
            raise ValueError("sigma: volatility must be positive")

    @property
    def lam(self) -> float:
        return self.mu / self.sigma ** 2


@dataclass
class DiffusionReport:
    density_mean: MartingaleTest       # E[Z_T] - 1 against 0
    deflated_price: MartingaleTest     # E[Z_T S_T] - S_0 against 0
    deflated_wealth: MartingaleTest    # E[Z_T W_T] - 1 against 0


def _motion(rng: np.random.Generator, rows: int, var: np.ndarray
            ) -> np.ndarray:
    """Independent Brownian increments, N(0, var[j]) in cell j: rows x cells."""
    return rng.standard_normal((rows, var.size)) * np.sqrt(var)


def _diffusion_columns(sc: DiffusionScenario,
                       cells: Optional[tuple[np.ndarray, np.ndarray]]
                       ) -> list[np.ndarray]:
    """Per-path Z_T - 1, Z_T S_T - S_0 and, when the cells of a holding are
    given, Z_T W_T - 1, all from one draw of each path's cell increments."""
    lengths, hold = cells or (np.array([sc.steps]), None)
    var = lengths * (sc.horizon / sc.steps)
    lam = sc.lam
    half_qv = 0.5 * lam ** 2 * sc.sigma ** 2 * sc.horizon

    def chunk(rng: np.random.Generator, rows: int) -> tuple:
        dw = _motion(rng, rows, var)
        w_t = dw.sum(axis=1)
        z_t = np.exp(-lam * sc.sigma * w_t - half_qv)
        price = z_t * (sc.s0 + sc.mu * sc.horizon + sc.sigma * w_t) - sc.s0
        if hold is None:
            return z_t - 1.0, price
        gains = (hold * (sc.mu * var + sc.sigma * dw)).sum(axis=1)
        return z_t - 1.0, price, z_t * (1.0 + gains) - 1.0

    return _run_blocks(sc.seed, sc.paths, lengths.size, chunk)


def diffusion_report(sc: DiffusionScenario,
                     pi: Union[float, Sequence[float]]) -> DiffusionReport:
    """The three diffusion tests from one pass over the paths.  With a
    constant holding each equals what its own estimator below reports; a
    varying one splits the paths' draws into its cells."""
    density, price, wealth = _diffusion_columns(sc, _cells(pi, sc.steps))
    return DiffusionReport(density_mean=summarize(density),
                           deflated_price=summarize(price),
                           deflated_wealth=summarize(wealth))


def simulate_deflated_wealth(sc: DiffusionScenario,
                             pi: Union[float, Sequence[float]]
                             ) -> MartingaleTest:
    """Estimate E[Z_T W_T] - 1 for the wealth W of a piecewise-constant
    holding pi (in units of the asset), which vanishes when Z deflates."""
    return summarize(_diffusion_columns(sc, _cells(pi, sc.steps))[2])


def deflated_price_test(sc: DiffusionScenario) -> MartingaleTest:
    """Estimate E[Z_T S_T] - S_0 for the price itself (unit holding)."""
    return summarize(_diffusion_columns(sc, None)[1])


def density_mean_test(sc: DiffusionScenario, threads: int = 1) -> MartingaleTest:
    """Estimate E[Z_T] - 1: the exponential density integrates to one.
    threads is ignored: every block runs in the calling thread."""
    return summarize(_diffusion_columns(sc, None)[0])


def sample_diffusion_paths(sc: DiffusionScenario, n: int = 100) -> PathBatch:
    """Grid trajectories of the motion, the price and the density for the
    first n paths."""
    n = min(n, sc.paths)
    times = np.linspace(0.0, sc.horizon, sc.steps + 1)
    var = np.full(sc.steps, sc.horizon / sc.steps)
    theta = sc.lam * sc.sigma           # the market price of risk

    def chunk(rng: np.random.Generator, rows: int) -> tuple:
        w = _from_zero(_motion(rng, rows, var))
        return (w, sc.s0 + sc.mu * times + sc.sigma * w,
                np.exp(-theta * w - 0.5 * theta ** 2 * times))

    w, s, z = _run_blocks(sc.seed, n, sc.steps + 1, chunk)
    return PathBatch(times, {"motion": w, "price": s, "density": z},
                     [(sc.seed, i) for i in range(n)])


# -- jump counterexample and its repair --------------------------------------------


@dataclass
class LevyScenario:
    """Unit jumps up and down (independent rate-1 clocks) plus drift b, killed
    at an independent exponential death time of intensity a, truncated to the
    horizon.  The standing constraint a > |b| keeps every |pi| <= 1 wealth
    drifting down after deflation by exp(-a t)."""

    a: float
    b: float
    horizon: float = 1.0
    steps: int = 64
    paths: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        _check_scenario(self)
        if not self.a > abs(self.b):
            raise ValueError("need death intensity a > |b|")


def analytic_frozen_mean(sc: LevyScenario) -> float:
    """E of the pre-death jump process at the horizon: b E[T and horizon]."""
    return float(sc.b * (1.0 - np.exp(-sc.a * sc.horizon)) / sc.a)


def _killed_jumps(rng: np.random.Generator, rows: int, a: float,
                  cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Death times tau ~ Exp(a), the part of each cell between consecutive
    cuts that precedes death (rows x cells), and its jump counts."""
    tau = rng.exponential(1.0 / a, rows)
    alive = np.clip(np.minimum(cuts[1:], tau[:, None]) - cuts[:-1], 0.0, None)
    return tau, alive, _jump_counts(rng, alive)


def simulate_levy_counterexample(sc: LevyScenario
                                 ) -> tuple[MartingaleTest, MartingaleTest]:
    """Test the frozen process against 0 (it drifts: expect rejection) and the
    repaired process, which subtracts b/a at death, against 0 (a martingale).

    The path functional only needs the jump counts at T and horizon, drawn
    exactly; no grid enters.  Both statistics come from the same draws, path
    by path, so the repair is tested on exactly the paths that drift.
    """
    cuts = np.array([0.0, sc.horizon])

    def chunk(rng: np.random.Generator, rows: int) -> tuple:
        tau, alive, counts = _killed_jumps(rng, rows, sc.a, cuts)
        frozen = counts[:, 0, 0] - counts[:, 0, 1] + sc.b * alive[:, 0]
        return frozen, frozen - (sc.b / sc.a) * (tau <= sc.horizon)

    frozen, repaired = _run_blocks(sc.seed, sc.paths, 2, chunk)
    return summarize(frozen), summarize(repaired)


def simulate_survival_measure(sc: LevyScenario,
                              pi: Union[float, Sequence[float]]
                              ) -> MartingaleTest:
    """Estimate the deflated-wealth gap E[e^{-a horizon} W_horizon] - 1 under
    the survival law (the jump process has the same law there, so it is
    simulated directly).

    The wealth of the fraction-of-wealth strategy pi multiplies by
    (1 +- pi) at jumps and grows at rate pi b between events; admissibility is
    exactly |pi| <= 1.  So on each cell of constant pi it gains
    (1 + pi)^up (1 - pi)^down e^{b pi len dt}, exactly.  The gap should be
    nonpositive, since the deflated wealth drifts at rate (pi b - a) < 0; the
    caller judges it at its own confidence.
    """
    lengths, hold = _cells(pi, sc.steps)
    if not np.all(np.abs(hold) <= 1.0):
        raise ValueError("pi: admissibility requires |pi| <= 1")
    spans = lengths * (sc.horizon / sc.steps)
    # the deflator e^{-a horizon} times the drift e^{b int pi}, path-free
    scale = float(np.exp(sc.b * (hold * spans).sum() - sc.a * sc.horizon))

    def chunk(rng: np.random.Generator, rows: int) -> tuple:
        counts = _jump_counts(rng, np.broadcast_to(spans, (rows, spans.size)))
        jumps = (1.0 + hold) ** counts[..., 0] * (1.0 - hold) ** counts[..., 1]
        return (scale * jumps.prod(axis=1) - 1.0,)

    return summarize(_run_blocks(sc.seed, sc.paths, 2 * spans.size, chunk)[0])


def sample_levy_paths(sc: LevyScenario, n: int = 100) -> PathBatch:
    """Grid trajectories of the jump process, its pre-death freeze and the
    repaired process, for the first n paths.  The counts after death, which
    the estimators never need, are drawn after those before it."""
    n = min(n, sc.paths)
    times = np.linspace(0.0, sc.horizon, sc.steps + 1)

    def chunk(rng: np.random.Generator, rows: int) -> tuple:
        tau, alive, before = _killed_jumps(rng, rows, sc.a, times)
        after = _jump_counts(rng, np.diff(times) - alive)
        jumps = before[..., 0] - before[..., 1]
        frozen = _from_zero(jumps) + sc.b * np.minimum(times, tau[:, None])
        raw = _from_zero(jumps + after[..., 0] - after[..., 1]) + sc.b * times
        return raw, frozen, frozen - (sc.b / sc.a) * (times >= tau[:, None])

    raw, frozen, repaired = _run_blocks(sc.seed, n, 2 * (sc.steps + 1), chunk)
    return PathBatch(times, {"jump_process": raw, "frozen": frozen,
                             "repaired": repaired},
                     [(sc.seed, i) for i in range(n)])


# -- the insider information drift -------------------------------------------------


@dataclass
class InsiderDriftScenario:
    """Brownian motion enlarged by its time-1 endpoint: the compensating drift
    is (W_1 - W_s)/(1 - s), square integrable only strictly before 1, so the
    horizon must stay below 1 and the grid never touches the singularity."""

    horizon: float = 0.5
    steps: int = 1024
    paths: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        _check_scenario(self)
        if not 0 < self.horizon <= 1.0 - 1.0 / self.steps:
            raise ValueError(
                f"horizon must lie in (0, 1 - 1/steps]: the drift blows up at "
                f"the revealed endpoint (got {self.horizon})")


@dataclass
class InsiderDriftReport:
    density_mean: MartingaleTest       # E[Z_t] - 1 against 0
    deflated_motion: MartingaleTest    # E[Z_t W_t] against 0
    log_density: MartingaleTest        # E[log Z_t] against its grid value


def _drift_factor(sc: InsiderDriftScenario) -> np.ndarray:
    """1 / (1 - s) at each step's start s = k dt, made once per run and
    shared by all its chunks."""
    return 1.0 / (1.0 - np.arange(sc.steps) * (sc.horizon / sc.steps))


def _insider_motion(rng: np.random.Generator, rows: int,
                    sc: InsiderDriftScenario, factor: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The motion on the grid (rows x steps + 1) and the log-density
    increments -alpha dM - alpha^2 dt / 2 = alpha^2 dt / 2 - alpha dW of each
    step (rows x steps), where alpha = (W_1 - W_s)/(1 - s) is the drift the
    revealed endpoint adds, 1/(1 - s) the `_drift_factor`, and
    M = W - int alpha the enlarged-filtration Brownian motion.  In place
    where it can be, to keep three arrays live."""
    dt = sc.horizon / sc.steps
    normals = rng.standard_normal((rows, sc.steps + 1))
    dw = normals[:, :-1]
    dw *= np.sqrt(dt)
    w = _from_zero(dw)
    alpha = w[:, -1:] + normals[:, -1:] * np.sqrt(1.0 - sc.horizon) - w[:, :-1]
    alpha *= factor
    dw *= alpha
    alpha *= alpha
    alpha *= 0.5 * dt
    alpha -= dw
    return w, alpha


def information_drift_deflator(sc: InsiderDriftScenario) -> InsiderDriftReport:
    """Form the exponential of the negative information-drift integral on the
    grid and test that it deflates: unit mean, and zero mean against the
    enlarged-filtration Brownian motion.  Also test log Z_t against its exact
    grid mean -1/2 sum_k dt / (1 - k dt), minus the information the endpoint
    adds by time t (ln(1 - t) / 2 on the continuum): Z_t has infinite
    variance from t = 1/4 on, so its own z-test misses its level there."""
    factor = _drift_factor(sc)

    def chunk(rng: np.random.Generator, rows: int) -> tuple:
        w, d_log_z = _insider_motion(rng, rows, sc, factor)
        log_z = d_log_z.sum(axis=1)
        z = np.exp(log_z)
        return z - 1.0, z * w[:, -1], log_z

    z_vals, zw_vals, log_z = _run_blocks(sc.seed, sc.paths, sc.steps + 1,
                                         chunk)
    dt = sc.horizon / sc.steps
    log_mean = -0.5 * pairwise_sum(dt / (1.0 - np.arange(sc.steps) * dt))
    return InsiderDriftReport(density_mean=summarize(z_vals),
                              deflated_motion=summarize(zw_vals),
                              log_density=summarize(log_z, target=log_mean))


def sample_insider_paths(sc: InsiderDriftScenario, n: int = 100) -> PathBatch:
    """Grid trajectories of the motion and the density that compensates the
    revealed endpoint's drift, for the first n paths."""
    n = min(n, sc.paths)
    factor = _drift_factor(sc)

    def chunk(rng: np.random.Generator, rows: int) -> tuple:
        w, d_log_z = _insider_motion(rng, rows, sc, factor)
        return w, np.exp(_from_zero(d_log_z))

    w, z = _run_blocks(sc.seed, n, sc.steps + 1, chunk)
    return PathBatch(np.linspace(0.0, sc.horizon, sc.steps + 1),
                     {"motion": w, "density": z},
                     [(sc.seed, i) for i in range(n)])
