"""Seeded Monte Carlo for the continuous-time companions of the tree results:
exponential deflators for drifted Brownian motion, the jump counterexample
with its death-time repair, the survival-measure supermartingale gap, and the
insider information-drift deflator.

Reproducibility contract: path i draws from the counter-based Philox stream
keyed by (seed, i), and all reductions over paths run in a fixed pairwise
order, so results are bit-identical across runs and across worker counts.
The pinned generator is part of the scenario identity: a different
counter-based generator reproduces the statistics, not the bits.

Path keys: the key of path i is numpy's
`SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(2, np.uint64)`,
which is what `path_rng(seed, i)` seeds Philox with.  The estimators derive
the keys of a whole block of `PATH_BLOCK` paths in one vectorized pass over
uint32 words (`_path_keys`), give the block one generator and re-key it per
path with counter zero and an empty buffer, so each path draws exactly the
variates `path_rng(seed, i)` would, without building a seed sequence and a
generator per path.

Jumps are never thinned onto the grid: exponential clocks and Poisson counts
are drawn exactly, so the laws of the jump processes are exact and only
strategy integrals (piecewise-constant on the grid by definition) interact
with the grid at all.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

MIN_PATHS_FOR_VERDICT = 100
DEFAULT_CONFIDENCE_SIGMAS = 3.0
PATH_BLOCK = 4096


def path_rng(seed: int, index: int) -> np.random.Generator:
    """The sub-stream owned by one path: Philox keyed by (seed, path index)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed,
                                                spawn_key=(index,))))


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

    Every row reproduces deterministically from its stream id (seed, path
    index); estimators never consume these arrays, they re-draw the same
    streams, so sampling paths cannot perturb any reported statistic."""

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
    """A zero-mean test of per-path statistics at a stated confidence."""

    mean: float
    se: float
    z: float
    n_paths: int
    target: float = 0.0
    crit: float = DEFAULT_CONFIDENCE_SIGMAS
    insufficient: bool = False

    @property
    def consistent(self) -> bool:
        """Fails to reject the martingale hypothesis at the stated level."""
        return not self.insufficient and abs(self.z) <= self.crit

    @property
    def rejects(self) -> bool:
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


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _hashmix(value, const: int):
    """SeedSequence's hashmix of a uint32 word (an int, or a uint32 array
    whose products wrap mod 2**32), and the next hash constant."""
    value = value ^ const
    const = const * _MULT_A & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x, y):
    r = ((_MIX_MULT_L * x & _MASK32) - _MIX_MULT_R * y) & _MASK32
    return r ^ r >> 16


def _path_keys(seed: int, start: int, stop: int) -> np.ndarray:
    """Philox keys of paths start..stop-1 as a (stop - start) x 2 uint64
    array: row i - start equals
    SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(2, np.uint64).

    This is SeedSequence's algorithm with the spawn key, the last entropy
    word, held as an array of path indices: the words before it mix into the
    pool as plain ints, the same for every path, and only the last word's
    mixing and the output hash run on arrays."""
    if not 0 <= start <= stop <= 2 ** 32:
        raise ValueError(f"path indices must lie in [0, 2**32] "
                         f"(got {start}..{stop})")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer (got {seed})")
    entropy = []
    while True:
        entropy.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    # numpy pads the run entropy to the pool size when a spawn key follows
    entropy += [0] * (_POOL_SIZE - len(entropy))
    entropy.append(np.arange(start, stop, dtype=np.uint32))
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        word, const = _hashmix(word, const)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], mixed)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            mixed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], mixed)
    # generate_state(2, np.uint64): four output words, little-endian pairs
    const = _INIT_B
    out = []
    for word in pool:
        word = word ^ const
        const = const * _MULT_B & _MASK32
        word = word * const & _MASK32
        out.append((word ^ word >> 16).astype(np.uint64))
    keys = np.empty((stop - start, 2), dtype=np.uint64)
    keys[:, 0] = out[0] | out[1] << np.uint64(32)
    keys[:, 1] = out[2] | out[3] << np.uint64(32)
    return keys


def _run_paths(seed: int, n_paths: int, one_path, threads: int = 1
               ) -> np.ndarray:
    """Evaluate one_path(rng, i) for every path into a path-indexed array,
    with rng positioned at the start of path i's stream."""
    out = np.empty(n_paths, dtype=np.float64)

    def run_block(start: int, stop: int) -> None:
        keys = _path_keys(seed, start, stop)
        rng = path_rng(seed, start)
        bitgen = rng.bit_generator
        # the state Philox(key) starts in: counter 0, buffer used up, no
        # cached 32-bit half; only the key changes from path to path
        state = {"bit_generator": "Philox",
                 "state": {"counter": np.zeros(4, dtype=np.uint64),
                           "key": keys[0]},
                 "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
        for i in range(start, stop):
            state["state"]["key"] = keys[i - start]
            bitgen.state = state
            out[i] = one_path(rng, i)

    blocks = [(s, min(s + PATH_BLOCK, n_paths))
              for s in range(0, n_paths, PATH_BLOCK)]
    if threads <= 1 or len(blocks) == 1:
        for s, e in blocks:
            run_block(s, e)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda se_: run_block(*se_), blocks))
    return out


def _check_paths(paths: int) -> None:
    if paths < 1:
        raise ValueError(f"paths must be at least 1 (got {paths})")


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
        if self.sigma <= 0:
            raise ValueError("volatility must be positive")
        if self.steps < 1 or self.horizon <= 0:
            raise ValueError("need a positive horizon and at least one step")
        _check_paths(self.paths)

    @property
    def lam(self) -> float:
        return self.mu / self.sigma ** 2


@dataclass
class DiffusionReport:
    density_mean: MartingaleTest       # E[Z_T] - 1 against 0
    deflated_price: MartingaleTest     # E[Z_T S_T] - S_0 against 0
    deflated_wealth: MartingaleTest    # E[Z_T W_T] - 1 against 0


def _diffusion_columns(sc: DiffusionScenario,
                       pi: Optional[Union[float, Sequence[float]]],
                       threads: int
                       ) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Per-path Z_T - 1, Z_T S_T - S_0 and, when a holding pi is given,
    Z_T W_T - 1 (else None), all from one draw of each path's increments."""
    dt = sc.horizon / sc.steps
    sqrt_dt = np.sqrt(dt)
    lam = sc.lam
    half_qv = 0.5 * lam ** 2 * sc.sigma ** 2 * sc.horizon
    price = np.empty(sc.paths, dtype=np.float64)
    wealth = None
    if pi is not None:
        pi_arr = np.broadcast_to(np.asarray(pi, dtype=np.float64), (sc.steps,))
        if not np.all(np.isfinite(pi_arr)):
            raise ValueError("strategy must be bounded")
        wealth = np.empty(sc.paths, dtype=np.float64)

    def one_path(rng: np.random.Generator, i: int) -> float:
        dw = rng.standard_normal(sc.steps) * sqrt_dt
        w_t = float(dw.sum())
        z_t = np.exp(-lam * sc.sigma * w_t - half_qv)
        s_t = sc.s0 + sc.mu * sc.horizon + sc.sigma * w_t
        price[i] = z_t * s_t - sc.s0
        if wealth is not None:
            gains = float(np.dot(pi_arr, sc.mu * dt + sc.sigma * dw))
            wealth[i] = z_t * (1.0 + gains) - 1.0
        return float(z_t) - 1.0

    density = _run_paths(sc.seed, sc.paths, one_path, threads)
    return density, price, wealth


def diffusion_report(sc: DiffusionScenario,
                     pi: Union[float, Sequence[float]],
                     threads: int = 1) -> DiffusionReport:
    """The three diffusion tests from one pass over the paths; each equals
    what its own estimator below reports."""
    if pi is None:
        raise ValueError("pi: the deflated-wealth test needs a holding")
    density, price, wealth = _diffusion_columns(sc, pi, threads)
    return DiffusionReport(density_mean=summarize(density),
                           deflated_price=summarize(price),
                           deflated_wealth=summarize(wealth))


def simulate_deflated_wealth(sc: DiffusionScenario,
                             pi: Union[float, Sequence[float]],
                             threads: int = 1) -> MartingaleTest:
    """Estimate E[Z_T W_T] - 1 for the wealth W of a piecewise-constant
    holding pi (in units of the asset), which vanishes when Z deflates."""
    return summarize(_diffusion_columns(sc, pi, threads)[2])


def deflated_price_test(sc: DiffusionScenario, threads: int = 1
                        ) -> MartingaleTest:
    """Estimate E[Z_T S_T] - S_0 for the price itself (unit holding)."""
    return summarize(_diffusion_columns(sc, None, threads)[1])


def density_mean_test(sc: DiffusionScenario, threads: int = 1) -> MartingaleTest:
    """Estimate E[Z_T] - 1: the exponential density integrates to one."""
    return summarize(_diffusion_columns(sc, None, threads)[0])


def sample_diffusion_paths(sc: DiffusionScenario, n: int = 100) -> PathBatch:
    """Grid trajectories of the motion, the price and the density for the
    first n paths (same streams, same draws as the estimators)."""
    n = min(n, sc.paths)
    dt = sc.horizon / sc.steps
    lam = sc.lam
    times = np.linspace(0.0, sc.horizon, sc.steps + 1)
    w = np.empty((n, sc.steps + 1))
    for i in range(n):
        dw = path_rng(sc.seed, i).standard_normal(sc.steps) * np.sqrt(dt)
        w[i] = np.concatenate([[0.0], np.cumsum(dw)])
    s = sc.s0 + sc.mu * times + sc.sigma * w
    z = np.exp(-lam * sc.sigma * w - 0.5 * lam ** 2 * sc.sigma ** 2 * times)
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
        if not self.a > abs(self.b):
            raise ValueError("need death intensity a > |b|")
        if self.horizon <= 0 or self.steps < 1:
            raise ValueError("need a positive horizon and at least one step")
        _check_paths(self.paths)


def analytic_frozen_mean(sc: LevyScenario) -> float:
    """E of the pre-death jump process at the horizon: b E[T and horizon]."""
    return float(sc.b * (1.0 - np.exp(-sc.a * sc.horizon)) / sc.a)


def simulate_levy_counterexample(sc: LevyScenario, threads: int = 1
                                 ) -> tuple[MartingaleTest, MartingaleTest]:
    """Test the frozen process against 0 (it drifts: expect rejection) and the
    repaired process, which subtracts b/a at death, against 0 (a martingale).

    The path functional only needs the jump counts at T and horizon, drawn
    exactly; no grid enters.  Both statistics come from the same stream, path
    by path, so the repair is tested on exactly the paths that drift.
    """
    corrections = np.empty(sc.paths, dtype=np.float64)

    def raw_path(rng: np.random.Generator, i: int) -> float:
        tau = rng.exponential(1.0 / sc.a)
        t = min(tau, sc.horizon)
        n_up = rng.poisson(t)
        n_down = rng.poisson(t)
        corrections[i] = (sc.b / sc.a) * (1.0 if tau <= sc.horizon else 0.0)
        return n_up - n_down + sc.b * t

    raw_vals = _run_paths(sc.seed, sc.paths, raw_path, threads)
    return summarize(raw_vals), summarize(raw_vals - corrections)


def simulate_survival_measure(sc: LevyScenario,
                              pi: Union[float, Sequence[float]],
                              threads: int = 1) -> MartingaleTest:
    """Estimate the deflated-wealth gap E[e^{-a horizon} W_horizon] - 1 under
    the survival law (the jump process has the same law there, so it is
    simulated directly).

    The wealth of the fraction-of-wealth strategy pi multiplies by
    (1 +- pi) at jumps and grows at rate pi b between events; admissibility is
    exactly |pi| <= 1.  The gap is asserted nonpositive up to the stated
    confidence: the deflated wealth drifts at rate (pi b - a) < 0.
    """
    pi_arr = np.broadcast_to(np.asarray(pi, dtype=np.float64), (sc.steps,))
    if np.any(np.abs(pi_arr) > 1.0):
        raise ValueError("admissibility requires |pi| <= 1")
    # Python floats: the same IEEE arithmetic, without numpy-scalar indexing
    pi_cells = pi_arr.tolist()
    dt = sc.horizon / sc.steps
    z_end = float(np.exp(-sc.a * sc.horizon))

    def one_path(rng: np.random.Generator, i: int) -> float:
        n_up = rng.poisson(sc.horizon)
        n_down = rng.poisson(sc.horizon)
        ups = rng.uniform(0.0, sc.horizon, n_up).tolist()
        downs = rng.uniform(0.0, sc.horizon, n_down).tolist()
        events = [(t, +1) for t in ups] + [(t, -1) for t in downs]
        events.sort()
        w = 1.0
        t_prev = 0.0
        for t, jump in events:
            w *= _drift_factor(pi_cells, sc.b, dt, t_prev, t)
            cell = min(int(t / dt), sc.steps - 1)
            w *= 1.0 + pi_cells[cell] * jump
            t_prev = t
        w *= _drift_factor(pi_cells, sc.b, dt, t_prev, sc.horizon)
        return z_end * w - 1.0

    test = summarize(_run_paths(sc.seed, sc.paths, one_path, threads))
    if test.mean > test.crit * test.se:
        raise AssertionError(
            f"survival-measure gap {test.mean:.6f} exceeds 0 by more than "
            f"{test.crit} standard errors; the deflation property is broken")
    return test


def _drift_factor(pi_cells: list[float], b: float, dt: float,
                  t_from: float, t_to: float) -> float:
    """exp(b * integral of pi) across grid cells between two event times; the
    strategy is constant on each cell, so the integral is exact."""
    if t_to <= t_from:
        return 1.0
    acc = 0.0
    pos = t_from
    for cell in range(int(t_from / dt), len(pi_cells)):
        edge = (cell + 1) * dt
        if edge >= t_to:            # the last cell: the integral ends at t_to
            acc += pi_cells[cell] * (t_to - pos)
            break
        acc += pi_cells[cell] * (edge - pos)
        pos = edge
    return float(np.exp(b * acc))


def sample_levy_paths(sc: LevyScenario, n: int = 100) -> PathBatch:
    """Grid trajectories of the jump process, its pre-death freeze and the
    repaired process, for the first n paths.  The estimators need only the
    counts at the death time, so the sampler spends its streams on the full
    jump-time layout instead; the law is the same, the variates are not."""
    n = min(n, sc.paths)
    times = np.linspace(0.0, sc.horizon, sc.steps + 1)
    raw = np.empty((n, sc.steps + 1))
    frozen = np.empty((n, sc.steps + 1))
    repaired = np.empty((n, sc.steps + 1))
    for i in range(n):
        rng = path_rng(sc.seed, i)
        tau = rng.exponential(1.0 / sc.a)
        n_up = rng.poisson(sc.horizon)
        n_down = rng.poisson(sc.horizon)
        ups = np.sort(rng.uniform(0.0, sc.horizon, n_up))
        downs = np.sort(rng.uniform(0.0, sc.horizon, n_down))
        jumps = (np.searchsorted(ups, times, side="right")
                 - np.searchsorted(downs, times, side="right"))
        level = jumps + sc.b * times
        raw[i] = level
        if tau <= sc.horizon:
            before = times < tau
            freeze_jumps = (np.searchsorted(ups, tau) - np.searchsorted(downs, tau))
            freeze = freeze_jumps + sc.b * tau
            frozen[i] = np.where(before, level, freeze)
            repaired[i] = frozen[i] - (sc.b / sc.a) * (~before)
        else:
            frozen[i] = level
            repaired[i] = level
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
        if self.steps < 1:
            raise ValueError("need at least one step")
        if not 0 < self.horizon <= 1.0 - 1.0 / self.steps:
            raise ValueError(
                f"horizon must lie in (0, 1 - 1/steps]: the drift blows up at "
                f"the revealed endpoint (got {self.horizon})")
        _check_paths(self.paths)


@dataclass
class InsiderDriftReport:
    density_mean: MartingaleTest       # E[Z_t] - 1 against 0
    deflated_motion: MartingaleTest    # E[Z_t W_t] against 0


def information_drift_deflator(sc: InsiderDriftScenario,
                               threads: int = 1) -> InsiderDriftReport:
    """Form the exponential of the negative information-drift integral on the
    grid and test that it deflates: unit mean, and zero mean against the
    enlarged-filtration Brownian motion."""
    dt = sc.horizon / sc.steps
    sqrt_dt = np.sqrt(dt)
    sqrt_rest = np.sqrt(1.0 - sc.horizon)
    time_left = 1.0 - np.arange(sc.steps) * dt
    zw_vals = np.empty(sc.paths, dtype=np.float64)

    def one_path(rng: np.random.Generator, i: int) -> float:
        dw = rng.standard_normal(sc.steps) * sqrt_dt
        w_t = float(dw.sum())
        w_left = np.concatenate([[0.0], np.cumsum(dw[:-1])])
        w_end = w_t + float(rng.standard_normal()) * sqrt_rest
        alpha = (w_end - w_left) / time_left
        d_mart = dw - alpha * dt
        log_z = -float(np.dot(alpha, d_mart)) \
            - 0.5 * float(np.dot(alpha, alpha)) * dt
        z = float(np.exp(log_z))
        zw_vals[i] = z * w_t
        return z - 1.0

    z_vals = _run_paths(sc.seed, sc.paths, one_path, threads)
    return InsiderDriftReport(
        density_mean=summarize(z_vals),
        deflated_motion=summarize(zw_vals),
    )


def sample_insider_paths(sc: InsiderDriftScenario, n: int = 100) -> PathBatch:
    """Grid trajectories of the motion, the revealed endpoint's drift
    compensation and the resulting density, for the first n paths."""
    n = min(n, sc.paths)
    dt = sc.horizon / sc.steps
    grid = np.linspace(0.0, sc.horizon, sc.steps + 1)
    w = np.empty((n, sc.steps + 1))
    z = np.empty((n, sc.steps + 1))
    for i in range(n):
        rng = path_rng(sc.seed, i)
        dw = rng.standard_normal(sc.steps) * np.sqrt(dt)
        w[i] = np.concatenate([[0.0], np.cumsum(dw)])
        w_end = w[i, -1] + float(rng.standard_normal()) * np.sqrt(1.0 - sc.horizon)
        alpha = (w_end - w[i, :-1]) / (1.0 - grid[:-1])
        d_mart = dw - alpha * dt
        log_z = np.concatenate(
            [[0.0], np.cumsum(-alpha * d_mart - 0.5 * alpha * alpha * dt)])
        z[i] = np.exp(log_z)
    return PathBatch(grid, {"motion": w, "density": z},
                     [(sc.seed, i) for i in range(n)])
