"""The per-path Monte Carlo estimators as they were before the path keys of
a block were derived in one vectorized pass: one `path_rng` (a SeedSequence,
a Philox and a Generator) per path, and a separate draw of every diffusion
path for each of the three diffusion tests.  Kept verbatim as the reference
that the production estimators must reproduce bit for bit."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Sequence, Union

import numpy as np

from deflator_lab.montecarlo import (PATH_BLOCK, DiffusionScenario,
                                     InsiderDriftReport, InsiderDriftScenario,
                                     LevyScenario, MartingaleTest, path_rng,
                                     summarize)


def _run_paths(n_paths: int, one_path, threads: int = 1) -> np.ndarray:
    """Evaluate one_path(rng, i) for every path into a path-indexed array."""
    out = np.empty(n_paths, dtype=np.float64)

    def run_block(start: int, stop: int) -> None:
        for i in range(start, stop):
            out[i] = one_path(i)

    blocks = [(s, min(s + PATH_BLOCK, n_paths))
              for s in range(0, n_paths, PATH_BLOCK)]
    if threads <= 1 or len(blocks) == 1:
        for s, e in blocks:
            run_block(s, e)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda se_: run_block(*se_), blocks))
    return out


def simulate_deflated_wealth(sc: DiffusionScenario,
                             pi: Union[float, Sequence[float]],
                             threads: int = 1) -> MartingaleTest:
    """Estimate E[Z_T W_T] - 1 for the wealth W of a piecewise-constant
    holding pi (in units of the asset), which vanishes when Z deflates."""
    pi_arr = np.broadcast_to(np.asarray(pi, dtype=np.float64), (sc.steps,))
    if not np.all(np.isfinite(pi_arr)):
        raise ValueError("strategy must be bounded")
    dt = sc.horizon / sc.steps
    lam = sc.lam
    half_qv = 0.5 * lam ** 2 * sc.sigma ** 2 * sc.horizon

    def one_path(i: int) -> float:
        rng = path_rng(sc.seed, i)
        dw = rng.standard_normal(sc.steps) * np.sqrt(dt)
        w_t = float(dw.sum())
        z_t = np.exp(-lam * sc.sigma * w_t - half_qv)
        gains = float(np.dot(pi_arr, sc.mu * dt + sc.sigma * dw))
        return z_t * (1.0 + gains) - 1.0

    return summarize(_run_paths(sc.paths, one_path, threads))


def deflated_price_test(sc: DiffusionScenario, threads: int = 1
                        ) -> MartingaleTest:
    """Estimate E[Z_T S_T] - S_0 for the price itself (unit holding)."""
    dt = sc.horizon / sc.steps
    lam = sc.lam
    half_qv = 0.5 * lam ** 2 * sc.sigma ** 2 * sc.horizon

    def one_path(i: int) -> float:
        rng = path_rng(sc.seed, i)
        dw = rng.standard_normal(sc.steps) * np.sqrt(dt)
        w_t = float(dw.sum())
        z_t = np.exp(-lam * sc.sigma * w_t - half_qv)
        s_t = sc.s0 + sc.mu * sc.horizon + sc.sigma * w_t
        return z_t * s_t - sc.s0

    return summarize(_run_paths(sc.paths, one_path, threads))


def density_mean_test(sc: DiffusionScenario, threads: int = 1) -> MartingaleTest:
    """Estimate E[Z_T] - 1: the exponential density integrates to one."""
    lam = sc.lam
    half_qv = 0.5 * lam ** 2 * sc.sigma ** 2 * sc.horizon

    def one_path(i: int) -> float:
        rng = path_rng(sc.seed, i)
        dw = rng.standard_normal(sc.steps) * np.sqrt(sc.horizon / sc.steps)
        return float(np.exp(-lam * sc.sigma * dw.sum() - half_qv)) - 1.0

    return summarize(_run_paths(sc.paths, one_path, threads))


def simulate_levy_counterexample(sc: LevyScenario, threads: int = 1
                                 ) -> tuple[MartingaleTest, MartingaleTest]:
    """Test the frozen process against 0 (it drifts: expect rejection) and the
    repaired process, which subtracts b/a at death, against 0 (a martingale).

    The path functional only needs the jump counts at T and horizon, drawn
    exactly; no grid enters.  Both statistics come from the same stream, path
    by path, so the repair is tested on exactly the paths that drift.
    """
    corrections = np.empty(sc.paths, dtype=np.float64)

    def raw_path(i: int) -> float:
        rng = path_rng(sc.seed, i)
        tau = rng.exponential(1.0 / sc.a)
        t = min(tau, sc.horizon)
        n_up = rng.poisson(t)
        n_down = rng.poisson(t)
        corrections[i] = (sc.b / sc.a) * (1.0 if tau <= sc.horizon else 0.0)
        return n_up - n_down + sc.b * t

    raw_vals = _run_paths(sc.paths, raw_path, threads)
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
    dt = sc.horizon / sc.steps
    z_end = float(np.exp(-sc.a * sc.horizon))

    def one_path(i: int) -> float:
        rng = path_rng(sc.seed, i)
        n_up = rng.poisson(sc.horizon)
        n_down = rng.poisson(sc.horizon)
        ups = np.sort(rng.uniform(0.0, sc.horizon, n_up))
        downs = np.sort(rng.uniform(0.0, sc.horizon, n_down))
        events = [(t, +1) for t in ups] + [(t, -1) for t in downs]
        events.sort()
        w = 1.0
        t_prev = 0.0
        for t, jump in events:
            w *= _drift_factor(pi_arr, sc.b, dt, t_prev, t)
            cell = min(int(t / dt), sc.steps - 1)
            w *= 1.0 + pi_arr[cell] * jump
            t_prev = t
        w *= _drift_factor(pi_arr, sc.b, dt, t_prev, sc.horizon)
        return z_end * w - 1.0

    test = summarize(_run_paths(sc.paths, one_path, threads))
    if test.mean > test.crit * test.se:
        raise AssertionError(
            f"survival-measure gap {test.mean:.6f} exceeds 0 by more than "
            f"{test.crit} standard errors; the deflation property is broken")
    return test


def _drift_factor(pi_arr: np.ndarray, b: float, dt: float,
                  t_from: float, t_to: float) -> float:
    """exp(b * integral of pi) across grid cells between two event times; the
    strategy is constant on each cell, so the integral is exact."""
    if t_to <= t_from:
        return 1.0
    steps = pi_arr.size
    acc = 0.0
    cell = int(t_from / dt)
    pos = t_from
    while pos < t_to and cell < steps:
        edge = min((cell + 1) * dt, t_to)
        acc += pi_arr[cell] * (edge - pos)
        pos = edge
        cell += 1
    return float(np.exp(b * acc))


def information_drift_deflator(sc: InsiderDriftScenario,
                               threads: int = 1) -> InsiderDriftReport:
    """Form the exponential of the negative information-drift integral on the
    grid and test that it deflates: unit mean, and zero mean against the
    enlarged-filtration Brownian motion."""
    dt = sc.horizon / sc.steps
    sqrt_dt = np.sqrt(dt)
    times = np.arange(sc.steps) * dt
    zw_vals = np.empty(sc.paths, dtype=np.float64)

    def one_path(i: int) -> float:
        rng = path_rng(sc.seed, i)
        dw = rng.standard_normal(sc.steps) * sqrt_dt
        w_t = float(dw.sum())
        w_left = np.concatenate([[0.0], np.cumsum(dw[:-1])])
        w_end = w_t + float(rng.standard_normal()) * np.sqrt(1.0 - sc.horizon)
        alpha = (w_end - w_left) / (1.0 - times)
        d_mart = dw - alpha * dt
        log_z = -float(np.dot(alpha, d_mart)) \
            - 0.5 * float(np.dot(alpha, alpha)) * dt
        z = float(np.exp(log_z))
        zw_vals[i] = z * w_t
        return z - 1.0

    z_vals = _run_paths(sc.paths, one_path, threads)
    return InsiderDriftReport(
        density_mean=summarize(z_vals),
        deflated_motion=summarize(zw_vals),
    )
