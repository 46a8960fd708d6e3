"""Gaussian-process regression over (unit configuration vector, time).

The kernel is a product of squared exponentials, one length scale shared by
the configuration coordinates and one for the normalized time coordinate,
with observation noise. Targets are centered and scaled internally; length
scales are chosen by marginal likelihood over a small log-spaced grid, so the
fit is deterministic. Cholesky factorization escalates jitter from 1e-8 to
1e-4 before giving up, and a failed fit tells the caller to fall back to
random perturbation for that round.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class GpFitError(RuntimeError):
    """Covariance stayed degenerate after jitter escalation."""


_JITTERS = (1e-8, 1e-7, 1e-6, 1e-5, 1e-4)

# uniform candidates that suggest_candidate scores
N_CANDIDATES = 1000


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aa = np.sum(a * a, axis=1)[:, None]
    bb = np.sum(b * b, axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * (a @ b.T), 0.0)


@dataclass
class GpModel:
    """Fitted model; predicts mean and variance of the (lower-is-better) target."""

    x_config: np.ndarray
    x_time: np.ndarray
    length_scale_config: float
    length_scale_time: float
    y_mean: float
    y_scale: float
    log_marginal_likelihood: float
    _chol: np.ndarray = field(repr=False, default=None)
    _alpha: np.ndarray = field(repr=False, default=None)

    @property
    def n_points(self) -> int:
        return len(self.x_time)

    @property
    def signal_variance(self) -> float:
        """Prior variance of the latent function on the target's scale."""
        return self.y_scale**2

    def _kernel(self, xc1, xt1, xc2, xt2) -> np.ndarray:
        k = np.exp(-0.5 * _sq_dists(xc1, xc2) / self.length_scale_config**2)
        dt = (xt1[:, None] - xt2[None, :]) ** 2
        return k * np.exp(-0.5 * dt / self.length_scale_time**2)

    def predict(self, x_config, x_time) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation of the latent function.

        The variance is computed as ``1 - sum(sol**2)`` on the normalized
        scale. Once the kernel to every training point is negligible, that
        sum falls below one ulp of 1, so the std equals the prior std
        ``sqrt(signal_variance)`` to the last bit and all such distant points
        tie, although in exact arithmetic the std still rises with distance.
        """
        xc = np.atleast_2d(np.asarray(x_config, dtype=float))
        xt = np.atleast_1d(np.asarray(x_time, dtype=float))
        ks = self._kernel(xc, xt, self.x_config, self.x_time)
        mean = ks @ self._alpha
        sol = np.linalg.solve(self._chol, ks.T)
        var = 1.0 - np.sum(sol * sol, axis=0)
        var = np.maximum(var, 0.0)
        return mean * self.y_scale + self.y_mean, np.sqrt(var) * self.y_scale


def fit_gp(
    x_config: np.ndarray,
    x_time: np.ndarray,
    y: np.ndarray,
    noise_variance: float = 1e-4,
    length_scale_grid: np.ndarray | None = None,
    time_scale_grid: np.ndarray | None = None,
) -> GpModel:
    """Fit on >= 2 points; grid-searches the two length scales."""
    x_config = np.atleast_2d(np.asarray(x_config, dtype=float))
    x_time = np.atleast_1d(np.asarray(x_time, dtype=float))
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n < 2:
        raise GpFitError(f"need at least 2 points to fit, got {n}")
    if noise_variance <= 0:
        raise ValueError("noise_variance must be > 0")
    if length_scale_grid is None:
        length_scale_grid = np.geomspace(0.05, 2.0, 5)
    if time_scale_grid is None:
        time_scale_grid = np.geomspace(0.05, 2.0, 5)

    mu = float(np.mean(y))
    scale = float(np.std(y))
    if scale <= 0.0:
        scale = 1.0
    yn = (y - mu) / scale

    dt = (x_time[:, None] - x_time[None, :]) ** 2
    best = None
    for lc in length_scale_grid:
        kc = np.exp(-0.5 * _sq_dists(x_config, x_config) / lc**2)
        for lt in time_scale_grid:
            k = kc * np.exp(-0.5 * dt / lt**2) + noise_variance * np.eye(n)
            chol = _chol_with_jitter(k)
            if chol is None:
                continue
            alpha = _chol_solve(chol, yn)
            lml = (
                -0.5 * float(yn @ alpha)
                - float(np.sum(np.log(np.diag(chol))))
                - 0.5 * n * math.log(2.0 * math.pi)
            )
            if best is None or lml > best[0]:
                best = (lml, float(lc), float(lt), chol, alpha)
    if best is None:
        raise GpFitError("covariance degenerate for every length scale")
    lml, lc, lt, chol, alpha = best
    return GpModel(
        x_config=x_config,
        x_time=x_time,
        length_scale_config=lc,
        length_scale_time=lt,
        y_mean=mu,
        y_scale=scale,
        log_marginal_likelihood=lml,
        _chol=chol,
        _alpha=alpha,
    )


def _chol_with_jitter(k: np.ndarray) -> np.ndarray | None:
    for jitter in _JITTERS:
        try:
            return np.linalg.cholesky(k + jitter * np.eye(len(k)))
        except np.linalg.LinAlgError:
            continue
    return None


def _chol_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    z = np.linalg.solve(chol, b)
    return np.linalg.solve(chol.T, z)


def suggest_candidate(
    model: GpModel,
    time_value: float,
    dimension: int,
    rng: np.random.Generator,
    kappa: float = 1.0,
) -> np.ndarray:
    """Optimistic pick: argmax of -mean + kappa * std over ``N_CANDIDATES``
    uniform candidates.

    The target is lower-is-better, so this maximizes expected improvement
    pressure while kappa scales exploration. Deterministic given ``rng``.

    For finite kappa the mean term still matters far from the data: there
    the mean departs from the prior mean linearly in the kernel value, the
    std from the prior std only quadratically, so the pick is a trade-off
    point rather than the std maximizer. The pick's std is within
    ``range(mean) / kappa`` of the largest std among the candidates and,
    for the same ``rng`` state, never decreases as kappa grows. Ties go to
    the first candidate drawn.
    """
    if model.n_points < 1:
        raise GpFitError("model has no training points")
    cands = rng.random((N_CANDIDATES, dimension))
    mean, std = model.predict(cands, np.full(len(cands), float(time_value)))
    scores = -mean + kappa * std
    return cands[int(np.argmax(scores))]
