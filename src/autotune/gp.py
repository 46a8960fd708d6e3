"""Gaussian-process regression over (unit configuration vector, time).

The kernel is a product of squared exponentials, one length scale shared by
the configuration coordinates and one for the normalized time coordinate,
with observation noise. Targets are centered and scaled internally; length
scales are chosen by marginal likelihood over a small log-spaced grid, so the
fit is deterministic. Cholesky factorization escalates jitter from 1e-8 to
1e-4 before giving up, and a failed fit tells the caller to fall back to
random perturbation for that round.

Each grid cell costs one Cholesky factorization and no solve: the cell's
kernel matrix K is factored bordered by the normalized targets ``yn``, as
``[[K, yn], [yn', c]]``, whose factor is ``[[L, 0], [z', d]]`` with
``z = inv(L) @ yn``. So ``yn @ inv(K) @ yn`` is ``z @ z`` and the log
marginal likelihood comes from the same call. The corner ``c`` is so large
that the last pivot never fails, and a cell's jitter is decided by K alone.
Only the winning cell's factor is inverted, by forward substitution, and the
model stores ``inv(L)`` with ``alpha = inv(L).T @ z``, so a prediction is
matrix products only.

The predictive variance keeps the form ``1 - sum(sol**2)``, which ties the
std of every candidate far from the data at exactly the prior std (see
:meth:`GpModel.predict`). A form without the tie would change which
candidate PBT-GP picks, and with it the benchmark's golden journals, so it
belongs to a change that regenerates them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class GpFitError(RuntimeError):
    """Covariance stayed degenerate after jitter escalation."""


_JITTERS = (1e-8, 1e-7, 1e-6, 1e-5, 1e-4)

# The corner c of a bordered matrix [[K, b], [b', c]]: the last pivot of its
# factor is c - |inv(L) @ b|**2. K's smallest eigenvalue is at least the
# jitter, 1e-8, in exact arithmetic, so |inv(L) @ b|**2 <= 1e8 * |b|**2, and
# a factor poor enough to bring that near 1e300 would make the likelihood
# worthless anyway. So the bordered factor fails where K's own does.
_CORNER = 1e300

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
    _inv_chol: np.ndarray = field(repr=False, default=None)  # inverse of K's Cholesky factor
    _alpha: np.ndarray = field(repr=False, default=None)  # K^-1 times the normalized targets

    @property
    def n_points(self) -> int:
        return len(self.x_time)

    @property
    def signal_variance(self) -> float:
        """Prior variance of the latent function on the target's scale."""
        return self.y_scale**2

    def _kernel(self, xc1, xt1, xc2, xt2) -> np.ndarray:
        k = np.exp(-0.5 * _sq_dists(xc1, xc2) / self.length_scale_config**2)
        # the time factor depends on a row's time alone, and candidates
        # usually share one: then one row scales every row of k
        if len(xt1) and (xt1 == xt1[0]).all():
            dt = (xt1[0] - xt2) ** 2
            k *= np.exp(-0.5 * dt / self.length_scale_time**2)
            return k
        times, rows = np.unique(xt1, return_inverse=True)
        dt = (times[:, None] - xt2[None, :]) ** 2
        return k * np.exp(-0.5 * dt / self.length_scale_time**2)[rows]

    def predict(self, x_config, x_time) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation of the latent function.

        With ``ks`` the kernel between the queries and the training points,
        the mean is ``ks @ alpha`` and ``sol = inv(L) @ ks.T`` is one matrix
        product with the inverse factor the fit stored, where a triangular
        solve would cost an LU factorisation of ``L`` per call.

        The variance is computed as ``1 - sum(sol**2)`` on the normalized
        scale. Once the kernel to every training point is negligible, that
        sum falls below one ulp of 1, so the std equals the prior std
        ``sqrt(signal_variance)`` to the last bit and all such distant points
        tie, although in exact arithmetic the std still rises with distance.
        A form that keeps those bits would move PBT-GP's picks, and with
        them its journals, so it waits for a change that means to move them.
        """
        xc = np.atleast_2d(np.asarray(x_config, dtype=float))
        xt = np.atleast_1d(np.asarray(x_time, dtype=float))
        ks = self._kernel(xc, xt, self.x_config, self.x_time)
        mean = ks @ self._alpha
        sol = self._inv_chol @ ks.T
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

    # every factor that one grid axis alone determines is built once
    sq = _sq_dists(x_config, x_config)
    dt = (x_time[:, None] - x_time[None, :]) ** 2
    kts = [np.exp(-0.5 * dt / lt**2) for lt in time_scale_grid]
    # K bordered by the targets: [[K, yn], [yn', _CORNER]]; K is rebuilt in
    # place for each cell, and its factor's last row is z = inv(L) @ yn
    bordered = np.empty((n + 1, n + 1))
    k = bordered[:n, :n]
    diag = bordered.reshape(-1)[:: n + 2][:n]  # K's diagonal, as a view
    bordered[n, :n] = bordered[:n, n] = yn
    bordered[n, n] = _CORNER
    const = 0.5 * n * math.log(2.0 * math.pi)
    best = None
    for lc in length_scale_grid:
        kc = np.exp(-0.5 * sq / lc**2)
        for j, kt in enumerate(kts):
            np.multiply(kc, kt, out=k)
            noisy = diag + noise_variance
            for jitter in _JITTERS:
                np.add(noisy, jitter, out=diag)
                try:
                    factor = np.linalg.cholesky(bordered)
                except np.linalg.LinAlgError:
                    continue
                z = factor[n, :n]
                lml = (
                    -0.5 * float(z @ z)
                    - float(np.sum(np.log(factor.diagonal()[:n])))
                    - const
                )
                if best is None or lml > best[0]:
                    best = (lml, float(lc), j, factor)
                break
    if best is None:
        raise GpFitError("covariance degenerate for every length scale")
    lml, lc, j, factor = best
    inv_chol = _tril_inverse(factor[:n, :n])
    return GpModel(
        x_config=x_config,
        x_time=x_time,
        length_scale_config=lc,
        length_scale_time=float(time_scale_grid[j]),
        y_mean=mu,
        y_scale=scale,
        log_marginal_likelihood=lml,
        _inv_chol=inv_chol,
        _alpha=inv_chol.T @ factor[n, :n],
    )


def _tril_inverse(chol: np.ndarray) -> np.ndarray:
    """``inv(chol)`` for a lower-triangular ``chol`` with a positive
    diagonal, by forward substitution a row at a time (numpy has no
    triangular solve, and ``np.linalg.inv`` would factor ``chol`` again)."""
    n = len(chol)
    inv = np.zeros_like(chol)
    for i in range(n):
        inv[i, :i] = -(chol[i, :i] @ inv[:i, :i]) / chol[i, i]
        inv[i, i] = 1.0 / chol[i, i]
    return inv


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
