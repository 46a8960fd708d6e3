import hashlib
import math

import numpy as np
import pytest

import autotune.gp as gp_module
from autotune.gp import _JITTERS, GpFitError, fit_gp, suggest_candidate


def test_fit_requires_two_points():
    with pytest.raises(GpFitError):
        fit_gp(np.array([[0.5]]), np.array([0.0]), np.array([1.0]))


def test_interpolation_at_identical_points_within_noise():
    x = np.array([[0.3, 0.7], [0.3, 0.7]])
    t = np.array([0.5, 0.5])
    y = np.array([2.5, 2.5])
    model = fit_gp(x, t, y, noise_variance=1e-8)
    mean, _ = model.predict(np.array([[0.3, 0.7]]), np.array([0.5]))
    assert abs(float(mean[0]) - 2.5) < 1e-6


def test_interpolation_passes_near_observations():
    rng = np.random.default_rng(0)
    x = rng.random((12, 2))
    t = rng.random(12)
    y = np.sin(3 * x[:, 0]) + x[:, 1] ** 2
    model = fit_gp(x, t, y, noise_variance=1e-8)
    mean, _ = model.predict(x, t)
    assert float(np.max(np.abs(mean - y))) < 1e-3


def test_variance_reverts_to_prior_far_from_data():
    x = np.array([[0.1], [0.15], [0.2]])
    t = np.array([0.0, 0.0, 0.0])
    y = np.array([1.0, 2.0, 1.5])
    model = fit_gp(x, t, y, noise_variance=1e-6)
    far = np.array([[0.1 + 100 * model.length_scale_config]])
    _, std = model.predict(far, np.array([100 * model.length_scale_time]))
    assert float(std[0] ** 2) == pytest.approx(model.signal_variance, rel=0.01)


def test_calibration_on_held_out_points():
    """Posterior mean within 3 posterior std of truth >= 95% of trials."""
    hits = trials = 0
    for rep in range(40):
        rng = np.random.default_rng(rep)
        f = lambda z: np.sin(6.0 * z) * 0.5 + 0.3 * z
        x_train = rng.random((10, 1))
        y_train = f(x_train[:, 0]) + 0.01 * rng.standard_normal(10)
        model = fit_gp(x_train, np.zeros(10), y_train, noise_variance=1e-4)
        x_test = rng.random((5, 1))
        mean, std = model.predict(x_test, np.zeros(5))
        for m, s, truth in zip(mean, std, f(x_test[:, 0])):
            band = 3.0 * max(float(s), 1e-2)
            hits += abs(float(m) - truth) <= band
            trials += 1
    assert hits / trials >= 0.95


def test_suggest_kappa_zero_finds_posterior_minimum():
    # single deep minimum at z = 0.45
    rng = np.random.default_rng(1)
    grid = np.linspace(0.0, 1.0, 30)[:, None]
    y = (grid[:, 0] - 0.45) ** 2
    model = fit_gp(grid, np.zeros(len(grid)), y, noise_variance=1e-6)

    pick = suggest_candidate(model, 0.0, 1, np.random.default_rng(3), kappa=0.0)
    dense = np.linspace(0.0, 1.0, 10_000)[:, None]
    mean, std = model.predict(dense, np.zeros(len(dense)))
    oracle = dense[int(np.argmax(-mean))][0]
    assert abs(float(pick[0]) - oracle) < 0.02  # one candidate-grid spacing


def test_suggest_large_kappa_maximizes_std():
    x = np.array([[0.2], [0.25], [0.3]])
    y = np.array([0.0, 0.1, 0.05])
    model = fit_gp(x, np.zeros(3), y, noise_variance=1e-6)
    # Replay the candidates suggest_candidate draws from the same seed.
    cands = np.random.default_rng(5).random((1000, 1))
    mean, std = model.predict(cands, np.zeros(len(cands)))
    # The pick maximizes -mean + kappa * std over the candidates, so no
    # candidate's std beats the pick's by more than range(mean) / kappa. Far
    # from the data the mean still pulls at any finite kappa, and the std
    # ties at its prior value, so the test checks the pick's std, not its
    # location.
    picked_std = []
    for kappa in (0.0, 1.0, 1e2, 1e4, 1e6, 1e9):
        pick = suggest_candidate(model, 0.0, 1, np.random.default_rng(5), kappa=kappa)
        assert any(np.array_equal(pick, c) for c in cands)
        _, s = model.predict(pick[None, :], np.zeros(1))
        picked_std.append(float(s[0]))
        if kappa > 0:
            assert picked_std[-1] >= std.max() - np.ptp(mean) / kappa
    # Raising kappa never lowers the std of the argmax over a fixed set.
    assert picked_std == sorted(picked_std)


def test_suggest_deterministic_given_rng():
    rng = np.random.default_rng(0)
    x = rng.random((6, 2))
    y = rng.random(6)
    model = fit_gp(x, np.zeros(6), y)
    a = suggest_candidate(model, 0.5, 2, np.random.default_rng(9))
    b = suggest_candidate(model, 0.5, 2, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_fit_deterministic():
    rng = np.random.default_rng(4)
    x, t, y = rng.random((8, 2)), rng.random(8), rng.random(8)
    m1 = fit_gp(x, t, y)
    m2 = fit_gp(x, t, y)
    assert m1.length_scale_config == m2.length_scale_config
    assert m1.length_scale_time == m2.length_scale_time
    assert m1.log_marginal_likelihood == m2.log_marginal_likelihood


def test_time_dimension_matters():
    # same configs at different times with different outcomes must be separable
    x = np.array([[0.5], [0.5], [0.5], [0.5]])
    t = np.array([0.0, 0.33, 0.66, 1.0])
    y = np.array([1.0, 0.6, 0.3, 0.1])
    model = fit_gp(x, t, y, noise_variance=1e-6)
    early, _ = model.predict(np.array([[0.5]]), np.array([0.0]))
    late, _ = model.predict(np.array([[0.5]]), np.array([1.0]))
    assert float(early[0]) > float(late[0])


# ---------------------------------------------------------------------------
# Bit pins: sha256 of what a fit keeps and of predictions, recorded from the
# code that factors each grid cell's kernel bordered by the targets and keeps
# the inverse of the winning cell's factor


def _case_inputs(n, offset=0.0, grid_scale=1.0, noise_variance=1e-4):
    rng = np.random.default_rng(n)
    x = offset + rng.random((n, 3)) * (0.05 if offset else 1.0)
    t = rng.integers(1, 11, n) / 10.0  # PBT's interval times
    y = rng.standard_normal(n)
    grid = np.geomspace(0.05, 2.0, 5) * grid_scale
    return (x, t, y, noise_variance), {"length_scale_grid": grid, "time_scale_grid": grid}


def _case(*case):
    args, kwargs = _case_inputs(*case)
    return fit_gp(*args, **kwargs)


def _fit_digest(model):
    h = hashlib.sha256()
    for a in (model._inv_chol, model._alpha):
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(repr((model.log_marginal_likelihood, model.length_scale_config,
                   model.length_scale_time)).encode())
    return h.hexdigest()


FIT_PINS = {
    (2, 0.0, 1.0, 1e-4): "a574b19b7e0b58c1a5ee6a8b45f2457d5b19d3d700ea1a62c8ef7e3b2db26822",
    (16, 0.0, 1.0, 1e-4): "4bccdf40cced5770823c968262b4ed0a2918d3e90c40209b96b804ed501029b8",
    (128, 0.0, 0.8, 1e-4): "aa6bb2d083c4e31477b7b6c72f00c2fddf824f066dbe097dd8307a1cc9e7b387",
    # points 1e4 from the origin lose the distance bits that keep the kernel
    # positive definite, so the Cholesky factorisations escalate jitter
    (24, 1e4, 1.0, 1e-12): "bcf9c2b33f610699473389dd278913ddc3dc50083046c9b27dd2f60ee1c7fddd",
}


@pytest.mark.parametrize("case", sorted(FIT_PINS))
def test_fit_keeps_its_pinned_bits(case):
    assert _fit_digest(_case(*case)) == FIT_PINS[case]


def _recorded_factorisations(monkeypatch, fn, *args, **kwargs):
    """(size, succeeded) of every Cholesky factorisation ``fn`` runs."""
    calls = []
    real_cholesky = np.linalg.cholesky

    def recording(k):
        try:
            factor = real_cholesky(k)
        except np.linalg.LinAlgError:
            calls.append((len(k), False))
            raise
        calls.append((len(k), True))
        return factor

    with monkeypatch.context() as patched:
        patched.setattr(np.linalg, "cholesky", recording)
        fn(*args, **kwargs)
    return calls


def test_the_pinned_jitter_case_escalates(monkeypatch):
    args, kwargs = _case_inputs(24, 1e4, 1.0, 1e-12)
    calls = _recorded_factorisations(monkeypatch, fit_gp, *args, **kwargs)
    grid_calls = [ok for size, ok in calls if size == 25]  # K bordered by the targets
    assert len(grid_calls) > 25  # more than one factorisation per grid point
    assert grid_calls.count(True) == 25


PREDICT_PINS = {
    "constant": "d1deafa64cce80aa5309d9b92c459d1065783e7e23ca3d2517cad177c92850d3",
    "mixed": "da5a2c80e9395f95fca4acfb333d66c849e26756aead0a128a7f64d6626c1f86",
}


@pytest.mark.parametrize("times", sorted(PREDICT_PINS))
def test_predict_keeps_its_pinned_bits(times):
    model = _case(16)
    rng = np.random.default_rng(7)
    cands = rng.random((1000, 3))
    t = np.full(1000, 0.7) if times == "constant" else rng.integers(1, 11, 1000) / 10.0
    mean, std = model.predict(cands, t)
    digest = hashlib.sha256(mean.tobytes() + std.tobytes()).hexdigest()
    assert digest == PREDICT_PINS[times]


# ---------------------------------------------------------------------------
# The fit as it was before the bordered factor: per grid cell a Cholesky
# factorisation of K, then two LU solves on the factor for alpha, and a
# prediction that solves against the factor. The bordered factor and the
# stored inverse must choose the same cell and agree with it to rounding.


def _reference_fit(x_config, x_time, y, noise_variance, length_scale_grid, time_scale_grid):
    n = len(y)
    mu, scale = float(np.mean(y)), float(np.std(y)) or 1.0
    yn = (y - mu) / scale
    sq = gp_module._sq_dists(x_config, x_config)
    dt = (x_time[:, None] - x_time[None, :]) ** 2
    best = None
    for lc in length_scale_grid:
        for lt in time_scale_grid:
            k = np.exp(-0.5 * sq / lc**2) * np.exp(-0.5 * dt / lt**2) + noise_variance * np.eye(n)
            for jitter in _JITTERS:
                try:
                    chol = np.linalg.cholesky(k + jitter * np.eye(n))
                except np.linalg.LinAlgError:
                    continue
                alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, yn))
                lml = (
                    -0.5 * float(yn @ alpha)
                    - float(np.sum(np.log(np.diag(chol))))
                    - 0.5 * n * math.log(2.0 * math.pi)
                )
                if best is None or lml > best["lml"]:
                    best = {"lml": lml, "lc": float(lc), "lt": float(lt), "chol": chol,
                            "alpha": alpha, "mu": mu, "scale": scale}
                break
    return best


def _reference_predict(ref, x_config, x_time, model):
    sq = gp_module._sq_dists(x_config, model.x_config)
    times, rows = np.unique(x_time, return_inverse=True)
    dt = (times[:, None] - model.x_time[None, :]) ** 2
    ks = (np.exp(-0.5 * sq / ref["lc"] ** 2)
          * np.exp(-0.5 * dt / ref["lt"] ** 2)[rows])
    mean = ks @ ref["alpha"]
    sol = np.linalg.solve(ref["chol"], ks.T)
    var = np.maximum(1.0 - np.sum(sol * sol, axis=0), 0.0)
    return mean * ref["scale"] + ref["mu"], np.sqrt(var) * ref["scale"]


@pytest.mark.parametrize("case", sorted(FIT_PINS))
def test_fit_agrees_with_the_two_solve_reference(case):
    args, kwargs = _case_inputs(*case)
    model = fit_gp(*args, **kwargs)
    ref = _reference_fit(*args, **kwargs)
    assert (model.length_scale_config, model.length_scale_time) == (ref["lc"], ref["lt"])
    assert model.log_marginal_likelihood == pytest.approx(ref["lml"], rel=1e-9)
    np.testing.assert_allclose(model._alpha, ref["alpha"], rtol=1e-9, atol=0)
    x, t = args[0], args[1]
    rng = np.random.default_rng(7)
    # queries around the data (the offset case's points span 0.05), at one
    # time and at mixed times
    queries = x[0] + (rng.random((200, x.shape[1])) - 0.5) * np.ptp(x, axis=0)
    for tq in (np.full(200, 0.7), rng.integers(1, 11, 200) / 10.0):
        mean, std = model.predict(queries, tq)
        ref_mean, ref_std = _reference_predict(ref, queries, tq, model)
        np.testing.assert_allclose(mean, ref_mean, rtol=1e-9, atol=0)
        np.testing.assert_allclose(std, ref_std, rtol=1e-9, atol=0)
    # at the data the normalized variance 1 - sum(sol**2) is a difference of
    # nearly equal numbers, so both forms carry an absolute error of a few
    # ulps of 1 and agree to that, not to a share of the tiny result
    mean, std = model.predict(x, t)
    ref_mean, ref_std = _reference_predict(ref, x, t, model)
    np.testing.assert_allclose(mean, ref_mean, rtol=1e-9, atol=0)
    np.testing.assert_allclose((std / model.y_scale) ** 2, (ref_std / model.y_scale) ** 2,
                               rtol=0, atol=1e-13)


@pytest.mark.parametrize("case", sorted(FIT_PINS))
def test_the_bordered_corner_never_changes_a_cells_jitter(monkeypatch, case):
    """Each cell's factorisations fail and succeed in the same order whether
    K is factored alone or bordered by the targets, so every cell settles on
    the same jitter, and the fit runs no other factorisation."""
    args, kwargs = _case_inputs(*case)
    n = len(args[2])
    bordered = _recorded_factorisations(monkeypatch, fit_gp, *args, **kwargs)
    alone = _recorded_factorisations(monkeypatch, _reference_fit, *args, **kwargs)
    assert [ok for size, ok in bordered if size == n + 1] == [ok for _, ok in alone]
    assert all(size == n + 1 for size, _ in bordered)
