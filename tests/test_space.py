import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from autotune.space import (
    CATEGORICAL,
    CONTINUOUS,
    INTEGER,
    LOG,
    ConfigSpace,
    Configuration,
    SpaceError,
    SpaceParseError,
    categorical,
    continuous,
    from_unit,
    integer,
    log_continuous,
    parse_space,
    perturb,
    render_space,
    sample,
    to_unit,
)
from autotune import space as space_module
from autotune.space import _decode_one, _invert_decode

sys.path.insert(0, os.path.dirname(__file__))
from reference_space import reference_invert_decode  # noqa: E402


class ForcedRng:
    """Generator stub that replays a fixed transcript of uniforms."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self, size=None):
        if size is None:
            return self.draws.pop(0)
        out = np.array([self.draws.pop(0) for _ in range(size)])
        return out


# ---------------------------------------------------------------------------
# parsing


def test_parse_log_param():
    space = parse_space("learning_rate: log(1e-6, 0.1)\n")
    p = space["learning_rate"]
    assert p.kind == LOG
    assert p.lower == 1e-6 and p.upper == 0.1


def test_parse_integer_param():
    space = parse_space("n_epochs: int[5, 20]")
    p = space["n_epochs"]
    assert p.kind == INTEGER
    assert p.lower == 5 and p.upper == 20
    assert p.n_values == 16


def test_parse_continuous_and_categorical():
    text = """
    # comment line
    ent_coef: (0.0, 0.5)   # trailing comment
    batch_size: {16, 32, 64, 128}
    """
    space = parse_space(text)
    assert space.dimension == 2
    assert space["ent_coef"].kind == CONTINUOUS
    assert space["batch_size"].choices == ("16", "32", "64", "128")


def test_parse_bounds_error_reports_line():
    with pytest.raises(SpaceParseError) as err:
        parse_space("x: (1.0, 0.5)")
    assert "line 1" in str(err.value)
    assert err.value.line == 1


def test_parse_log_lower_must_be_positive():
    with pytest.raises(SpaceParseError):
        parse_space("lr: log(0.0, 0.1)")


def test_parse_duplicate_name():
    with pytest.raises(SpaceParseError, match="duplicate"):
        parse_space("a: (0, 1)\na: (1, 2)")


def test_parse_syntax_error_column():
    with pytest.raises(SpaceParseError) as err:
        parse_space("a: wat(0, 1)")
    assert err.value.line == 1
    assert err.value.column > 1


def test_parse_integer_bounds_must_be_whole():
    with pytest.raises(SpaceParseError):
        parse_space("n: int[1, 2.5]")


def test_parse_scientific_integer_bounds():
    space = parse_space("train_freq: int[1, 1e3]")
    assert space["train_freq"].upper == 1000


def test_render_parse_round_trip():
    text = (
        "learning_rate: log(1e-06, 0.1)\n"
        "ent_coef: (0.0, 0.5)\n"
        "n_epochs: int[5, 20]\n"
        "batch_size: {16, 32, 64, 128}\n"
    )
    space = parse_space(text)
    rendered = render_space(space)
    again = parse_space(rendered)
    assert again == space
    assert render_space(again) == rendered


def test_empty_space_rejected():
    with pytest.raises(SpaceParseError):
        parse_space("# nothing here\n")


def test_categorical_needs_two_choices():
    with pytest.raises(SpaceError):
        categorical("c", ["only"])


# ---------------------------------------------------------------------------
# sampling marginals


def test_sample_forced_categorical_draw():
    space = ConfigSpace([categorical("c", ["a", "b"])])
    cfg = sample(space, ForcedRng([0.2]))
    assert cfg["c"] == "a"
    cfg = sample(space, ForcedRng([0.9]))
    assert cfg["c"] == "b"


def test_sample_log_uniform_decades():
    # log(1e-6, 1e-2) spans 4 decades; each decade should get ~25% of draws
    space = ConfigSpace([log_continuous("lr", 1e-6, 1e-2)])
    rng = np.random.default_rng(7)
    draws = [sample(space, rng)["lr"] for _ in range(10_000)]
    below = sum(1 for v in draws if v < 1e-5)
    assert abs(below / 10_000 - 0.25) < 0.02
    edges = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2]
    counts = np.histogram(draws, bins=edges)[0]
    chi2 = float(np.sum((counts - 2500.0) ** 2 / 2500.0))
    assert chi2 < stats.chi2.isf(0.001, df=3)


def test_sample_integer_uniform_frequencies():
    space = ConfigSpace([integer("n", 5, 20)])
    rng = np.random.default_rng(11)
    draws = [sample(space, rng)["n"] for _ in range(16_000)]
    counts = np.bincount(draws, minlength=21)[5:21]
    assert counts.sum() == 16_000
    assert all(800 < c < 1200 for c in counts)
    chi2 = float(np.sum((counts - 1000.0) ** 2 / 1000.0))
    assert chi2 < stats.chi2.isf(0.001, df=15)


def test_sample_continuous_uniform():
    space = ConfigSpace([continuous("x", -2.0, 6.0)])
    rng = np.random.default_rng(3)
    draws = np.array([sample(space, rng)["x"] for _ in range(10_000)])
    assert draws.min() >= -2.0 and draws.max() <= 6.0
    counts = np.histogram(draws, bins=np.linspace(-2, 6, 9))[0]
    chi2 = float(np.sum((counts - 1250.0) ** 2 / 1250.0))
    assert chi2 < stats.chi2.isf(0.001, df=7)


def test_sample_deterministic_given_rng_state():
    space = parse_space("a: (0, 1)\nb: log(1e-3, 1)\nc: int[0, 9]\nd: {x, y, z}")
    c1 = sample(space, np.random.default_rng(42))
    c2 = sample(space, np.random.default_rng(42))
    assert c1 == c2


# ---------------------------------------------------------------------------
# unit-cube encoding


def test_to_unit_continuous_midpoint():
    space = ConfigSpace([continuous("x", 0.0, 10.0)])
    assert to_unit(space, Configuration({"x": 5.0}))[0] == 0.5


def test_to_unit_log_midpoint():
    space = ConfigSpace([log_continuous("x", 1e-6, 1e-2)])
    u = to_unit(space, Configuration({"x": 1e-4}))[0]
    assert u == pytest.approx(0.5, abs=1e-12)


def test_to_unit_integer_bin_center():
    space = ConfigSpace([integer("n", 5, 20)])
    assert to_unit(space, Configuration({"n": 5}))[0] == 0.03125  # (0 + 0.5) / 16


def test_from_unit_integer_inverse():
    space = ConfigSpace([integer("n", 5, 20)])
    assert from_unit(space, [0.03125])["n"] == 5
    assert from_unit(space, [1.0])["n"] == 20


def test_from_unit_categorical_last_bin():
    space = ConfigSpace([categorical("c", ["p", "q", "r", "s"])])
    assert from_unit(space, [0.99])["c"] == "s"
    assert from_unit(space, [0.0])["c"] == "p"


def test_from_unit_rejects_out_of_range():
    space = ConfigSpace([continuous("x", 0.0, 1.0)])
    with pytest.raises(SpaceError):
        from_unit(space, [1.5])


def test_to_unit_rejects_mismatched_config():
    space = ConfigSpace([continuous("x", 0.0, 1.0)])
    with pytest.raises(SpaceError):
        to_unit(space, Configuration({"y": 0.5}))
    with pytest.raises(SpaceError):
        to_unit(space, Configuration({"x": 2.0}))


@st.composite
def spaces(draw):
    params = []
    n = draw(st.integers(min_value=1, max_value=4))
    for i in range(n):
        kind = draw(st.sampled_from([CONTINUOUS, LOG, INTEGER, CATEGORICAL]))
        if kind == CONTINUOUS:
            lo = draw(st.floats(-50, 50))
            width = draw(st.floats(0.01, 100))
            params.append(continuous(f"p{i}", lo, lo + width))
        elif kind == LOG:
            lo = draw(st.floats(1e-8, 1.0))
            factor = draw(st.floats(1.5, 1e6))
            params.append(log_continuous(f"p{i}", lo, lo * factor))
        elif kind == INTEGER:
            lo = draw(st.integers(-100, 100))
            span = draw(st.integers(1, 200))
            params.append(integer(f"p{i}", lo, lo + span))
        else:
            size = draw(st.integers(2, 6))
            params.append(categorical(f"p{i}", [f"c{j}" for j in range(size)]))
    return ConfigSpace(params)


@settings(max_examples=200, deadline=None)
@given(spaces(), st.integers(0, 2**31 - 1))
def test_round_trip_exact_on_sampled_configs(space, seed):
    cfg = sample(space, np.random.default_rng(seed))
    assert from_unit(space, to_unit(space, cfg)) == cfg


def test_round_trip_bulk_mixed_space():
    space = parse_space(
        "lr: log(1e-06, 0.1)\nent: (0.0, 0.5)\nep: int[5, 20]\nbs: {16, 32, 64, 128}"
    )
    rng = np.random.default_rng(0)
    for _ in range(2_000):
        cfg = sample(space, rng)
        assert from_unit(space, to_unit(space, cfg)) == cfg


def test_round_trip_exhaustive_integer_categorical():
    space = ConfigSpace([integer("n", -3, 12), categorical("c", ["a", "b", "c"])])
    for n in range(-3, 13):
        for c in "abc":
            cfg = Configuration({"n": n, "c": c})
            assert from_unit(space, to_unit(space, cfg)) == cfg


@st.composite
def ranged_params(draw):
    """Continuous and log parameters whose lower bound is not 0."""
    if draw(st.booleans()):
        lo = draw(st.floats(-1e3, 1e3).filter(lambda x: x != 0.0))
        return continuous("x", lo, lo + draw(st.floats(1e-6, 1e4)))
    lo = draw(st.floats(1e-12, 1e3))
    return log_continuous("x", lo, lo * draw(st.floats(1.0001, 1e8)))


# unit coordinates at and next to both ends, subnormal, and where the guess
# from (v - lower) / (upper - lower) loses most of its digits
EDGE_UNITS = [0.0, 5e-324, 1e-300, 1e-17, 1e-16, 1.1e-16, 2.2e-16, 3e-16, 1 - 1e-12, 1.0]


@settings(max_examples=500, deadline=None)
@given(
    ranged_params(),
    st.one_of(st.sampled_from(EDGE_UNITS), st.floats(0.0, 1.0), st.floats(0.0, 1e-14)),
    st.sampled_from(["decoded", "next up", "next down", "lower", "upper", "below", "above"]),
)
def test_invert_decode_matches_bisection_reference(p, u, which):
    decoded = _decode_one(p, u)
    v = {
        "decoded": decoded,
        "next up": math.nextafter(decoded, math.inf),  # often not decodable
        "next down": math.nextafter(decoded, -math.inf),
        "lower": p.lower,  # clipped bounds
        "upper": p.upper,
        "below": p.lower - abs(p.lower),
        "above": p.upper * 2,
    }[which]
    got = _invert_decode(p, v)
    want = reference_invert_decode(p, v)
    assert got == want and (got is None) == (want is None)
    if which == "decoded":
        assert got is not None and _decode_one(p, got) == v


def test_invert_decode_guess_far_from_answer(monkeypatch):
    # The guess (v - 0.5) / 0.499 is 2.2e-16, but 1.1e-16 already decodes
    # to v: about 4.5e15 ulps apart, beyond any walk of a few ulps.
    p = continuous("g", 0.5, 0.999)
    v = 0.5000000000000001
    assert _decode_one(p, 3e-16) == v
    calls = []
    decoder = space_module._ranged_decoder

    def counting(q):
        decode = decoder(q)

        def counted(u):
            calls.append(u)
            assert len(calls) < 200, "a walk of single ulps would not end"
            return decode(u)

        return counted

    monkeypatch.setattr(space_module, "_ranged_decoder", counting)
    got = _invert_decode(p, v)
    assert got == reference_invert_decode(p, v) == 1.112447920466089e-16
    assert _decode_one(p, got) == v and _decode_one(p, math.nextafter(got, 0.0)) < v


# ---------------------------------------------------------------------------
# perturb


def test_perturb_identity_when_factors_one():
    space = parse_space("a: (0, 1)\nb: {x, y}")
    cfg = Configuration({"a": 0.5, "b": "x"})
    out = perturb(space, cfg, np.random.default_rng(0), 1.0, 1.0, resample_prob=0.0)
    assert out == cfg


def test_perturb_clips_to_upper_bound():
    space = ConfigSpace([continuous("a", 0.0, 1.0)])
    out = perturb(space, Configuration({"a": 0.9}), np.random.default_rng(0), 1.2, 1.2, 0.0)
    assert out["a"] == 1.0


def test_perturb_direct_multiply_down():
    space = ConfigSpace([continuous("a", 0.0, 1.0)])
    out = perturb(space, Configuration({"a": 0.5}), np.random.default_rng(0), 0.8, 0.8, 0.0)
    assert out["a"] == pytest.approx(0.4)


def test_perturb_integer_moves_at_least_one():
    space = ConfigSpace([integer("n", 0, 100)])
    up = perturb(space, Configuration({"n": 2}), np.random.default_rng(0), 1.1, 1.1, 0.0)
    assert up["n"] == 3  # 2.2 rounds back to 2, minimum step forces 3
    down = perturb(space, Configuration({"n": 2}), np.random.default_rng(0), 0.95, 0.95, 0.0)
    assert down["n"] == 1


def test_perturb_log_acts_on_raw_value():
    space = ConfigSpace([log_continuous("lr", 1e-6, 1.0)])
    out = perturb(space, Configuration({"lr": 1e-3}), np.random.default_rng(0), 1.2, 1.2, 0.0)
    assert out["lr"] == pytest.approx(1.2e-3)


def test_perturb_categorical_resample_probability():
    space = ConfigSpace([categorical("c", ["a", "b", "c", "d"])])
    rng = np.random.default_rng(5)
    changed = 0
    for _ in range(4000):
        out = perturb(space, Configuration({"c": "a"}), rng, 1.0, 1.0, resample_prob=0.5)
        changed += out["c"] != "a"
    # resampling picks uniformly among 4 choices, so P(change) = 0.5 * 3/4
    assert abs(changed / 4000 - 0.375) < 0.03


@settings(max_examples=150, deadline=None)
@given(spaces(), st.integers(0, 2**31 - 1), st.floats(0, 1))
def test_perturb_output_always_valid(space, seed, resample_prob):
    rng = np.random.default_rng(seed)
    cfg = sample(space, rng)
    out = perturb(space, cfg, rng, resample_prob=resample_prob)
    space.validate(out)  # raises on violation


def test_perturb_invalid_args():
    space = ConfigSpace([continuous("a", 0.0, 1.0)])
    cfg = Configuration({"a": 0.5})
    with pytest.raises(SpaceError):
        perturb(space, cfg, np.random.default_rng(0), factor_up=0.0)
    with pytest.raises(SpaceError):
        perturb(space, cfg, np.random.default_rng(0), resample_prob=1.5)
