"""Closed-form values, continuity, monotonicity, and the spec syntax."""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftcf import decay
from driftcf.decay import (
    Constant,
    DecayParseError,
    Exponential,
    Logistic,
    Outraday,
    Piecewise,
    Window,
    eval_decay,
    format_decay,
    parse_decay,
)
from driftcf.evaluation import ParamGrid

TOL = 1e-12


class TestSpotValues:
    def test_constant(self):
        assert eval_decay(Constant(), 0) == 1.0
        assert eval_decay(Constant(), 10**9) == 1.0

    def test_piecewise_plateau_boundaries_are_exactly_one(self):
        spec = Piecewise(5e4, 1e6, 0.6, 0.3)
        assert eval_decay(spec, 5 * 10**4) == 1.0
        assert eval_decay(spec, 10**6) == 1.0

    def test_piecewise_long_branch(self):
        spec = Piecewise(5e4, 1e6, 0.6, 0.3)
        assert abs(eval_decay(spec, 10**7) - 10.0 ** -0.3) < TOL

    def test_piecewise_short_branch(self):
        spec = Piecewise(5e4, 1e6, 0.6, 0.3)
        assert abs(eval_decay(spec, 5000) - 10.0 ** 0.6) < TOL * 10.0 ** 0.6

    def test_exponential(self):
        spec = Exponential(5e4)
        assert eval_decay(spec, 0) == 1.0
        assert abs(eval_decay(spec, 5 * 10**4) - math.exp(-1.0)) < TOL

    def test_logistic(self):
        spec = Logistic(3e4, b=5.0)
        assert abs(eval_decay(spec, 0) - 1.0 / (1.0 + math.exp(-5.0))) < TOL
        assert abs(eval_decay(spec, 5 * 30000) - 0.5) < TOL

    def test_window(self):
        spec = Window(1e7)
        assert eval_decay(spec, 10**7) == 1.0
        assert eval_decay(spec, 10**7 + 1) == 0.0

    def test_outraday(self):
        spec = Outraday(0.9)
        assert eval_decay(spec, 86399) == 1.0
        assert abs(eval_decay(spec, 864000) - 10.0 ** -0.9) < TOL


class TestPiecewiseShape:
    def test_age_floor_clamps_below_one_second(self):
        spec = Piecewise(5e4, 1e6, 0.6, 0.3)
        assert eval_decay(spec, 0) == eval_decay(spec, 1)

    def test_branch_continuity(self):
        for spec in (
            Piecewise(5e4, 1e6, 0.6, 0.3),
            Piecewise(1e4, 1e6, 1.0, 1.0),
            Piecewise(100.0, 5e5, 0.1, 0.1),
        ):
            assert eval_decay(spec, spec.t_s) == 1.0
            assert eval_decay(spec, spec.t_l) == 1.0
            # one-second steps across each junction move by O(K/T)
            assert abs(eval_decay(spec, spec.t_s - 1) - 1.0) < 2 * spec.k_s / spec.t_s
            assert abs(eval_decay(spec, spec.t_l + 1) - 1.0) < 2 * spec.k_l / spec.t_l

    def test_degenerate_plateau(self):
        spec = Piecewise(1e4, 1e4, 0.5, 0.5)
        assert eval_decay(spec, 1e4) == 1.0
        assert eval_decay(spec, 5e3) > 1.0
        assert eval_decay(spec, 2e4) < 1.0


def _random_spec(rng: random.Random, family: str):
    if family == "constant":
        return Constant()
    if family == "window":
        return Window(10 ** rng.uniform(2, 8))
    if family == "logistic":
        return Logistic(10 ** rng.uniform(0, 8))
    if family == "exp":
        return Exponential(10 ** rng.uniform(0, 8))
    if family == "outraday":
        return Outraday(rng.uniform(0.1, 2.0))
    t_s = 10 ** rng.uniform(2, 5)
    t_l = 10 ** rng.uniform(math.log10(5e5), math.log10(5e7))
    return Piecewise(t_s, t_l, rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0))


FAMILIES = ("constant", "window", "logistic", "exp", "outraday", "piecewise")


def assert_non_increasing(spec, ages):
    previous = None
    for age in ages:
        w = eval_decay(spec, age)
        assert w >= 0.0
        if previous is not None:
            assert w <= previous * (1.0 + 1e-12) + 1e-300, (spec, age)
        previous = w


class TestMonotonicity:
    def test_random_draws_non_increasing_on_age_range(self):
        rng = random.Random(20260808)
        base = sorted({int(a) for a in np.geomspace(1, 10**9, 150)})
        draws_per_family = 1000 // len(FAMILIES) + 1
        for family in FAMILIES:
            for _ in range(draws_per_family):
                spec = _random_spec(rng, family)
                ages = set(base)
                for t in ("t_w", "t_g", "t_e", "t_s", "t_l"):
                    value = getattr(spec, t, None)
                    if value is not None:
                        ages.update(
                            max(1, int(value) + d) for d in (-1, 0, 1)
                        )
                ages.add(86399)
                ages.add(86400)
                assert_non_increasing(spec, sorted(ages))


class TestArrayWeights:
    def test_array_weights_equal_scalar_eval_bit_for_bit(self):
        grid = ParamGrid.default(points_per_param=4)
        base = {int(a) for a in np.geomspace(1, 10**9, 300)} | {0, 86399, 86400, 86401}
        for _family, _params, spec in grid.specs():
            ages = set(base)
            for name in ("t_w", "t_g", "t_e", "t_s", "t_l"):
                value = getattr(spec, name, None)
                if value is not None:
                    ages.update(max(0, int(value) + d) for d in (-1, 0, 1))
            ages = np.array(sorted(ages), dtype=float)
            weights = spec.weight(ages)
            assert weights.shape == ages.shape
            for age, w in zip(ages, weights):
                assert float(w).hex() == eval_decay(spec, float(age)).hex(), (spec, age)


class TestValidation:
    def test_negative_age_rejected(self):
        with pytest.raises(ValueError):
            eval_decay(Constant(), -1)

    def test_nonpositive_time_scales_rejected(self):
        for bad in (Window, Exponential, Logistic):
            with pytest.raises(ValueError):
                bad(0.0)
        with pytest.raises(ValueError):
            Piecewise(0.0, 1e6, 0.5, 0.5)

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            Outraday(-0.1)
        with pytest.raises(ValueError):
            Piecewise(1e4, 1e6, -0.5, 0.5)

    def test_ts_above_tl_rejected(self):
        with pytest.raises(ValueError):
            Piecewise(1e7, 1e6, 0.5, 0.5)

    def test_extreme_ages_do_not_overflow(self):
        assert eval_decay(Logistic(1.0), 10**9) == 0.0
        assert eval_decay(Exponential(1.0), 10**9) == 0.0


# Spec strings carry 12 significant digits, so draws are rounded to that.
_BOUND_STRATEGIES = {
    "positive": st.floats(min_value=1e-9, max_value=1e12),
    "nonnegative": st.floats(min_value=0.0, max_value=1e12),
    None: st.floats(min_value=-1e12, max_value=1e12),
}


@st.composite
def valid_specs(draw):
    """Any spec of any registered family, with spec-string-exact values."""
    spec_class = draw(st.sampled_from(list(decay.FAMILIES.values())))
    values = {
        f.name: float(format(draw(_BOUND_STRATEGIES[f.metadata["bound"]]), ".12g"))
        for f in dataclasses.fields(spec_class)
    }
    if spec_class is Piecewise and values["t_s"] > values["t_l"]:
        values["t_s"], values["t_l"] = values["t_l"], values["t_s"]
    return spec_class(**values)


class TestSpecSyntax:
    CASES = (
        ("constant", Constant()),
        ("window:Tw=1e7", Window(1e7)),
        ("logistic:Tg=3e4,b=5", Logistic(3e4, 5.0)),
        ("exp:Te=5e4", Exponential(5e4)),
        ("outraday:Ko=0.9", Outraday(0.9)),
        ("piecewise:Ts=5e4,Tl=1e6,Ks=0.6,Kl=0.3", Piecewise(5e4, 1e6, 0.6, 0.3)),
    )

    def test_parse(self):
        for text, expected in self.CASES:
            assert parse_decay(text) == expected

    @given(valid_specs())
    def test_format_round_trip(self, spec):
        assert parse_decay(format_decay(spec)) == spec

    def test_logistic_b_defaults_to_five(self):
        assert parse_decay("logistic:Tg=100") == Logistic(100.0, 5.0)

    def test_unknown_family_named(self):
        with pytest.raises(DecayParseError, match="powerlaw"):
            parse_decay("powerlaw:K=1")

    def test_unknown_key_named(self):
        with pytest.raises(DecayParseError, match="tq"):
            parse_decay("exp:Tq=5")

    def test_missing_key_named(self):
        with pytest.raises(DecayParseError, match="Tl"):
            parse_decay("piecewise:Ts=5e4,Ks=0.6,Kl=0.3")

    def test_bad_value_named(self):
        with pytest.raises(DecayParseError, match="Te"):
            parse_decay("exp:Te=abc")

    def test_duplicate_key_named(self):
        with pytest.raises(DecayParseError, match="Te"):
            parse_decay("exp:Te=1,Te=2")

    def test_invalid_parameter_value_reported(self):
        with pytest.raises(DecayParseError, match="Tw"):
            parse_decay("window:Tw=-5")

    @pytest.mark.parametrize(
        "text", ["outraday:Ko=nan", "logistic:Tg=1e4,b=nan", "piecewise:Ts=inf,Tl=inf,Ks=1,Kl=1"]
    )
    def test_non_finite_value_reported(self, text):
        with pytest.raises(DecayParseError, match="must be finite"):
            parse_decay(text)

    def test_family_name(self):
        assert Piecewise(5e4, 1e6, 0.6, 0.3).family == "piecewise"
        assert Constant().family == "constant"

    def test_constant_formats_without_colon(self):
        assert format_decay(Constant()) == "constant"
