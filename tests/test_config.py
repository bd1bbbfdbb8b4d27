"""MercedConfig validation and the error hierarchy."""

import pytest

from repro import MercedConfig, ReproError
from repro.errors import (
    BenchParseError,
    CBITError,
    ConfigError,
    GraphError,
    IllegalRetimingError,
    InfeasiblePartitionError,
    NetlistError,
    PartitionError,
    RetimingError,
    SimulationError,
)


class TestConfig:
    def test_paper_defaults(self):
        cfg = MercedConfig()
        assert cfg.lk == 16
        assert cfg.delta == 0.01
        assert cfg.alpha == 4.0
        assert cfg.cap == 1.0
        assert cfg.min_visit == 20
        assert cfg.beta == 50

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lk": 0},
            {"delta": 0},
            {"alpha": -1},
            {"cap": 0},
            {"min_visit": 0},
            {"beta": 0},
            {"max_sources": 0},
            # NaN slips past every "<= 0" check, inf past the lower bounds
            {"delta": float("nan")},
            {"alpha": float("nan")},
            {"alpha": float("inf")},
            {"cap": float("inf")},
            {"optimize_budget": float("nan")},
            {"optimize_budget": float("inf")},
            {"lk": float("nan")},
            # wrong JSON types from a service submission
            {"lk": 3.5},
            {"merge_clusters": "no"},
            {"seed": 7.0},
            {"beta": True},
            {"min_visit": 2.5},
            {"max_sources": 10.5},
            {"optimize_budget": True},
            {"delta": "0.01"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            MercedConfig(**kwargs)

    @pytest.mark.parametrize(
        "field", ["delta", "alpha", "cap", "optimize_budget"]
    )
    def test_int_beyond_the_float_range_rejected(self, field):
        """An int no float can hold used to pass the type check and then
        raise an untyped OverflowError in the flow (``delta``) or compile
        silently (``alpha``, ``cap``)."""
        with pytest.raises(ConfigError, match=f"{field} must be a finite"):
            MercedConfig(**{field: 10**400})

    def test_int_accepted_for_float_fields(self):
        cfg = MercedConfig(delta=1, alpha=4, cap=2, optimize_budget=3)
        assert cfg.canonical_dict()["delta"] == 1

    def test_with_helpers(self):
        cfg = MercedConfig()
        assert cfg.with_lk(24).lk == 24
        assert cfg.with_seed(None).seed is None
        assert cfg.with_beta(2).beta == 2
        assert cfg.lk == 16  # original unchanged (frozen)

    def test_frozen(self):
        with pytest.raises(Exception):
            MercedConfig().lk = 24


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            NetlistError,
            BenchParseError,
            GraphError,
            PartitionError,
            InfeasiblePartitionError,
            RetimingError,
            IllegalRetimingError,
            CBITError,
            SimulationError,
            ConfigError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_specializations(self):
        assert issubclass(InfeasiblePartitionError, PartitionError)
        assert issubclass(IllegalRetimingError, RetimingError)
        assert issubclass(BenchParseError, NetlistError)

    def test_bench_error_carries_position(self):
        err = BenchParseError("bad token", line_no=7, line="x = FOO(y)")
        assert err.line_no == 7
        assert "line 7" in str(err)
