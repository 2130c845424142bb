"""Tests for RouterConfig validation and benchmark scaling."""

import dataclasses
import math

import pytest

from repro.config import DEFAULT_CONFIG, RouterConfig, benchmark_scale


class TestRouterConfig:
    def test_defaults_match_paper(self):
        assert DEFAULT_CONFIG.stitch_spacing == 15
        assert DEFAULT_CONFIG.epsilon == 1
        assert DEFAULT_CONFIG.escape_width == 4
        assert (DEFAULT_CONFIG.alpha, DEFAULT_CONFIG.beta, DEFAULT_CONFIG.gamma) == (
            1.0,
            10.0,
            5.0,
        )

    def test_fields(self):
        """Geometry, weights, profile and policies; nothing else is settable."""
        assert [f.name for f in dataclasses.fields(RouterConfig)] == [
            "stitch_spacing",
            "epsilon",
            "escape_width",
            "tile_size",
            "alpha",
            "beta",
            "gamma",
            "profile",
            "track_method",
            "coloring",
            "stitch_aware_global",
            "stitch_aware_detail",
        ]

    def test_beta_much_larger_than_gamma(self):
        """Section IV: beta must dominate gamma."""
        assert DEFAULT_CONFIG.beta > DEFAULT_CONFIG.gamma

    def test_tiny_spacing_rejected(self):
        with pytest.raises(ValueError):
            RouterConfig(stitch_spacing=2)

    def test_overlapping_unfriendly_regions_rejected(self):
        with pytest.raises(ValueError):
            RouterConfig(stitch_spacing=5, epsilon=2)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            RouterConfig(alpha=-1.0)

    @pytest.mark.parametrize(
        "field, value", [("alpha", math.nan), ("gamma", math.nan), ("beta", math.inf)]
    )
    def test_nonfinite_weights_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            RouterConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("tile_size", 2.5),
            ("stitch_spacing", 15.5),
            ("epsilon", 1.5),
            ("escape_width", "4"),
        ],
    )
    def test_malformed_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            RouterConfig(**{field: value})

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            RouterConfig(epsilon=-1)

    def test_negative_escape_width_rejected(self):
        with pytest.raises(ValueError, match="escape_width"):
            RouterConfig(escape_width=-3)
        # dataclasses.replace runs __post_init__ too, so a design cannot
        # be handed a negative width past its stitching lines either.
        with pytest.raises(ValueError, match="escape_width"):
            dataclasses.replace(DEFAULT_CONFIG, escape_width=-1)
        assert RouterConfig(escape_width=0).escape_width == 0

    def test_tiny_tile_rejected(self):
        with pytest.raises(ValueError):
            RouterConfig(tile_size=1)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_CONFIG.alpha = 2.0  # type: ignore[misc]


class TestBenchmarkScale:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert benchmark_scale(default=0.2) == 0.2

    def test_full_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        monkeypatch.setenv("REPRO_SCALE", "0.3")
        assert benchmark_scale() == 1.0

    def test_explicit_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        assert benchmark_scale() == 0.25

    def test_oversize_scale_for_speedup_runs(self, monkeypatch):
        # Factors above 1 (up to 100) grow instances beyond the
        # paper's statistics for timing measurements.
        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.setenv("REPRO_SCALE", "10")
        assert benchmark_scale() == 10.0

    def test_invalid_scale_rejected(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        for bad in ("0", "-0.5", "101", "abc", "nan"):
            monkeypatch.setenv("REPRO_SCALE", bad)
            with pytest.raises(ValueError, match="REPRO_SCALE"):
                benchmark_scale()


class TestProfileField:
    def test_default_is_off(self):
        assert DEFAULT_CONFIG.profile == "off"

    def test_accepts_known_levels(self):
        assert RouterConfig(profile="off").profile == "off"
        assert RouterConfig(profile="counters").profile == "counters"

    def test_rejects_unknown_levels(self):
        with pytest.raises(ValueError):
            RouterConfig(profile="verbose")
        with pytest.raises(ValueError, match="'off' or 'counters'"):
            RouterConfig(profile="full")
        with pytest.raises(ValueError):
            RouterConfig(profile=True)
