"""The redesigned router constructors."""

import warnings

from repro.config import ColoringMethod, RouterConfig, TrackMethod
from repro.api import BaselineRouter, StitchAwareRouter


class TestConfigConstructor:
    def test_default_config(self):
        router = StitchAwareRouter()
        assert router.config == RouterConfig()
        assert router.config.track_method is TrackMethod.GRAPH
        assert router.config.coloring is ColoringMethod.FLOW
        assert router.config.stitch_aware_global is True
        assert router.config.stitch_aware_detail is True

    def test_explicit_config_does_not_warn(self):
        config = RouterConfig(
            track_method=TrackMethod.ILP, coloring=ColoringMethod.MST
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            router = StitchAwareRouter(config=config)
        assert router.config is config
        assert router.config.track_method is TrackMethod.ILP

    def test_baseline_pins_policy_flags(self):
        router = BaselineRouter()
        assert router.config.track_method is TrackMethod.BASELINE
        assert router.config.coloring is ColoringMethod.MST
        assert router.config.stitch_aware_global is False
        assert router.config.stitch_aware_detail is False

    def test_baseline_keeps_geometry_overrides(self):
        config = RouterConfig(stitch_spacing=21, tile_size=21)
        router = BaselineRouter(config=config)
        assert router.config.stitch_spacing == 21
        assert router.config.track_method is TrackMethod.BASELINE

    def test_config_accepts_policy_strings(self):
        config = RouterConfig(track_method="ilp", coloring="mst")
        assert config.track_method is TrackMethod.ILP
        assert config.coloring is ColoringMethod.MST
