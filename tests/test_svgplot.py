"""The scan plot's own checks, which ``phase_scan`` never trips."""

import pytest

from qtimeloop.svgplot import polyline_plot


def test_one_point_is_refused():
    with pytest.raises(ValueError, match="^need at least two samples$"):
        polyline_plot([(0.0, 1.0)], title="t")


def test_points_of_one_phi_are_refused():
    with pytest.raises(ValueError, match="^x range is degenerate$"):
        polyline_plot([(0.5, 1.0), (0.5, 0.2)], title="t")


def test_title_is_escaped():
    svg = polyline_plot([(0.0, 1.0), (1.0, 0.5)], title="a<b & c>")
    assert ">a&lt;b &amp; c&gt;</text>" in svg
    assert "a<b" not in svg
