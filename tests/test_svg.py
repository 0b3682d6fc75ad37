import pytest

from wallnorm import classify, dual_ball, render_svg
from wallnorm.errors import DegenerateBall, WrongGenus
from wallnorm.normball import DualBall


def statuses_of(wmap, basis):
    ball = dual_ball(wmap, basis)
    return ball, [(e.point, e.status) for e in classify(wmap, basis, ball).entries]


def test_svg_g22(g22, b22):
    ball, statuses = statuses_of(g22, b22)
    text = render_svg(ball, statuses)
    assert text.count('fill="#2b6cb0"') == 1
    assert text.count('fill="#c53030"') == 8
    # the polygon passes through the four scaled corners
    assert "<polygon" in text


def test_svg_g11(g11, b11):
    ball, statuses = statuses_of(g11, b11)
    text = render_svg(ball, statuses)
    assert text.count('fill="#2b6cb0"') == 0
    assert text.count('fill="#c53030"') == 4
    # origin marker: empty (white) circle
    assert text.count('fill="#ffffff" stroke=') == 1


def test_svg_wrong_genus(genus2, genus2_basis):
    ball = dual_ball(genus2, genus2_basis)
    with pytest.raises(WrongGenus):
        render_svg(ball, [])


def test_svg_rejects_empty_class_set():
    # guarded error path: a corrupted cache could hand over an empty ball
    corrupt = DualBall(points=(), extreme=(), dim=-1)
    with pytest.raises(DegenerateBall):
        render_svg(corrupt, [])


def test_svg_scale_is_32_pixels_per_unit(g22, b22):
    ball, statuses = statuses_of(g22, b22)
    text = render_svg(ball, statuses)
    # bounding box [-2,2] plus one unit margin on each side: 6 units = 192 px
    assert 'width="192" height="192"' in text
