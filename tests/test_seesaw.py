import pytest

from bellselftest import hardy
from bellselftest.npa.seesaw import seesaw_tilted_hardy


class TestSeesaw:
    @pytest.mark.parametrize("w", [-0.2, 0.0, 0.25, 0.5, 0.75])
    def test_sandwich_against_closed_form(self, w):
        res = seesaw_tilted_hardy(w)
        q = hardy.q_of_w(w)
        assert res.value >= q - 1e-10  # reaches the maximum
        assert res.value <= q + 1e-6   # never exceeds it (valid realization)
        assert res.zero_residual <= 1e-9

    def test_deterministic(self):
        a = seesaw_tilted_hardy(0.1)
        b = seesaw_tilted_hardy(0.1)
        assert a.value == b.value

    def test_value_evaluated_on_realization(self, monkeypatch):
        w = 0.3
        theta, t1 = hardy.stationary_point(w)
        monkeypatch.setattr(hardy, "maximize_tilted",
                            lambda *args, **kwargs: (1.0, theta, t1))
        res = seesaw_tilted_hardy(w)
        assert res.value == pytest.approx(hardy.q_of_w(w), abs=1e-12)
        assert res.zero_residual <= 1e-14
