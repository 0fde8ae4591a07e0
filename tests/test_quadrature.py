"""Row-batched adaptive Gauss-Kronrod engine: per-row policy, batching, failures."""

import math

import numpy as np
import pytest

from qcheat.quadrature import ToleranceError, adaptive_gk, composite_gk_nodes, gk_rows

# row r integrates exp(-c_r x) cos(w_r x) on [0, b_r]
C = np.array([1.0, 0.3, 2.0, 0.5])
W = np.array([0.0, 7.0, 1.0, 25.0])
B = np.array([5.0, 9.0, 2.0, 6.0])


def integrand(rows, x):
    return np.exp(-C[rows, None] * x) * np.cos(W[rows, None] * x)


def exact(r):
    c, w, b = C[r], W[r], B[r]
    z = complex(-c, w)
    return ((np.exp(z * b) - 1.0) / z).real


def test_rows_match_one_row_calls_bit_for_bit():
    out = gk_rows(integrand, [0.0] * 4, B, 1e-10, [1e-13] * 4, 100_000, [4, 4, 6, 4])
    for r, (value, err, n_evals) in enumerate(out):
        one = lambda x, r=r: np.exp(-C[r] * x) * np.cos(W[r] * x)
        mp = 6 if r == 2 else 4
        assert (value, err, n_evals) == adaptive_gk(one, 0.0, B[r], 1e-10, 1e-13, 100_000, mp)
        assert abs(value - exact(r)) <= err + 1e-14  # the rule's weights carry 15 digits


def test_one_integrand_call_per_round():
    calls = []

    def counted(rows, x):
        calls.append(len(rows))
        return integrand(rows, x)

    min_panels = [4, 4, 6, 4]
    out = gk_rows(counted, [0.0] * 4, B, 1e-10, [1e-13] * 4, 100_000, min_panels)
    splits = [(n_evals - 15 * mp) // 30 for (_, _, n_evals), mp in zip(out, min_panels)]
    # all initial panels first, then one call per round of splits
    assert len(calls) == 1 + max(splits)
    assert calls[0] == sum(min_panels)
    assert all(size % 2 == 0 for size in calls[1:])


def test_panel_slices_change_no_bit(monkeypatch):
    import qcheat.quadrature as quadrature_mod

    args = (integrand, [0.0] * 4, B, 1e-10, [1e-13] * 4, 100_000, [4, 40, 6, 4])
    whole = gk_rows(*args)
    monkeypatch.setattr(quadrature_mod, "_PANEL_CHUNK", 5)
    assert gk_rows(*args) == whole


def test_failing_row_is_reported_alone():
    out = gk_rows(integrand, [0.0] * 4, B, 1e-14, [1e-300] * 4, 200, [4, 4, 4, 4])
    for r, res in enumerate(out):
        if isinstance(res, ToleranceError):
            assert res.value is not None and res.err is not None
        else:
            assert abs(res[0] - exact(r)) <= res[1] + 1e-14
    assert any(isinstance(res, ToleranceError) for res in out)
    assert not all(isinstance(res, ToleranceError) for res in out)
    with pytest.raises(ToleranceError):
        adaptive_gk(lambda x: np.cos(25.0 * x), 0.0, 6.0, 1e-14, 1e-300, 200)


def test_budget_covers_the_initial_panels():
    # 150 evaluations cover 10 panels: row 1 asks for 11, row 3 for 1e30 (no
    # int holds that); each gets the 10 panels and fails with their estimate
    calls = []

    def counted(rows, x):
        calls.append(np.bincount(rows, minlength=4).tolist())
        return integrand(rows, x)

    out = gk_rows(counted, [0.0] * 4, B, 1e-6, [1e-8] * 4, 150, [4, 11, 4, 1e30])
    assert calls[0] == [4, 10, 4, 10]
    for r in (1, 3):
        assert isinstance(out[r], ToleranceError) and "150 evaluations" in str(out[r])
        assert out[r].value is not None and out[r].err is not None
    assert out[0][2] <= 150 and out[2][2] <= 150
    assert sum(sum(c[r] for c in calls) for r in (1, 3)) == 20


def test_adaptive_gk_contract():
    value, err, n_evals = adaptive_gk(np.sin, 0.0, math.pi)
    assert abs(value - 2.0) <= err + 1e-14 and n_evals % 15 == 0
    with pytest.raises(ValueError):
        adaptive_gk(np.sin, 1.0, 1.0)


def test_composite_grid_integrates_polynomials_exactly():
    x, wk, wg = composite_gk_nodes(0.0, 3.0, 5)
    assert x.shape == wk.shape == wg.shape == (75,)
    assert float(wk @ x**9) == pytest.approx(3.0**10 / 10, rel=1e-13)
    assert float(wg @ x**5) == pytest.approx(3.0**6 / 6, rel=1e-13)
