"""Row-batched adaptive Gauss-Kronrod engine: per-row policy, batching, failures."""

import math

import numpy as np
import pytest

import qcheat.quadrature as quadrature_mod
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
    args = (integrand, [0.0] * 4, B, 1e-10, [1e-13] * 4, 100_000, [4, 40, 6, 4])
    whole = gk_rows(*args)
    monkeypatch.setattr(quadrature_mod, "_PANEL_CHUNK", 5)
    assert gk_rows(*args) == whole


def test_row_groups_change_no_bit(monkeypatch):
    args = (integrand, [0.0] * 4, B, 1e-10, [1e-13] * 4, 100_000, [4, 40, 6, 4])
    whole = gk_rows(*args)
    # rows 0, 1 and rows 2, 3 refine apart: row 2 starts past 40 panels
    calls = []
    monkeypatch.setattr(quadrature_mod, "_GROUP_PANELS", 40)
    assert gk_rows(lambda rows, x: calls.append(set(rows.tolist())) or integrand(rows, x), *args[1:]) == whole
    assert all(c <= {0, 1} or c <= {2, 3} for c in calls) and {2, 3} in calls


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


def _reference_gk_rows(f, a, b, rel_tol, abs_tol, max_evals, min_panels):
    """gk_rows with its bookkeeping in Python lists: a row at a time, fsum in every round."""
    a, b = np.asarray(a, dtype=float).tolist(), np.asarray(b, dtype=float).tolist()
    wanted = np.asarray(min_panels, dtype=float)
    starved = (15.0 * wanted > max_evals).tolist()
    counts = np.minimum(wanted, max(max_evals // 15, 1)).astype(int).tolist()
    n_rows = len(b)
    lo, hi, val, err, n_evals = [], [], [], [], []
    p_row, p_slot, p_lo, p_hi = [], [], [], []
    for r, (ar, br, p) in enumerate(zip(a, b, counts)):
        step = (br - ar) / p
        edges = [k * step + ar for k in range(p)] + [br]
        lo.append(edges[:-1])
        hi.append(edges[1:])
        val.append([0.0] * p)
        err.append([0.0] * p)
        n_evals.append(15 * p)
        p_row += [r] * p
        p_slot += range(p)
        p_lo += lo[r]
        p_hi += hi[r]
    out = [None] * n_rows
    active = list(range(n_rows))
    while active:
        for c in range(0, len(p_row), 4096):
            chunk = slice(c, c + 4096)
            rows = p_row[chunk]
            resk, rese = quadrature_mod._gk15(f, np.array(rows), np.array(p_lo[chunk]), np.array(p_hi[chunk]))
            for r, s, v, e in zip(rows, p_slot[chunk], resk.tolist(), rese.tolist()):
                val[r][s] = v
                err[r][s] = e
        splitting = []
        p_row, p_slot, p_lo, p_hi = [], [], [], []
        for r in active:
            vs, es = val[r], err[r]
            try:
                total = math.fsum(vs)
                err_sum = math.fsum(es)
                noise_floor = 1e-13 * math.fsum(map(abs, vs))
            except (ValueError, OverflowError):
                total, err_sum = sum(vs), sum(es)
                out[r] = ToleranceError(quadrature_mod._NOT_FINITE % (total, err_sum), value=total, err=err_sum)
                continue
            target = max(abs_tol[r], rel_tol * abs(total), noise_floor)
            if math.isnan(total) or math.isnan(err_sum):
                out[r] = ToleranceError(quadrature_mod._NOT_FINITE % (total, err_sum), value=total, err=err_sum)
                continue
            if starved[r]:
                msg = "quadrature needs more than %d evaluations for %.4g initial panels" % (max_evals, wanted[r])
                out[r] = ToleranceError(msg, value=total, err=err_sum)
                continue
            if err_sum <= target:
                out[r] = (total, err_sum, n_evals[r])
                continue
            if n_evals[r] + 30 > max_evals:
                out[r] = ToleranceError(
                    "quadrature needs more than %d evaluations (err %.3e > target %.3e)"
                    % (max_evals, err_sum, target),
                    value=total,
                    err=err_sum,
                )
                continue
            worst = es.index(max(es))
            left, right = lo[r][worst], hi[r][worst]
            mid = 0.5 * (left + right)
            hi[r][worst] = mid
            lo[r].append(mid)
            hi[r].append(right)
            vs.append(0.0)
            es.append(0.0)
            n_evals[r] += 30
            splitting.append(r)
            p_row += [r, r]
            p_slot += [worst, len(vs) - 1]
            p_lo += [left, mid]
            p_hi += [mid, right]
        active = splitting
    return out


def _bits(res):
    """A row's result as comparable text: the exact bits of every float, NaN included."""
    if isinstance(res, ToleranceError):
        return ("ToleranceError", str(res), float(res.value).hex(), float(res.err).hex())
    value, err, n_evals = res
    assert type(n_evals) is int
    return (float(value).hex(), float(err).hex(), n_evals)


def _assert_matches_reference(f, *args):
    got, ref = gk_rows(f, *args), _reference_gk_rows(f, *args)
    assert [_bits(r) for r in got] == [_bits(r) for r in ref]
    return ref


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rows_match_the_reference_bookkeeping_bit_for_bit(seed):
    # row r integrates exp(-c_r x) cos(w_r x) on [a_r, b_r], many panels or few,
    # with a tolerance that some rows meet and some miss within the budget
    rng = np.random.default_rng(seed)
    n = 40
    c, w = rng.uniform(0.0, 3.0, n), rng.choice([0.0, 3.0, 40.0, 100.0], n)
    a = rng.uniform(-2.0, 1.0, n)
    b = a + rng.uniform(0.5, 10.0, n)
    min_panels = rng.choice([1, 4, 7, 30, 300], n)
    abs_tol = 10.0 ** rng.uniform(-16, -6, n)

    def f(rows, x):
        return np.exp(-c[rows, None] * x) * np.cos(w[rows, None] * x)

    ref = []
    for rel_tol, max_evals in ((1e-10, 20_000), (1e-13, 6_000)):
        ref += _assert_matches_reference(f, a, b, rel_tol, abs_tol, max_evals, min_panels)
    assert any(isinstance(r, ToleranceError) for r in ref) and not all(isinstance(r, ToleranceError) for r in ref)


def _prescribe(monkeypatch, panel):
    """Replace the K15 rule by panel(rows, lo, hi) -> (values, errors), for gk_rows and the reference.

    The integrand to pass is _row_ids: what it returns for the rows of a call
    are the caller's row indices, also in a group of rows refined apart.
    """
    monkeypatch.setattr(quadrature_mod, "_gk15", lambda f, rows, lo, hi: panel(f(rows, None), lo, hi))


def _row_ids(rows, x):
    return rows


def test_tied_panels_split_the_first_in_creation_order(monkeypatch):
    # Equal widths tie in error, and which of them splits changes the value.
    # Row 0 splits [0, 1], then [1, 2], and stops at error 3; splitting [3, 4]
    # and [2, 3] would give the value 16.75.  Row 1 runs out of budget.
    _prescribe(monkeypatch, lambda rows, lo, hi: (lo * lo * (hi - lo), (hi - lo) ** 2))
    ref = _assert_matches_reference(_row_ids, [0.0, 1.0], [4.0, 9.0], 0.0, [3.0, 1e-6], 600, [4, 8])
    assert ref[0] == (14.75, 3.0, 120)
    assert "600 evaluations" in str(ref[1])


def test_zero_starved_and_over_budget_rows_match_the_reference():
    # row 0 is identically 0: error sum and target are both 0.  Row 1 asks for
    # more panels than the budget covers.  Row 2 runs out of budget, row 3
    # converges.
    def f(rows, x):
        y = np.exp(-x) * np.cos(np.where(rows == 2, 60.0, 1.0)[:, None] * x)
        y[rows == 0] = 0.0
        return y

    ref = _assert_matches_reference(f, [0.0] * 4, [1.0, 3.0, 9.0, 3.0], 1e-13, [0.0, 1e-12, 1e-16, 1e-12], 900, [4, 250, 4, 4])
    assert ref[0] == (0.0, 0.0, 60)
    assert "250 initial panels" in str(ref[1])
    assert "900 evaluations (err" in str(ref[2])
    assert not isinstance(ref[3], ToleranceError)


def test_non_finite_rows_match_the_reference():
    # a NaN at one node of one panel, an inf in another row: their error sums
    # are NaN, so both rows fail in their first round
    def f(rows, x):
        y = np.cos(x)
        y[(rows[:, None] == 0) & (np.abs(x - 1.3) < 0.2)] = np.nan
        y[(rows[:, None] == 1) & (np.abs(x - 0.2) < 0.1)] = np.inf
        return y

    with np.errstate(invalid="ignore"):  # inf - inf in the panel error estimate
        ref = _assert_matches_reference(f, [0.0] * 3, [2.0] * 3, 1e-10, [1e-13] * 3, 900, [4] * 3)
    assert isinstance(ref[0], ToleranceError) and isinstance(ref[1], ToleranceError)
    assert not isinstance(ref[2], ToleranceError)


def _poisoned(value, row=0):
    """cos(x) on every row, with value at the nodes of row `row` within 0.2 of 1.3."""

    def f(rows, x):
        y = np.cos(x)
        y[(rows[:, None] == row) & (np.abs(x - 1.3) < 0.2)] = value
        return y

    return f


def test_nan_row_fails_in_its_first_round():
    # no split makes a NaN panel finite: the row fails after the call of its
    # initial panels, the other rows keep their bits and refine on without it
    calls = []
    f = _poisoned(np.nan)
    args = ([0.0] * 3, [2.0, 2.0, 30.0], 1e-12, [1e-15] * 3, 400_000, [4] * 3)
    out = gk_rows(lambda rows, x: calls.append(set(rows.tolist())) or f(rows, x), *args)
    assert isinstance(out[0], ToleranceError) and "not finite" in str(out[0])
    assert math.isnan(out[0].value) and math.isnan(out[0].err)
    assert calls[0] == {0, 1, 2} and len(calls) > 1 and all(0 not in c for c in calls[1:])
    finite = gk_rows(lambda rows, x: f(rows + 1, x), [0.0] * 2, [2.0, 30.0], 1e-12, [1e-15] * 2, 400_000, [4] * 2)
    assert out[1:] == finite


def test_row_with_both_infinities_fails_alone():
    # +inf and -inf among one row's panel values: its exact sum is undefined
    # (fsum raises), so that row fails and the other keeps (value, err, n_evals)
    def f(rows, x):
        y = _poisoned(np.inf)(rows, x)
        y[(rows[:, None] == 0) & (np.abs(x - 0.2) < 0.1)] = -np.inf
        return y

    with np.errstate(invalid="ignore"):  # inf - inf in the panel error estimate
        out = _assert_matches_reference(f, [0.0] * 2, [2.0] * 2, 1e-10, [1e-13] * 2, 900, [4] * 2)
    assert isinstance(out[0], ToleranceError) and "not finite" in str(out[0])
    assert out[1] == adaptive_gk(np.cos, 0.0, 2.0, 1e-10, 1e-13, 900, 4)


def test_kernel_query_past_the_double_range_fails_at_once(monkeypatch):
    # -1/2t at t = 1e-160 squares past the double range: the row is out of
    # range before any quadrature, without a warning (they are errors here)
    from qcheat.group import make_quaternionic_spec
    from qcheat.kernel import heat_kernel_point

    calls = []
    gk15 = quadrature_mod._gk15
    monkeypatch.setattr(quadrature_mod, "_gk15", lambda *a: calls.append(1) or gk15(*a))
    with pytest.raises(ToleranceError, match="out of floating-point range"):
        heat_kernel_point(make_quaternionic_spec(1), 1e-160, [1e-80, 0, 0, 0], [0, 0, 0], derivative=(2, 0, 0, 0, 0, 0, 0))
    assert calls == []


def test_mixed_panel_counts_in_one_batch_match_the_reference():
    def f(rows, x):
        return np.sin(np.where(rows[:, None] % 2 == 0, 3.0, 800.0) * x) * np.exp(-0.1 * x)

    min_panels = [4, 1000, 4, 1000, 4, 1000]
    ref = _assert_matches_reference(f, [0.0] * 6, [5.0, 9.0, 9.0, 7.0, 1.0, 6.0], 1e-11, [1e-14] * 6, 100_000, min_panels)
    # the 1000-panel rows refine for many rounds after the 4-panel rows stop
    assert [r[2] > 40_000 for r in ref] == [False, True] * 3


def test_row_on_the_edge_of_its_target_takes_the_fsum_test(monkeypatch):
    # 1000 panels: errors 1 on the first (rows 0, 2) or first eight (rows 1,
    # 3), 3/4 ulp(1) on the rest.  A sum near 1 that adds 3/4 ulp rounds up,
    # so a recursive sum exceeds the fsum, on rows 0 and 2 summed from the
    # left and on rows 1 and 3 summed pairwise with eight accumulators.  Rows
    # 0 and 1 have that fsum as target: today's test stops them after the
    # first round, a test on a recursive sum alone would split them.  Rows 2
    # and 3 have the next double below: they split until the budget runs out.
    small = 0.75 * 2.0**-52
    first = np.array([1, 8, 1, 8])
    _prescribe(monkeypatch, lambda rows, lo, hi: (hi - lo, np.where(lo < (first[rows] - 0.5) / 1000, 1.0, small)))
    fsums = [math.fsum([1.0] * k + [small] * (1000 - k)) for k in (1, 8)]
    abs_tol = fsums + [math.nextafter(v, 0.0) for v in fsums]
    ref = _assert_matches_reference(_row_ids, [0.0] * 4, [1.0] * 4, 0.0, abs_tol, 15_300, [1000] * 4)
    assert [r[1:] for r in ref[:2]] == [(v, 15_000) for v in fsums]
    assert all("15300 evaluations" in str(r) for r in ref[2:])
