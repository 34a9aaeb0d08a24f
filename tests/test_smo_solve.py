"""The scalar SMO loop gives the reference two-array loop's results bit for bit.

``regression._smo_solve`` keeps its multipliers as one ``[alpha_up |
alpha_down]`` array, picks the pair with one argmax and one argmin over
capped copies of v, and reads Gram rows where the pair's columns are meant.
``oracles.reference_smo_solve`` is the plain loop: separate arrays, masked
copies, columns. Both must agree on multipliers, bias, update count,
convergence and gap as bytes: from the zero state and from mid-run states,
at epsilon 0 (each point's up and down slots tie) and on duplicated integer
rows (ties across points), when max_iter is hit and when a run crosses the
refresh of u. The loop rewrites a slot's caps only when its move leaves or
reaches 0 or C, so runs are followed stop by stop through slots that leave C
and leave 0 again; pairs formed from the two slots of one row, or of two
copies of a row, and runs across several refreshes are pinned as well. The
row reads rest on the Gram matrix being exactly symmetric, which is pinned
here too.
"""

import numpy as np
import pytest

from gazecast.regression import _REFRESH_EVERY, _smo_solve, standardize_columns

from helpers import make_qp
from oracles import reference_smo_solve

TOL = 1e-3


def _standardize_target(y):
    """(mean, std, z) of a target, z-scored as fit_linear_svr does it: as one standardize_columns column."""
    (mean,), (std,), z = standardize_columns(np.asarray(y, dtype=np.float64)[:, None])
    return mean, std, z[:, 0]


def _problem(seed: int, n: int, *, ties: bool = False, d: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(Gram, standardized target) of a random regression problem, as fit_linear_svr builds them."""
    x, y = make_qp(seed, n, d=1 + seed % 4 if d is None else d, ties=ties)
    z = standardize_columns(x)[2]
    return z @ z.T, _standardize_target(y)[2]


def _bytes(result) -> tuple:
    a_up, a_dn, bias, updates, converged, gap = result
    return (a_up.tobytes(), a_dn.tobytes(), np.float64(bias).tobytes(), updates, converged,
            np.float64(gap).tobytes())


def _both(k_mat, y, c, eps, max_iter=200_000, start=None):
    """Run both loops from *start*; assert equal bytes and return the reference's result."""
    want = reference_smo_solve(k_mat, y, c, eps, TOL, max_iter, start)
    got = _smo_solve(k_mat, y, c, eps, TOL, max_iter, start)
    assert _bytes(got) == _bytes(want)
    return want


class TestMatchesReference:
    @pytest.mark.parametrize("eps", [0.0, 0.05])
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 21, 34, 60])
    def test_fresh_fits(self, n, eps):
        updates = []
        for seed, ties in ((n, False), (n + 1, True)):
            k_mat, y = _problem(seed, n, ties=ties)
            for c in (0.01, 0.3, 20.0):
                updates.append(_both(k_mat, y, c, eps)[3])
        assert max(updates) > 0

    @pytest.mark.parametrize("ties", [False, True])
    def test_resumes_from_mid_run_states(self, ties):
        k_mat, y = _problem(7, 40, ties=ties)
        c, eps = 5.0, 0.0
        total = _both(k_mat, y, c, eps)[3]
        assert total > 20
        for stop in (1, total // 3, total - 1):
            a_up, a_dn, _, updates, converged, _ = reference_smo_solve(k_mat, y, c, eps, TOL, stop)
            assert (updates, converged) == (stop, False)
            state = (a_up, a_dn, k_mat @ (a_up - a_dn), updates)
            _both(k_mat, y, c, eps, start=state)
            # The same multipliers as if _REFRESH_EVERY - 1 updates had gone before: u is refreshed after one more.
            _both(k_mat, y, c, eps, start=state[:3] + (_REFRESH_EVERY - 1,))

    def test_resume_from_another_c(self):
        """A warm start: multipliers at C, interior ones and zeros, resumed under a smaller C."""
        k_mat, y = _problem(11, 30)
        a_up, a_dn, *_ = _both(k_mat, y, 0.5, 0.01)
        assert np.any(a_up == 0.5) and np.any((a_up > 0) & (a_up < 0.5))
        a_up, a_dn = np.minimum(a_up, 0.2), np.minimum(a_dn, 0.2)
        _both(k_mat, y, 0.2, 0.01, start=(a_up, a_dn, k_mat @ (a_up - a_dn), 0))

    @pytest.mark.parametrize("max_iter", [0, 1, 7, 40])
    def test_max_iter_is_hit(self, max_iter):
        for seed, ties in ((3, False), (4, True)):
            k_mat, y = _problem(seed, 30, ties=ties)
            result = _both(k_mat, y, 5.0, 0.0, max_iter=max_iter)
            assert (result[3], result[4]) == (max_iter, False)

    def test_refresh_is_crossed(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(30, 3))
        y = x @ rng.normal(size=3) + 2.0 * rng.normal(size=30)
        z = standardize_columns(x)[2]
        result = _both(z @ z.T, _standardize_target(y)[2], 60.0, 0.01)
        assert result[3] > _REFRESH_EVERY and result[4]

    @pytest.mark.parametrize("eps", [0.0, 0.01])
    def test_several_refreshes_are_crossed(self, eps):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(30, 3))
        y = x @ rng.normal(size=3) + 2.0 * rng.normal(size=30)
        z = standardize_columns(x)[2]
        result = _both(z @ z.T, _standardize_target(y)[2], 120.0, eps)
        assert result[3] > 2 * _REFRESH_EVERY and result[4]

    def test_every_stop_of_runs_that_leave_c_and_leave_0_again(self):
        """Both loops stopped after each update agree; some slot leaves C, and some leaves 0 it had reached."""
        left_c = left_0_again = False
        for seed, ties, c, eps in ((0, False, 1.0, 0.05), (6, False, 0.3, 0.0), (7, True, 1.0, 0.0),
                                   (1, True, 1.0, 0.05)):
            k_mat, y = _problem(seed, 12 + seed, ties=ties, d=2)
            total = _both(k_mat, y, c, eps)[3]
            stops = np.array([np.concatenate(_both(k_mat, y, c, eps, max_iter=t)[:2]) for t in range(total)])
            for slot in stops.T:
                at_c, at_0, inside = np.flatnonzero(slot == c), np.flatnonzero(slot == 0.0), slot > 0.0
                left_c |= len(at_c) > 0 and bool(np.any(slot[at_c[0]:] < c))
                left_0_again |= any(inside[:t].any() and inside[t:].any() for t in at_0)
        assert left_c and left_0_again

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("copy", [False, True])
    def test_pair_within_one_row_or_two_copies_of_it(self, seed, copy):
        """The first update pairs the down slot of row q with the up slot of row p: p == q, or q a copy of p.

        From a converged fit, both slots of a row strictly inside the tube
        get a small weight (the down slot on the copy of the row); their v
        values then stand outside every other's.
        """
        n, c, eps = 24, 1.0, 0.3
        k_mat, y = _problem(seed, n, ties=copy, d=2)
        a_up, a_dn, b, *_ = _both(k_mat, y, c, eps)
        inside = eps - np.abs(y - k_mat @ (a_up - a_dn) - b)
        inside[(a_up > 0.0) | (a_dn > 0.0)] = -1.0
        if copy:  # rows p and p + n // 2 are copies
            p = max(range(n - n // 2), key=lambda p: min(inside[p], inside[p + n // 2]))
            q = p + n // 2
        else:
            p = q = int(np.argmax(inside))
        a_up[p] += 0.02
        a_dn[q] += 0.01
        state = (a_up, a_dn, k_mat @ (a_up - a_dn), 0)
        up, dn, *_ = _both(k_mat, y, c, eps, max_iter=1, start=state)
        assert (np.flatnonzero(up != a_up).tolist(), np.flatnonzero(dn != a_dn).tolist()) == ([p], [q])
        _both(k_mat, y, c, eps, start=state)


class TestGramSymmetry:
    """The solvers read Gram rows for columns, which needs K == K.T exactly, not within rounding."""

    @pytest.mark.parametrize("n, d", [(2, 1), (2, 31), (3, 2), (17, 5), (135, 3), (541, 31), (1799, 31)])
    @pytest.mark.parametrize("constant_columns", [False, True])
    def test_gram_equals_its_transpose(self, n, d, constant_columns):
        rng = np.random.default_rng(n * d)
        x = rng.normal(loc=3.0, scale=rng.uniform(0.01, 100.0, size=d), size=(n, d))
        if constant_columns:
            x[:, ::3] = 1.5
        z = standardize_columns(x)[2]
        k_mat = z @ z.T
        assert np.array_equal(k_mat, k_mat.T)
