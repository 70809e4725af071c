"""Sampling: observation-set data type, the two random models, the
projection operators, and the exact Q_Omega algebra."""

import math

import numpy as np
import pytest
from scipy import stats

from mclab.errors import InvalidParameterError
from mclab.linalg import Rng
from mclab.sampling import (
    SampleSet,
    from_text,
    project_omega,
    q_omega,
    sample_bernoulli,
    sample_uniform,
    to_text,
)


def _full(n):
    rows, cols = np.nonzero(np.ones((n, n), dtype=bool))
    return SampleSet(n1=n, n2=n, rows=rows, cols=cols, model="bernoulli",
                     p=1.0, m_nominal=n * n)


# ------------------------------------------------------------ SampleSet

def test_sampleset_dedups_and_sorts_row_major():
    S = SampleSet(n1=3, n2=3, rows=np.array([2, 0, 2, 1]),
                  cols=np.array([1, 2, 1, 0]), model="uniform",
                  p=4 / 9, m_nominal=4)
    assert S.size == 3
    np.testing.assert_array_equal(S.rows, [0, 1, 2])
    np.testing.assert_array_equal(S.cols, [2, 0, 1])
    assert S.mask.sum() == 3


@pytest.mark.parametrize("n1,n2", [(1, 1), (3, 7), (7, 3), (16, 16), (40, 40), (5, 64)])
def test_sampleset_matches_sorted_unique_linear_index(n1, n2):
    # oracle: the canonical form is np.unique of the row-major linear index,
    # split back into rows and columns
    gen = np.random.default_rng(n1 * 100 + n2)
    for count in (0, 1, n1 * n2 // 3, 2 * n1 * n2):
        rows = gen.integers(0, n1, size=count)
        cols = gen.integers(0, n2, size=count)
        S = SampleSet(n1=n1, n2=n2, rows=rows, cols=cols, model="uniform",
                      p=0.5, m_nominal=count)
        lin = np.unique(rows * n2 + cols)
        assert S.rows.dtype == S.cols.dtype == np.int64
        np.testing.assert_array_equal(S.rows, lin // n2)
        np.testing.assert_array_equal(S.cols, lin % n2)
        assert S.mask.shape == (n1, n2) and S.mask.sum() == S.size == lin.size
        assert S.mask[S.rows, S.cols].all()


def test_sampleset_rejects_out_of_range():
    # a negative index would otherwise wrap silently into the mask
    for rows, cols in (([2], [0]), ([0], [3]), ([-1], [0]), ([0], [-1]),
                       ([1, -2], [0, 1]), ([0, 1], [2, -3])):
        with pytest.raises(InvalidParameterError):
            SampleSet(n1=2, n2=3, rows=np.array(rows), cols=np.array(cols),
                      model="uniform", p=0.25, m_nominal=1)


def test_sampleset_derives_index_arrays_once():
    S = sample_bernoulli(9, 0.4, Rng(12, 0), n2=5)
    assert S.size == int(S.mask.sum())
    assert S._index is None  # size reads the mask alone
    rows, cols = S.rows, S.cols
    assert S.rows is rows and S.cols is cols
    T = SampleSet(n1=3, n2=3, rows=[2, 0], cols=[1, 2], model="uniform",
                  p=2 / 9, m_nominal=2)
    assert T.rows is T.rows and T.cols is T.cols


def _assert_same_sampleset(S, R):
    assert (S.n1, S.n2, S.model, S.p, S.m_nominal, S.size) == (
        R.n1, R.n2, R.model, R.p, R.m_nominal, R.size)
    assert S.rows.dtype == S.cols.dtype == R.rows.dtype == R.cols.dtype == np.int64
    np.testing.assert_array_equal(S.rows, R.rows)
    np.testing.assert_array_equal(S.cols, R.cols)
    assert S.mask.dtype == R.mask.dtype == bool
    np.testing.assert_array_equal(S.mask, R.mask)


@pytest.mark.parametrize("n1,n2", [(1, 1), (6, 6), (3, 7), (7, 3), (40, 40), (5, 64)])
def test_drawn_sets_equal_the_index_constructed_draw(n1, n2):
    # oracle: the same stream's raw draw, turned into indices and passed
    # through the index constructor
    total = n1 * n2
    for t, p in enumerate((0.05, 0.3, 1.0)):
        S = sample_bernoulli(n1, p, Rng(13, t), n2=n2)
        rows, cols = np.nonzero(Rng(13, t).gen.random((n1, n2)) < p)
        R = SampleSet(n1=n1, n2=n2, rows=rows, cols=cols, model="bernoulli",
                      p=p, m_nominal=round(p * total))
        _assert_same_sampleset(S, R)
    assert S.size == total  # p = 1
    for t, m in enumerate((0, 1, total // 3, total)):
        S = sample_uniform(n1, m, Rng(14, t), n2=n2)
        lin = Rng(14, t).gen.choice(total, size=m, replace=False)
        R = SampleSet(n1=n1, n2=n2, rows=lin // n2, cols=lin % n2, model="uniform",
                      p=m / total, m_nominal=m)
        assert S.size == m
        _assert_same_sampleset(S, R)


# ------------------------------------------------------ sample_bernoulli

def test_bernoulli_rejects_bad_p():
    for p in (0.0, -0.1, 1.1):
        with pytest.raises(InvalidParameterError):
            sample_bernoulli(4, p, Rng(0, 0))


def test_bernoulli_count_concentrates():
    # n=50, p=0.3: mean size over 500 draws within 3 sd of n^2 p
    n, p, draws = 50, 0.3, 500
    sizes = [sample_bernoulli(n, p, Rng(1, t)).size for t in range(draws)]
    mean = float(np.mean(sizes))
    sd = math.sqrt(n * n * p * (1 - p))
    assert abs(mean - n * n * p) <= 3 * sd / math.sqrt(draws)


def test_bernoulli_p_equal_one_gives_full_grid():
    S = sample_bernoulli(6, 1.0, Rng(2, 0))
    assert S.size == 36


# -------------------------------------------------------- sample_uniform

def test_uniform_exact_count_no_duplicates():
    S = sample_uniform(10, 30, Rng(3, 0))
    assert S.size == 30
    assert S.model == "uniform"
    lin = S.rows * 10 + S.cols
    assert len(np.unique(lin)) == 30


def test_uniform_edge_counts():
    assert sample_uniform(4, 0, Rng(3, 1)).size == 0
    assert sample_uniform(4, 16, Rng(3, 2)).size == 16
    with pytest.raises(InvalidParameterError):
        sample_uniform(4, 17, Rng(3, 3))


def test_uniform_marginals_are_flat():
    # exchangeability: every cell included with frequency m/n^2 = 0.30
    n, m, draws = 10, 30, 10**4
    counts = np.zeros((n, n))
    for t in range(draws):
        S = sample_uniform(n, m, Rng(4, t))
        counts[S.rows, S.cols] += 1
    freq = counts / draws
    assert np.all(np.abs(freq - 0.30) <= 0.015)


# --------------------------------------------------------- project_omega

def test_project_full_and_empty():
    X = np.arange(16.0).reshape(4, 4)
    np.testing.assert_array_equal(project_omega(X, _full(4)), X)
    empty = SampleSet(n1=4, n2=4, rows=np.array([], dtype=int),
                      cols=np.array([], dtype=int), model="uniform",
                      p=0.0, m_nominal=0)
    np.testing.assert_array_equal(project_omega(X, empty), np.zeros((4, 4)))


def test_project_idempotent_exactly():
    X = np.random.default_rng(0).standard_normal((8, 8))
    S = sample_uniform(8, 20, Rng(5, 0))
    once = project_omega(X, S)
    np.testing.assert_array_equal(project_omega(once, S), once)


def test_project_shape_mismatch():
    S = sample_uniform(5, 5, Rng(5, 1))
    with pytest.raises(InvalidParameterError):
        project_omega(np.zeros((4, 4)), S)


def test_project_operator_norm_is_one():
    # ||P_Omega|| = 1 on nonempty Omega: never expands, attains on an
    # indicator supported inside Omega
    gen = np.random.default_rng(1)
    S = sample_uniform(6, 12, Rng(5, 2))
    for _ in range(100):
        X = gen.standard_normal((6, 6))
        assert np.linalg.norm(project_omega(X, S)) <= np.linalg.norm(X) + 1e-9
    spike = np.zeros((6, 6))
    spike[S.rows[0], S.cols[0]] = 1.0
    assert np.linalg.norm(project_omega(spike, S)) == 1.0


# -------------------------------------------------------------- q_omega

def test_q_omega_full_p1_is_zero():
    X = np.random.default_rng(2).standard_normal((5, 5))
    np.testing.assert_allclose(q_omega(X, _full(5)), 0.0, atol=1e-12)


def test_q_omega_square_identity_exact():
    # Q^2 = (1/p) [(1-2p) Q + (1-p) I] holds per entry, not just on average
    gen = np.random.default_rng(3)
    S = sample_bernoulli(12, 0.35, Rng(6, 0))
    for _ in range(5):
        X = gen.standard_normal((12, 12))
        lhs = q_omega(q_omega(X, S), S)
        rhs = ((1 - 2 * S.p) * q_omega(X, S) + (1 - S.p) * X) / S.p
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_q_omega_zero_mean_over_bernoulli():
    # E Q_Omega(X) = 0 entrywise; Monte Carlo within 4 standard errors
    n, p, draws = 8, 0.4, 10**4
    X = np.random.default_rng(4).standard_normal((n, n))
    acc = np.zeros((n, n))
    for t in range(draws):
        acc += q_omega(X, sample_bernoulli(n, p, Rng(7, t)))
    mean = acc / draws
    # per-entry variance of the multiplier is (1-p)/p
    se = np.abs(X) * math.sqrt((1 - p) / p / draws)
    assert np.all(np.abs(mean) <= 4 * se + 1e-12)


def test_q_omega_requires_positive_p():
    S = SampleSet(n1=3, n2=3, rows=np.array([0]), cols=np.array([0]),
                  model="uniform", p=0.0, m_nominal=1)
    with pytest.raises(InvalidParameterError):
        q_omega(np.zeros((3, 3)), S)


# ---------------------------------------------- model coupling, exact CDF

def test_binomial_median_coupling():
    # at p' = 2m/n^2 the chance a Bernoulli draw undershoots m entries is
    # below one half for any m >= 20 (basis of the two-model transfer)
    n = 12
    for m in (20, 40, 70):
        p2 = 2 * m / n**2
        assert stats.binom.cdf(m - 1, n * n, p2) <= 0.5


# -------------------------------------------------------- serialization

def test_text_round_trip():
    S = sample_uniform(9, 17, Rng(8, 0))
    R = from_text(to_text(S))
    assert (R.n1, R.n2, R.model, R.p, R.m_nominal) == (9, 9, "uniform", S.p, 17)
    np.testing.assert_array_equal(R.rows, S.rows)
    np.testing.assert_array_equal(R.cols, S.cols)
    # float p survives exactly via repr
    S2 = sample_bernoulli(7, 0.1 + 0.2, Rng(8, 1))
    assert from_text(to_text(S2)).p == S2.p


def test_from_text_rejects_malformed():
    with pytest.raises(InvalidParameterError):
        from_text("0 0\n1 1\n")
    with pytest.raises(InvalidParameterError):
        from_text("# 4 4 fancy 0.5 8\n0 0\n")
    with pytest.raises(InvalidParameterError):
        from_text("# 4 4 uniform 0.5 8\n0\n")


@pytest.mark.parametrize("text", [
    "# 4 4 uniform abc 8\n0 0\n", "# four 4 uniform 0.5 8\n0 0\n",
    "# 4 4 uniform 0.5 8.0\n0 0\n", "# 4 4 uniform 0.5 8\n0 x\n",
    "# 4 4 uniform 0.5 8\n1.5 0\n", "# -4 4 uniform 0.5 0\n",
])
def test_from_text_rejects_bad_numbers(text):
    with pytest.raises(InvalidParameterError):
        from_text(text)
