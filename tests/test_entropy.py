"""Entropy functionals and subadditivity reports."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroineq import (
    Distribution,
    DomainError,
    marginals,
    relabel,
    renyi,
    shannon,
    subadditivity_report,
    tsallis,
    tsallis_subadditivity_report,
)

LN2 = math.log(2.0)


@st.composite
def joint_tables(draw):
    n1 = draw(st.integers(2, 4))
    n2 = draw(st.integers(2, 5))
    raw = draw(
        st.lists(st.floats(1e-4, 1.0), min_size=n1 * n2, max_size=n1 * n2)
    )
    total = math.fsum(raw)
    return Distribution(np.reshape([v / total for v in raw], (n1, n2)))


class TestShannon:
    def test_delta_zero(self):
        assert shannon(Distribution((1.0, 0.0, 0.0))) == 0.0

    def test_uniform_max(self):
        assert shannon(Distribution((0.25,) * 4)) == pytest.approx(
            math.log(4.0), abs=1e-14
        )

    def test_hand_value(self):
        assert shannon(Distribution((0.5, 0.25, 0.25))) == pytest.approx(
            1.5 * LN2, abs=1e-14
        )


class TestJointShannon:
    """`shannon` of a rank-2 distribution sums over every entry."""

    def test_product_of_uniforms(self):
        t = Distribution(np.full((2, 2), 0.25))
        assert shannon(t) == pytest.approx(math.log(4.0), abs=1e-14)

    def test_delta(self):
        t = Distribution([[1.0, 0.0], [0.0, 0.0]])
        assert shannon(t) == 0.0

    def test_four_term_hand_sum(self):
        t = Distribution([[0.4, 0.1], [0.3, 0.2]])
        expected = -(
            0.4 * math.log(0.4)
            + 0.1 * math.log(0.1)
            + 0.3 * math.log(0.3)
            + 0.2 * math.log(0.2)
        )
        assert shannon(t) == pytest.approx(expected, abs=1e-15)

    def test_any_rank_equals_flat_entries(self):
        values = [i / 36.0 for i in range(1, 9)]
        cube = relabel(values, (2, 2, 2))
        assert shannon(cube) == shannon(values)
        assert tsallis(cube, 2.0) == tsallis(values, 2.0)
        assert renyi(cube, 0.5) == renyi(values, 0.5)


class TestSubadditivityReport:
    def test_product_table_has_zero_slack(self):
        t = Distribution(np.outer((0.3, 0.7), (0.2, 0.3, 0.5)))
        report = subadditivity_report(t)
        assert abs(report.slack) < 1e-14

    def test_delta_table(self):
        report = subadditivity_report(Distribution([[1.0, 0.0], [0.0, 0.0]]))
        assert report.h_joint == report.h_first == report.h_second == 0.0
        assert report.slack == 0.0

    def test_perfectly_correlated(self):
        report = subadditivity_report(Distribution([[0.5, 0.0], [0.0, 0.5]]))
        assert report.h_joint == pytest.approx(LN2, abs=1e-14)
        assert report.h_first == pytest.approx(LN2, abs=1e-14)
        assert report.h_second == pytest.approx(LN2, abs=1e-14)
        assert report.slack == pytest.approx(LN2, abs=1e-14)


class TestTsallis:
    def test_delta_any_q(self):
        p = Distribution((1.0, 0.0))
        for q in (0.5, 2.0, 3.0):
            assert tsallis(p, q) == 0.0

    def test_uniform_two_q_two(self):
        assert tsallis(Distribution((0.5, 0.5)), 2.0) == pytest.approx(
            0.5, abs=1e-15
        )

    def test_limit_matches_shannon(self):
        p = Distribution((0.5, 0.3, 0.2))
        h = shannon(p)
        assert abs(tsallis(p, 1.0 + 1e-6) - h) < 1e-5
        assert abs(tsallis(p, 1.0 - 1e-6) - h) < 1e-5

    def test_invalid_q(self):
        p = Distribution((0.5, 0.5))
        for q in (0.0, -1.0, 1.0):
            with pytest.raises(DomainError):
                tsallis(p, q)


class TestRenyi:
    def test_uniform_is_log_n(self):
        p = Distribution((0.25,) * 4)
        for q in (0.5, 2.0, 5.0):
            assert renyi(p, q) == pytest.approx(math.log(4.0), abs=1e-13)

    def test_delta(self):
        assert renyi(Distribution((1.0, 0.0)), 2.0) == 0.0

    def test_hand_value(self):
        got = renyi(Distribution((0.5, 0.25, 0.25)), 2.0)
        assert got == pytest.approx(math.log(8.0 / 3.0), abs=1e-14)

    def test_limit_matches_shannon(self):
        p = Distribution((0.6, 0.3, 0.1))
        assert abs(renyi(p, 1.0 + 1e-6) - shannon(p)) < 1e-5


class TestTsallisReport:
    def test_product_uniform_pseudo_additive(self):
        t = Distribution(np.full((2, 2), 0.25))
        report = tsallis_subadditivity_report(t, 2.0)
        assert report.h_first == pytest.approx(0.5, abs=1e-15)
        assert report.h_second == pytest.approx(0.5, abs=1e-15)
        assert report.h_joint == pytest.approx(0.75, abs=1e-15)
        assert report.slack == pytest.approx(0.25, abs=1e-15)

    def test_delta(self):
        report = tsallis_subadditivity_report(
            Distribution([[1.0, 0.0], [0.0, 0.0]]), 2.0
        )
        assert report.slack == 0.0

    def test_correlated_hand_value(self):
        report = tsallis_subadditivity_report(
            Distribution([[0.5, 0.0], [0.0, 0.5]]), 2.0
        )
        assert report.h_joint == pytest.approx(0.5, abs=1e-15)
        assert report.slack == pytest.approx(0.5, abs=1e-15)

    def test_report_only_flag_below_one(self):
        t = Distribution(np.full((2, 2), 0.25))
        assert tsallis_subadditivity_report(t, 0.5).report_only
        assert not tsallis_subadditivity_report(t, 2.0).report_only


def test_power_sum_direction_is_reversed_for_q_above_one():
    # the power sums themselves run the other way around: on the 2x2
    # uniform at q=2, sum1 + sum2 - 1 = 0 < 0.25 = joint sum
    t = Distribution(np.full((2, 2), 0.25))
    s1, s2 = (float(np.sum(m.as_array() ** 2)) for m in marginals(t))
    joint = float(np.sum(t.as_array() ** 2))
    assert s1 + s2 - 1.0 < joint
    assert tsallis_subadditivity_report(t, 2.0).slack > 0.0


@settings(max_examples=100, deadline=None)
@given(joint_tables())
def test_shannon_slack_nonnegative(t):
    assert subadditivity_report(t).slack >= -1e-12


@settings(max_examples=60, deadline=None)
@given(joint_tables(), st.sampled_from([1.5, 2.0, 3.0]))
def test_tsallis_slack_nonnegative_above_one(t, q):
    assert tsallis_subadditivity_report(t, q).slack >= -1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(1e-4, 1.0), min_size=2, max_size=10),
    st.randoms(use_true_random=False),
)
def test_entropies_permutation_invariant(raw, rng):
    total = math.fsum(raw)
    values = [v / total for v in raw]
    shuffled = values[:]
    rng.shuffle(shuffled)
    p = Distribution(tuple(values))
    q = Distribution(tuple(shuffled))
    assert shannon(p) == pytest.approx(shannon(q), abs=1e-12)
    assert tsallis(p, 2.0) == pytest.approx(tsallis(q, 2.0), abs=1e-12)
    assert renyi(p, 2.0) == pytest.approx(renyi(q, 2.0), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(1e-4, 1.0), min_size=1, max_size=8), st.integers(1, 5))
def test_zero_padding_leaves_entropies_unchanged(raw, pad):
    total = math.fsum(raw)
    values = tuple(v / total for v in raw)
    padded = values + (0.0,) * pad
    assert shannon(values) == shannon(padded)
    assert tsallis(values, 2.0) == tsallis(padded, 2.0)
    assert renyi(values, 0.5) == renyi(padded, 0.5)


def test_slack_zero_iff_product_form():
    rng = np.random.default_rng(11)
    p = rng.dirichlet(np.ones(3))
    q = rng.dirichlet(np.ones(4))
    product = Distribution(np.outer(p, q))
    report = subadditivity_report(product)
    assert abs(report.slack) <= 1e-12

    correlated = Distribution([[0.4, 0.1], [0.1, 0.4]])
    report = subadditivity_report(correlated)
    assert report.slack > 1e-12
    grid = correlated.as_array()
    rows = grid.sum(axis=1)
    cols = grid.sum(axis=0)
    assert np.max(np.abs(grid - np.outer(rows, cols))) > 1e-8


def test_batch_axes_give_one_entropy_per_distribution():
    rows = np.array([[0.5, 0.5, 0.0, 0.0], [0.1, 0.2, 0.3, 0.4], [1.0, 0.0, 0.0, 0.0]])
    batched = Distribution(rows, 1)
    for entropy in (shannon, lambda p: tsallis(p, 2.0), lambda p: renyi(p, 0.5)):
        values = entropy(batched)
        assert values.shape == (3,)
        assert values.tolist() == [entropy(row.tolist()) for row in rows]
    report = subadditivity_report(relabel(batched, (2, 2)))
    for index, row in enumerate(rows):
        single = subadditivity_report(relabel(row.tolist(), (2, 2)))
        assert report.slack[index] == single.slack
        assert report.h_joint[index] == single.h_joint


def test_zero_padding_leaves_batched_entropies_unchanged():
    rows = np.array([[0.25, 0.75], [0.6, 0.4]])
    padded = np.hstack([rows, np.zeros((2, 3))])
    for entropy in (shannon, lambda p: tsallis(p, 0.5), lambda p: renyi(p, 2.0)):
        plain = entropy(Distribution(rows, 1))
        assert entropy(Distribution(padded, 1)).tolist() == plain.tolist()
