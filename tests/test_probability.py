"""Distributions of any rank, `relabel` and its named layouts, marginals."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroineq import (
    BistochasticMatrix,
    DimensionError,
    DomainError,
    Distribution,
    HalfInt,
    SeriesKind,
    bipartite_split,
    discrete_series_distribution,
    enumerate_weights,
    interleave_split,
    marginals,
    relabel,
)
from entroineq import probability, specfun, su11
from entroineq.probability import SUM_TOLERANCE, row_fsums
from entroineq.su2 import column_distribution


@st.composite
def prob_vectors(draw, min_size=2, max_size=12):
    raw = draw(
        st.lists(st.floats(1e-3, 1.0), min_size=min_size, max_size=max_size)
    )
    total = math.fsum(raw)
    return Distribution([v / total for v in raw])


def flat(t):
    return t.as_array().ravel().tolist()


class TestProbabilityVector:
    """Rank-1 distributions."""

    def test_clamps_tiny_negatives(self):
        p = Distribution((1.0, -5e-13, 5e-13))
        assert p.as_array()[1] == 0.0
        assert math.copysign(1.0, Distribution((1.0, -0.0)).as_array()[1]) == 1.0

    def test_rejects_real_negatives(self):
        with pytest.raises(DomainError):
            Distribution((1.0, -1e-6))

    def test_rejects_bad_total(self):
        with pytest.raises(DomainError):
            Distribution((0.4, 0.4))

    def test_rejects_empty_and_nan(self):
        with pytest.raises(DimensionError):
            Distribution(())
        with pytest.raises(DimensionError):
            Distribution(1.0)
        with pytest.raises(DomainError):
            Distribution((float("nan"), 1.0))
        with pytest.raises(DomainError):
            Distribution((float("inf"), 1.0))

    @pytest.mark.parametrize("values", [(1e308, 1e308), (1e308, 1e308, 0.0)])
    def test_overflowing_total_is_domain_error(self, values):
        # positive entries take the fast total, a zero entry the cleaned one;
        # math.fsum raises OverflowError on both
        with pytest.raises(DomainError, match="overflows"):
            Distribution(values)


class TestMassCheck:
    """The float row sum decides the mass check where its rounding bound
    clears it; every other row is summed exactly, as before."""

    @staticmethod
    def rows_near(total, count, width, seed):
        """Positive rows whose exact sums are `total` within a few ulps."""
        rng = np.random.default_rng(seed)
        rows = rng.random((count, width))
        return rows * (total / np.array([math.fsum(row) for row in rows.tolist()]))[:, None]

    @staticmethod
    def edges():
        for edge in (1.0 - SUM_TOLERANCE, 1.0 + SUM_TOLERANCE):
            total = edge
            for _ in range(6):  # a few ulps either side of each edge
                total = np.nextafter(total, 0.0)
            for _ in range(13):
                yield total
                total = np.nextafter(total, 2.0)

    @pytest.mark.parametrize("width", [1, 2, 3, 9, 1000])
    def test_accepts_and_raises_as_the_exact_check(self, width):
        for seed, total in enumerate(self.edges()):
            for row in self.rows_near(total, 4, width, seed).tolist():
                exact = math.fsum(row)
                if abs(exact - 1.0) > SUM_TOLERANCE:
                    with pytest.raises(DomainError) as raised:
                        Distribution(row)
                    assert str(raised.value) == f"entries sum to {exact!r}, not 1"
                else:
                    assert Distribution(row).as_array().tolist() == row

    def test_first_failing_row_of_a_table_raises(self):
        rows = np.concatenate([self.rows_near(1.0 - 0.5 * SUM_TOLERANCE, 5, 9, 1), self.rows_near(1.2, 1, 9, 2)])
        rows = np.concatenate([rows, self.rows_near(1.0 + 2.0 * SUM_TOLERANCE, 1, 9, 3), rows[:5]])
        with pytest.raises(DomainError) as raised:
            Distribution(rows, 1)
        assert str(raised.value) == f"entries sum to {math.fsum(rows[5].tolist())!r}, not 1"

    def test_a_valid_table_takes_no_exact_sum(self, monkeypatch):
        calls = []
        original = probability.row_fsums
        monkeypatch.setattr(probability, "row_fsums", lambda rows: calls.append(rows.shape) or original(rows))
        for j, m in (("1/2", "1/2"), ("4", "1")):
            column_distribution(j, m, np.linspace(0.01, 3.1, 256))
        Distribution(self.rows_near(1.0, 256, 9, 4), 1)
        assert calls == []


FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2).flatmap(lambda width: st.lists(st.lists(FLOATS, min_size=width, max_size=width), min_size=1, max_size=8)))
def test_short_row_sums_are_fsum_bit_for_bit(rows):
    try:
        expected = [math.fsum(row) for row in rows]
    except OverflowError:
        with pytest.raises(DomainError, match="overflows"):
            row_fsums(np.array(rows))
        return
    got = row_fsums(np.array(rows))
    assert np.array(got).view(np.int64).tolist() == np.array(expected).view(np.int64).tolist()


@pytest.mark.parametrize("pair", [(1e308, 1e308), (-1.7e308, -1e308), (1.7976931348623157e308, 1e292)])
def test_an_overflowing_pair_raises(pair):
    with pytest.raises(DomainError, match="probability mass overflows the float range"):
        row_fsums(np.array([[0.5, 0.5], pair]))


class TestParts:
    def test_slices(self):
        assert probability.parts(0, 10) == [slice(0, 6553)]
        assert probability.parts(5, 0) == [slice(0, 65536)]
        assert probability.parts(3, 2**17) == [slice(0, 1), slice(1, 2), slice(2, 3)]
        assert probability.parts(10, 2**14) == [slice(0, 4), slice(4, 8), slice(8, 12)]

    def test_one_patch_splits_every_grid(self, monkeypatch):
        # one part size rules an exact row sum, a squared-column grid, a boost
        # plan, a boost column and a discrete ladder grid: at 400 entries each
        # runs in several parts, and each result is its one-part result bit for bit
        grid = np.linspace(0.12, 1.66, 64)
        runs = {
            "row_fsums": lambda: row_fsums(np.random.default_rng(7).random((50, 30))),
            "_squared_column": lambda: specfun._squared_column(20, 3, grid).tolist(),
            "_last_plan": lambda: [x.tolist() for x in specfun._boost_plan(3, 2, grid)],
            "_boost_column": lambda: specfun._boost_column(3, 2, grid, np.arange(80)).tolist(),
            "discrete_series_distribution": lambda: [
                (d.values.tolist(), d.truncation.tolist(), d.captured_mass.tolist())
                for d in [discrete_series_distribution(3, HalfInt(7), grid)]
            ],
        }
        counts = {}
        original = probability.parts

        def counted(count, width):
            out = original(count, width)
            counts.setdefault(sys._getframe(1).f_code.co_name, []).append(len(out))
            return out

        for module in (probability, specfun, su11):
            monkeypatch.setattr(module, "parts", counted)
        results = {}
        for size in (probability.PART_TERMS, 400):
            monkeypatch.setattr(probability, "PART_TERMS", size)
            for site, run in runs.items():
                specfun._last_plan.cache_clear()
                counts.clear()
                results.setdefault(site, []).append(run())
                assert (max(counts[site]) > 1) == (size == 400), (site, size)
        for site, (whole, split) in results.items():
            assert split == whole, site


class TestJointTable:
    """Rank-2 and rank-3 distributions: one validation, a read-only copy."""

    def test_validates_shape_and_total(self):
        with pytest.raises(DimensionError):
            Distribution(np.zeros((2, 0)))
        with pytest.raises(DomainError):
            Distribution(np.full((2, 2), 0.5))
        with pytest.raises(DomainError):
            Distribution(np.full((2, 2, 2), 0.25))
        with pytest.raises(DomainError):
            Distribution([[0.5, 0.5], [0.5, -1e-6]])

    def test_round_trips_arrays(self):
        grid = np.array([[0.1, 0.2], [0.3, 0.4]])
        t = Distribution(grid)
        assert t.as_array().shape == (2, 2)
        assert np.array_equal(t.as_array(), grid)
        grid[0, 0] = 0.5  # the distribution holds its own copy
        assert t.as_array()[0, 0] == 0.1
        with pytest.raises(ValueError):
            t.as_array()[0, 0] = 0.5
        with pytest.raises(AttributeError):
            t._array = grid


class TestBistochastic:
    def test_accepts_doubly_stochastic(self):
        m = BistochasticMatrix.from_array(np.array([[0.3, 0.7], [0.7, 0.3]]))
        assert m.as_array()[:, 0].tolist() == [0.3, 0.7]
        assert m.as_array()[1, :].tolist() == [0.7, 0.3]

    def test_rejects_row_stochastic_only(self):
        bad = np.array([[0.5, 0.5], [0.9, 0.1]])
        with pytest.raises(DomainError):
            BistochasticMatrix.from_array(bad)

    def test_holds_one_read_only_array(self):
        entries = [0.3, 0.7, 0.7 + 5e-13, 0.3 - 5e-13, 0.0, 0.0]
        m = BistochasticMatrix(2, entries[:4])
        assert m.as_array() is m.as_array()
        assert m.as_array().dtype == float and m.as_array().shape == (2, 2)
        with pytest.raises(ValueError):
            m.as_array()[0, 0] = 0.5
        square = np.array([[1.0, -0.0], [-1e-13, 1.0]])
        cleaned = BistochasticMatrix.from_array(square).as_array()
        assert cleaned.tolist() == [[1.0, 0.0], [0.0, 1.0]] and not np.signbit(cleaned).any()
        assert square[1, 0] == -1e-13  # the caller's array is not touched
        assert m != BistochasticMatrix(2, entries[:4]) and m == m

    def test_errors(self):
        with pytest.raises(DimensionError, match="invalid size 0"):
            BistochasticMatrix(0, [])
        with pytest.raises(DimensionError, match="3 entries do not fill 2x2"):
            BistochasticMatrix(2, [0.5, 0.5, 0.0])
        with pytest.raises(DomainError, match="non-finite"):
            BistochasticMatrix(2, [0.5, 0.5, math.nan, 0.5])
        with pytest.raises(DomainError, match="negative"):
            BistochasticMatrix(2, [1.5, -0.5, -0.5, 1.5])
        with pytest.raises(DomainError, match="a column sum deviates"):
            BistochasticMatrix(2, [1.0, 0.0, 1.0, 0.0])
        with pytest.raises(DimensionError, match="square"):
            BistochasticMatrix.from_array(np.ones((2, 3)) / 3)


class TestBatchAxes:
    """Leading batch axes stack one checked distribution per index."""

    ROWS = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [1.0, 0.0, 0.0], [0.1, 0.1, 0.8]])

    def test_every_row_is_checked(self):
        p = Distribution(self.ROWS, 1)
        assert p.batch_ndim == 1 and p.batch_shape == (4,) and p.size == 3
        bad = self.ROWS.copy()
        bad[2, 0] = 0.9
        with pytest.raises(DomainError, match="sum to 0.9"):
            Distribution(bad, 1)
        bad[2, 0], bad[2, 1] = 1.0 + 2e-6, -2e-6
        with pytest.raises(DomainError, match="negative"):
            Distribution(bad, 1)
        with pytest.raises(DimensionError):
            Distribution(self.ROWS, 2)
        with pytest.raises(DimensionError):
            Distribution(np.zeros((0, 3)), 1)

    def test_a_zero_padded_table_is_copied_once(self):
        # the constructor cleans its own float copy in place; it used to
        # clean into a second copy and peak at 2.25x the table's bytes
        rows, columns = 64, 12000
        ratio = np.linspace(0.9990, 0.9995, rows)[:, None]
        table = (1.0 - ratio) * ratio ** np.arange(columns)
        table[np.arange(columns) >= np.linspace(columns // 2, columns, rows).astype(int)[:, None]] = 0.0
        table /= table.sum(axis=1, keepdims=True)
        tracemalloc.start()
        try:
            p = Distribution(table, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * table.nbytes
        assert np.array_equal(p.as_array(), table) and p.as_array() is not table

    def test_rows_are_clamped_like_a_single_distribution(self):
        rows = self.ROWS.copy()
        rows[0] = (0.5, 0.5 + 5e-13, -5e-13)
        assert Distribution(rows, 1).as_array()[0, 2] == 0.0

    def test_relabel_places_trailing_axes_under_the_batch_axes(self):
        p = Distribution(self.ROWS.reshape(2, 2, 3), 2)
        t = relabel(p, (2, 2))
        assert t.batch_ndim == 2 and t.as_array().shape == (2, 2, 2, 2)
        for i in range(2):
            for k in range(2):
                single = relabel(Distribution(self.ROWS[2 * i + k]), (2, 2))
                assert t.as_array()[i, k].tolist() == single.as_array().tolist()
        split = bipartite_split(Distribution(self.ROWS, 1))
        assert split.as_array().shape == (4, 2, 2)
        assert interleave_split(Distribution(self.ROWS, 1)).as_array().shape == (4, 2, 2)

    def test_marginals_sum_table_axes_only(self):
        t = bipartite_split(Distribution(self.ROWS, 1))
        first, second = marginals(t)
        assert first.batch_ndim == second.batch_ndim == 1
        for index, row in enumerate(self.ROWS):
            one_first, one_second = marginals(bipartite_split(Distribution(row)))
            assert first.as_array()[index].tolist() == one_first.as_array().tolist()
            assert second.as_array()[index].tolist() == one_second.as_array().tolist()


class TestBipartiteSplit:
    def test_even_case(self):
        t = bipartite_split(Distribution((0.1, 0.2, 0.3, 0.4)))
        assert t.as_array().shape == (2, 2)
        assert flat(t) == [0.1, 0.2, 0.3, 0.4]

    def test_two_components(self):
        t = bipartite_split(Distribution((0.5, 0.5)))
        assert t.as_array().shape == (2, 1)
        assert flat(t) == [0.5, 0.5]

    def test_odd_case_pads_one_zero(self):
        t = bipartite_split(Distribution((0.2, 0.3, 0.5)))
        assert t.as_array().shape == (2, 2)
        assert flat(t) == [0.2, 0.3, 0.5, 0.0]

    def test_rejects_single_component(self):
        with pytest.raises(DimensionError):
            bipartite_split(Distribution((1.0,)))


class TestGeneralReshape:
    """`relabel` into two axes."""

    def test_uniform(self):
        t = relabel(Distribution((0.25,) * 4), (2, 2))
        assert flat(t) == [0.25] * 4

    def test_degenerate_axis_preserves_vector(self):
        p = Distribution((0.1, 0.2, 0.3, 0.4))
        t = relabel(p, (4, 1))
        first, second = marginals(t)
        assert flat(first) == [1.0]
        assert flat(second) == flat(p)

    def test_padding_matches_bipartite_on_padded_input(self):
        t = relabel(Distribution((0.5, 0.5)), (2, 2))
        assert flat(t) == [0.5, 0.5, 0.0, 0.0]
        padded = bipartite_split(Distribution((0.5, 0.5, 0.0, 0.0)))
        assert flat(t) == flat(padded)

    def test_rejects_too_small_table(self):
        with pytest.raises(DimensionError):
            relabel(Distribution((0.25,) * 4), (1, 3))
        with pytest.raises(DimensionError):
            relabel(Distribution((0.25,) * 4), (0, 4))
        with pytest.raises(DimensionError):
            relabel(Distribution((0.25,) * 4), ())

    def test_plain_sequences_are_validated(self):
        assert flat(relabel([0.5, 0.5], (1, 3))) == [0.5, 0.5, 0.0]
        with pytest.raises(DomainError):
            relabel([0.5, 0.4], (2, 1))


class TestTripartiteReshape:
    """`relabel` into three axes, the layout of strong subadditivity."""

    def test_uniform_eight(self):
        t = relabel(Distribution((0.125,) * 8), (2, 2, 2))
        assert t.as_array().shape == (2, 2, 2)
        assert flat(t) == [0.125] * 8

    def test_delta(self):
        t = relabel(Distribution((1.0, 0.0)), (2, 2, 2))
        assert t.as_array()[0, 0, 0] == 1.0
        assert math.fsum(flat(t)) == 1.0

    def test_row_major_fill_and_pair_marginals(self):
        comps = [i / 21.0 for i in range(1, 7)]
        t = relabel(Distribution(comps), (3, 2, 1))
        assert flat(t) == comps  # row-major keeps flat order
        assert t.as_array()[2, 1, 0] == comps[5]
        for axis in range(3):
            reduced = t.as_array().sum(axis=axis)
            assert abs(math.fsum(reduced.ravel().tolist()) - 1.0) < 1e-12


class TestInterleaveSplit:
    def test_pairs_and_marginals(self):
        t = interleave_split(Distribution((0.4, 0.1, 0.3, 0.2)))
        assert t.as_array().shape == (2, 2)
        assert t.as_array()[0].tolist() == [0.4, 0.1]
        assert t.as_array()[1].tolist() == [0.3, 0.2]
        parity, pairs = marginals(t)
        assert flat(parity) == pytest.approx((0.7, 0.3), abs=1e-15)
        assert flat(pairs) == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_delta(self):
        t = interleave_split(Distribution((1.0, 0.0, 0.0, 0.0)))
        parity, pairs = marginals(t)
        assert flat(parity) == [1.0, 0.0]
        assert flat(pairs) == [1.0, 0.0]

    def test_uniform(self):
        t = interleave_split(Distribution((0.25,) * 4))
        parity, pairs = marginals(t)
        assert flat(parity) == [0.5, 0.5]
        assert flat(pairs) == [0.5, 0.5]

    def test_odd_length_pads(self):
        t = interleave_split(Distribution((0.5, 0.25, 0.25)))
        assert t.as_array().shape == (2, 2)
        assert flat(t) == [0.5, 0.25, 0.25, 0.0]

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            interleave_split(())


class TestEnumerateWeights:
    def test_discrete_positive(self):
        got = enumerate_weights(SeriesKind.DISCRETE_POSITIVE, HalfInt.coerce(-1), 3)
        assert [float(w) for w in got] == [1.0, 2.0, 3.0]

    def test_discrete_negative(self):
        got = enumerate_weights(SeriesKind.DISCRETE_NEGATIVE, HalfInt.coerce(-1), 3)
        assert [float(w) for w in got] == [-1.0, -2.0, -3.0]

    def test_continuous_integer(self):
        got = enumerate_weights(SeriesKind.CONTINUOUS_INTEGER, None, 5)
        assert [float(w) for w in got] == [0.0, 1.0, -1.0, 2.0, -2.0]

    def test_continuous_half_integer(self):
        got = enumerate_weights(SeriesKind.CONTINUOUS_HALF_INTEGER, None, 4)
        assert [float(w) for w in got] == [-0.5, 0.5, -1.5, 1.5]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            enumerate_weights("bogus", None, 3)

    def test_count_must_be_positive(self):
        with pytest.raises(DimensionError, match="count must be at least 1"):
            enumerate_weights(SeriesKind.CONTINUOUS_INTEGER, None, 0)


class TestMarginals:
    def test_hand_example(self):
        t = Distribution([[0.1, 0.2], [0.3, 0.4]])
        first, second = marginals(t)
        assert flat(first) == pytest.approx((0.4, 0.6), abs=1e-15)
        assert flat(second) == pytest.approx((0.3, 0.7), abs=1e-15)

    def test_delta_table(self):
        t = Distribution([[1.0, 0.0], [0.0, 0.0]])
        first, second = marginals(t)
        assert flat(first) == [1.0, 0.0]
        assert flat(second) == [1.0, 0.0]

    def test_product_table_recovers_factors(self):
        p = (0.5, 0.5)
        q = (0.25, 0.25, 0.25, 0.25)
        t = Distribution(np.outer(p, q))
        first, second = marginals(t)
        assert flat(first) == list(q)
        assert flat(second) == list(p)

    def test_requires_2d(self):
        t = relabel(Distribution((0.125,) * 8), (2, 2, 2))
        with pytest.raises(DimensionError):
            marginals(t)
        with pytest.raises(DimensionError):
            marginals(Distribution((0.5, 0.5)))


@settings(max_examples=80, deadline=None)
@given(prob_vectors())
def test_bipartite_round_trip(p):
    t = flat(bipartite_split(p))
    n = p.as_array().size
    assert t[:n] == flat(p)
    assert all(v == 0.0 for v in t[n:])


@settings(max_examples=80, deadline=None)
@given(prob_vectors())
def test_mappings_emit_valid_tables(p):
    n = p.as_array().size
    for table in (
        bipartite_split(p),
        interleave_split(p),
        relabel(p, (n, 2)),
        relabel(p, (n, 2, 1)),
    ):
        assert abs(math.fsum(flat(table)) - 1.0) <= 1e-9
        assert min(flat(table)) >= 0.0


@settings(max_examples=50, deadline=None)
@given(prob_vectors())
def test_degenerate_reshape_marginal_is_identity(p):
    first, second = marginals(relabel(p, (p.as_array().size, 1)))
    assert flat(first) == pytest.approx((1.0,), abs=1e-12)
    assert flat(second) == flat(p)  # single-entry rows stay exact
