"""Kernel-level checks: the vectorized kernels must be bit-identical to
the per-element loops they replaced, and a sampling step (the nucleus,
its running sums, a bisect draw) must equal the composition of the
kernels with ``nucleus_filter``."""

from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from titlegen import _kernels, decode
from titlegen.lm import FLOOR

from .conftest import DummyModel
from .oracles import (
    BETA_SLACK,
    lcs_exhaustive,
    lcs_table,
    loop_apply_temperature,
    loop_nucleus_filter,
    loop_sample_step,
    loop_sample_token,
    stable_rng,
)


def random_dist(rng, size):
    raw = rng.random(size) + 1e-9
    return raw / raw.sum()


def step_draw(dist, beta, t, u) -> int:
    """One sampling step as decoding takes it: the nucleus, its running
    sums, and a bisect draw mapped back to a token id."""
    ids, q = _kernels.nucleus_kernel(dist, beta, t)
    return int(ids[_kernels.sample_step_kernel(q.cumsum(), u)])


def token_draw(probs, u) -> int:
    return _kernels.sample_step_kernel(probs.cumsum(), u)


class TestFusedStep:
    def test_equals_composed_ops(self):
        # Bit-identical decisions: the step shares the temperature, the
        # nucleus and the draw with the composition; it only skips
        # building the filtered vector.
        rng = stable_rng("fused")
        for i in range(300):
            size = int(rng.integers(2, 30))
            dist = random_dist(rng, size)
            beta = float(rng.uniform(0.05, 1.0))
            t = float(rng.choice([0.5, 1.0, 1.7]))
            kept = decode.nucleus_filter(_kernels.apply_temperature_kernel(dist, t), beta)
            u = np.random.default_rng(i).random()
            composed = _kernels.sample_step_kernel(kept.cumsum(), u)
            assert step_draw(dist, beta, t, u) == composed


def same_arrays(got, want) -> bool:
    return all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(got, want))


class TestNucleusCut:
    """``nucleus_cut`` on the ids above a threshold: the dense kernel's
    nucleus when their running sum reaches beta; when it falls short, not
    reached, every entry kept and their running sum as the mass."""

    @settings(max_examples=400, deadline=None)
    @given(
        counts=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=40).filter(
            any
        ),
        scale=st.sampled_from([1.0, 0.5]),
        beta=st.one_of(st.sampled_from([0.3, 0.5, 0.8, 0.99]), st.floats(0.01, 0.999)),
        rank=st.integers(min_value=-1, max_value=5),
    )
    def test_prefix_above_any_threshold(self, counts, scale, beta, rank):
        # Integer plateaus give ties at every threshold; at half scale the
        # whole vector can fall short of beta.
        raw = np.array(counts, dtype=np.float64)
        p = raw / raw.sum() * scale
        levels = np.unique(p)
        v = levels[rank] if 0 <= rank < len(levels) else -1.0
        ids = np.flatnonzero(p > v)
        want = _kernels.nucleus_kernel(p, beta, 1.0)
        # The stable descending order of ``ids`` is a prefix of the whole
        # vector's; it reaches beta if a running sum over it does.
        acc, reached = 0.0, False
        for i in np.argsort(-p, kind="stable")[: len(ids)]:
            acc += p[i]
            if acc >= beta - BETA_SLACK:
                reached = True
                break
        kept, mass, got_reached = _kernels.nucleus_cut(p[None, ids], beta)
        assert got_reached.tolist() == [reached]
        if reached:
            assert same_arrays((ids[kept[0]], p[ids[kept[0]]] / mass[0]), want)
        else:
            assert kept[0].all() and mass[0] == acc
        kept, mass, _ = _kernels.nucleus_cut(p[None], beta)
        assert same_arrays((np.flatnonzero(kept[0]), p[kept[0]] / mass[0]), want)
        dense = np.zeros_like(p)
        dense[want[0]] = want[1]
        np.testing.assert_array_equal(dense, loop_nucleus_filter(p, beta))

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.lists(st.integers(min_value=0, max_value=4), max_size=12), min_size=1, max_size=5
        ),
        scale=st.sampled_from([1.0, 0.5]),
        beta=st.one_of(st.sampled_from([0.3, 0.5, 0.8, 0.99]), st.floats(0.01, 0.999)),
        pad=st.integers(min_value=0, max_value=4),
    )
    def test_padded_rows_cut_as_each_row_alone(self, rows, scale, beta, pad):
        # Rows of different lengths in one zero-padded grid: each row's
        # mask, mass and reach are its own, whatever the padding width,
        # and a row keeps its padding only when it falls short.
        grid = np.zeros((len(rows), max(map(len, rows)) + pad))
        for r, counts in enumerate(rows):
            if any(counts):
                grid[r, : len(counts)] = np.array(counts) / sum(counts) * scale
        kept, mass, reached = _kernels.nucleus_cut(grid, beta)
        for r, counts in enumerate(rows):
            n = len(counts)
            alone = _kernels.nucleus_cut(grid[r : r + 1, :n], beta)
            assert kept[r, :n].tolist() == alone[0][0].tolist()
            assert mass[r : r + 1].tobytes() == alone[1].tobytes()
            assert reached[r] == alone[2][0]
            assert (kept[r, n:] == (not reached[r])).all()

    def test_no_entry_survives_the_tail_bound(self):
        # Every entry lies below (1 - beta) / n: the whole vocabulary is
        # searched, and its mass falls short, so every id is kept.
        p = np.full(8000, 0.1 / 8000)
        ids, q = _kernels.nucleus_kernel(p, 0.8, 1.0)
        np.testing.assert_array_equal(ids, np.arange(8000))
        np.testing.assert_array_equal(q, p / np.cumsum(p)[-1])
        np.testing.assert_array_equal(decode.nucleus_filter(p, 0.8), loop_nucleus_filter(p, 0.8))

    def test_ties_at_the_tail_bound_are_searched_first(self):
        # Four entries sit exactly on (1 - beta) / n = 1/16 and the nucleus
        # needs all of them: the tail bound keeps them, so one cut finds it
        # without searching the whole vocabulary.
        p = np.array([0.25, 0.0625, 0.0625, 0.0625, 0.0625, 0.0, 0.0, 0.0])
        with mock.patch.object(_kernels, "nucleus_cut", wraps=_kernels.nucleus_cut) as cut:
            ids, q = _kernels.nucleus_kernel(p, 0.5, 1.0)
        assert cut.call_count == 1
        np.testing.assert_array_equal(ids, [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(q, [0.5, 0.125, 0.125, 0.125, 0.125])


# Lengths drawn uniformly up to 200: plain lists stay mostly short.
long_ints = st.integers(0, 200).flatmap(
    lambda n: st.lists(st.integers(min_value=0, max_value=6), min_size=n, max_size=n)
)


class TestLcsKernel:
    @given(
        st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=10),
        st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=10),
    )
    @settings(max_examples=150)
    def test_matches_dp_table(self, a, b):
        got = _kernels.lcs_length_kernel(
            np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
        )
        assert int(got) == lcs_table(a, b)

    @given(long_ints, long_ints)
    @settings(max_examples=60, deadline=None)
    def test_matches_dp_table_beyond_one_word(self, a, b):
        # Up to 200 positions of b: the bit vector spans several words.
        want = lcs_table(a, b)
        assert _kernels.lcs_length_kernel(a, b) == want
        arrays = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
        assert _kernels.lcs_length_kernel(*arrays) == want

    def test_matches_exhaustive_oracle_on_random_pairs(self):
        rng = stable_rng("lcs")
        for _ in range(40):
            a = list(rng.integers(0, 3, size=int(rng.integers(0, 12))))
            b = list(rng.integers(0, 3, size=int(rng.integers(0, 12))))
            got = _kernels.lcs_length_kernel(
                np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
            )
            assert int(got) == lcs_exhaustive(a, b)


class TestBackendEquivalence:
    """The vectorized kernels against the per-element loops in
    ``oracles``: same kept sets, masses and draws, bit for bit."""

    def assert_matches_loops(self, dist, beta, t, u):
        scaled = loop_apply_temperature(dist, t)
        np.testing.assert_array_equal(_kernels.apply_temperature_kernel(dist, t), scaled)
        np.testing.assert_array_equal(
            decode.nucleus_filter(scaled, beta), loop_nucleus_filter(scaled, beta)
        )
        assert _kernels.sample_step_kernel(scaled.cumsum(), u) == loop_sample_token(scaled, u)
        step = step_draw(dist, beta, t, u)
        assert step == loop_sample_step(dist, beta, t, u)
        # The split stage: ascending kept ids and their rescaled mass
        # spread back over the vocabulary give the loops' filtered
        # vector, and a plain draw over them gives the step's token.
        ids, q = _kernels.nucleus_kernel(dist, beta, t)
        assert np.all(np.diff(ids) > 0)
        dense = np.zeros_like(dist)
        dense[ids] = q
        np.testing.assert_array_equal(dense, loop_nucleus_filter(scaled, beta))
        j = loop_sample_token(q, u)
        assert (int(ids[j]) if j >= 0 else -1) == step

    def test_impls_match_active_backend(self):
        rng = stable_rng("backend")
        for _ in range(100):
            dist = random_dist(rng, int(rng.integers(2, 40)))
            beta = float(rng.uniform(0.05, 1.0))
            t = float(rng.choice([0.3, 1.0, 2.0]))
            self.assert_matches_loops(dist, beta, t, float(rng.random()))

    def test_vocabulary_sized_cases_match_loops(self):
        rng = stable_rng("backend-8k")
        size = 8000
        floor = np.full(size, FLOOR)
        peaks = floor.copy()
        peaks[rng.integers(0, size, 12)] += rng.random(12) * 1e-3
        plateaus = rng.integers(0, 3, size).astype(np.float64)
        sparse = rng.random(size)
        sparse[rng.random(size) < 0.6] = 0.0
        cases = {
            # Peaks hold under half the mass, so for the larger betas
            # the cut falls inside the plateau of ties at FLOOR.
            "floor_plateau": peaks,
            "integer_plateaus": plateaus,
            "zeros": sparse,
            # Hundreds to thousands of ids in the nucleus: the partial
            # selection window has to widen, up to the whole vector.
            "flat": rng.random(size) + 1.0,
            "uniform": floor,
        }
        for name, raw in cases.items():
            dist = raw / raw.sum()
            for beta in (0.3, 0.8, 0.99, 1.0):
                for t in (1.0, 0.7, 1.5):
                    for u in (0.0, float(rng.random()), np.nextafter(1.0, 0.0)):
                        self.assert_matches_loops(dist, beta, t, float(u))
            if name in ("flat", "uniform"):
                assert (decode.nucleus_filter(dist, 0.8) > 0).sum() > 1000

    def test_mass_short_of_one_matches_loops(self):
        # Kernel inputs need not be normalized. Mass sitting in many small
        # entries, or a total below beta, must still give the loops' cut.
        rng = stable_rng("backend-short")
        size = 8000
        tail = np.full(size, 0.19 / size)
        tail[::2] = 0.0
        tail[rng.integers(0, size, 3)] = [0.5, 0.2, 0.05]
        for dist in (tail, tail * 0.5):
            for beta in (0.3, 0.8, 0.99):
                for u in (0.0, float(rng.random()), np.nextafter(1.0, 0.0)):
                    self.assert_matches_loops(dist, beta, 1.0, float(u))

    def test_cut_at_exact_threshold_mass(self):
        # The running sum lands exactly on beta - slack: that prefix is
        # the nucleus, with nothing after it.
        dist = np.array([0.25, 0.5, 0.125, 0.125])
        beta = 0.75 + 1e-12
        np.testing.assert_array_equal(decode.nucleus_filter(dist, beta), [1 / 3, 2 / 3, 0.0, 0.0])
        self.assert_matches_loops(dist, beta, 1.0, 0.9)

    def test_draw_falls_back_to_last_positive(self):
        # Mass a little below u at beta=1: the walk runs off the end and
        # returns the last positive id, not the trailing zeros.
        dist = np.full(8000, 1.0 / 8000) * (1.0 - 1e-9)
        dist[-5:] = 0.0
        u = float(np.nextafter(1.0, 0.0))
        assert loop_sample_step(dist, 1.0, 1.0, u) == 7994
        self.assert_matches_loops(dist, 1.0, 1.0, u)


class TestSampleTokenKernel:
    """``sample_step_kernel`` over the running sums of a probability
    vector, against the loop draw over the vector."""

    def test_inverse_cdf_walk(self):
        dist = np.array([0.2, 0.0, 0.5, 0.3])
        assert token_draw(dist, 0.0) == 0
        assert token_draw(dist, 0.19) == 0
        assert token_draw(dist, 0.21) == 2
        assert token_draw(dist, 0.69) == 2
        assert token_draw(dist, 0.71) == 3
        assert token_draw(dist, 0.999999) == 3

    def test_rounding_fallback_returns_last_positive(self):
        # Cumulative mass slightly below 1 must still return a token.
        dist = np.array([0.5, 0.5 - 1e-12, 0.0])
        assert token_draw(dist, 1.0 - 1e-15) == 1

    def test_matches_loop_with_zero_and_negative_zero_entries(self):
        # The running sums cover the whole vector, zeros included; a +0.0
        # or -0.0 term leaves each running sum bit-identical. A vector
        # without mass is no draw table (``test_all_zero_or_empty_table``).
        rng = stable_rng("draw-zeros")
        for _ in range(300):
            size = int(rng.integers(1, 30))
            dist = rng.random(size)
            dist[rng.random(size) < 0.4] = 0.0
            dist[rng.random(size) < 0.3] = -0.0
            total = float(np.cumsum(dist)[-1])
            if not total > 0.0:
                continue
            for u in (0.0, float(rng.random()) * total, total, float(np.nextafter(total, 2.0))):
                assert token_draw(dist, u) == loop_sample_token(dist, u)
        for dist in ([-0.0, 0.25, 0.0, 0.5], [0.0, -0.0, 0.75], [0.5, -0.0, 0.0]):
            dist = np.array(dist)
            for u in (0.0, 0.25, 0.5, 0.74, 0.75, 0.99):
                assert token_draw(dist, u) == loop_sample_token(dist, u)

    def test_all_zero_vector_draws_nothing(self):
        # The loop draw only: no table without mass reaches the kernel
        # (``TestSampleStepKernel::test_all_zero_or_empty_table``).
        for dist in ([0.0], [0.0, 0.0, 0.0], [-0.0, 0.0, -0.0]):
            for u in (0.0, 0.5):
                assert loop_sample_token(np.array(dist), u) == -1

    def test_u_at_or_above_total_returns_last_positive(self):
        dist = np.array([0.125, 0.0, 0.25, 0.0, -0.0])
        for u in (0.375, 0.5, float(np.nextafter(1.0, 0.0))):
            assert token_draw(dist, u) == 2 == loop_sample_token(dist, u)


class TestSampleStepKernel:
    """The bisect draw over a table of running sums against the loop
    draw over the probabilities."""

    @staticmethod
    def assert_matches_token_draw(q, u):
        want = loop_sample_token(q, u)
        cdf = q.cumsum()
        for table in (cdf, cdf.tolist(), array("d", cdf.tobytes())):
            assert _kernels.sample_step_kernel(table, u) == want

    def test_zero_entries(self):
        rng = stable_rng("step-zeros")
        for _ in range(300):
            size = int(rng.integers(1, 30))
            q = rng.random(size)
            q[rng.random(size) < 0.4] = 0.0
            q[rng.random(size) < 0.3] = -0.0
            if not q.cumsum()[-1] > 0.0:
                continue
            for u in (0.0, float(rng.random()) * float(q.cumsum()[-1])):
                self.assert_matches_token_draw(q, u)

    def test_u_on_a_running_sum(self):
        q = np.array([0.125, 0.0, 0.25, 0.0, 0.5, 0.125])
        for u in (*q.cumsum().tolist(), 0.0):
            self.assert_matches_token_draw(q, u)
        assert _kernels.sample_step_kernel(q.cumsum(), 0.375) == 4

    def test_u_at_or_above_total(self):
        for q in ([0.125, 0.0, 0.25, 0.0, -0.0], [0.5, 0.5 - 1e-12, 0.0], [0.25, 0.25, 0.0]):
            q = np.array(q)
            total = float(q.cumsum()[-1])
            for u in (total, float(np.nextafter(total, 2.0)), float(np.nextafter(1.0, 0.0))):
                if u >= total:
                    self.assert_matches_token_draw(q, u)
        assert _kernels.sample_step_kernel(np.array([0.125, 0.0, 0.25, 0.0]).cumsum(), 0.5) == 2

    def test_all_zero_or_empty_table(self):
        # The kernel draws from tables with mass only: the memo refuses
        # the others before any is built.
        memo = decode.NucleusMemo(DummyModel(8, 0), 0.8, 1.0)
        for q in ([0.0], [0.0, 0.0, 0.0], [-0.0, 0.0, -0.0]):
            with pytest.raises(ValueError, match="positive mass, got 0.0$"):
                memo._from_nuclei([(np.arange(len(q)), np.array(q))])
        with pytest.raises(ValueError, match="at least one"):
            memo._from_nuclei([(np.array([], dtype=np.int64), np.array([]))])
