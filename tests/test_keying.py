import math
import random

import numpy as np
import pytest

from dafbe.errors import FactorError
from dafbe.keying import ValueKeySet, redundancy


class TestClustering:
    def test_exact_duplicates_collapse(self):
        ks = ValueKeySet.from_values([3.0, 1.0, 3.0, 1.0, 2.0])
        assert ks.reps == (1.0, 2.0, 3.0)

    def test_near_duplicates_share_representative(self):
        ks = ValueKeySet.from_values([1.0, 1.0 + 1e-12, 2.0], eps=1e-10)
        assert ks.reps == (1.0, 2.0)
        assert ks.key(1.0 + 1e-12) == 1.0

    def test_representative_is_smallest_member(self):
        ks = ValueKeySet.from_values([5.0 + 4e-11, 5.0], eps=1e-10)
        assert ks.reps == (5.0,)

    def test_gap_boundary(self):
        # exactly eps apart stays in one cluster; strictly more splits
        assert len(ValueKeySet.from_values([0.0, 1e-10], eps=1e-10)) == 1
        assert len(ValueKeySet.from_values([0.0, 1.1e-10], eps=1e-10)) == 2

    def test_chain_anchors_to_representative(self):
        # the scan measures gaps from the cluster head, so a drifting chain
        # splits once its members leave the head's eps window
        ks = ValueKeySet.from_values([0.0, 0.6e-10, 1.2e-10], eps=1e-10)
        assert ks.reps == (0.0, 1.2e-10)

    def test_infinity_own_key(self):
        ks = ValueKeySet.from_values([1.0, math.inf, 1.0])
        assert ks.has_infinity and len(ks) == 2
        assert ks.key(math.inf) == math.inf

    def test_iteration_order(self):
        ks = ValueKeySet.from_values([math.inf, 2.0, 1.0])
        assert list(ks) == [1.0, 2.0, math.inf]


class TestArrayInput:
    """An ndarray is listed and keyed as any iterable is, with the same result."""

    def test_matches_value_by_value_scan(self):
        rng = random.Random(7)
        pool = [0.0, 1e-10, 1.5e-10, 2.4e-10, 3.0, 3.0 + 1e-11, 7.25, math.inf]
        for _ in range(200):
            values = [rng.choice(pool) for _ in range(rng.randrange(0, 12))]
            for eps in (0.0, 1e-10):
                a = ValueKeySet.from_values(np.asarray(values, dtype=np.float64), eps)
                b = ValueKeySet.from_values(values, eps)
                assert (a.reps, a.has_infinity) == (b.reps, b.has_infinity)

    def test_first_of_equal_values_is_kept(self):
        # 0.0 == -0.0: the representative is whichever comes first, as in
        # the value-by-value scan; large inputs make an unstable sort show
        rng = random.Random(11)
        for _ in range(20):
            values = [rng.choice([0.0, -0.0, 1.0]) for _ in range(1000)]
            rep = ValueKeySet.from_values(np.asarray(values)).reps[0]
            want = ValueKeySet.from_values(values).reps[0]
            assert math.copysign(1.0, rep) == math.copysign(1.0, want)

    def test_rejects_nan_and_negative_infinity(self):
        with pytest.raises(FactorError):
            ValueKeySet.from_values(np.array([1.0, math.nan, math.inf]))
        with pytest.raises(FactorError):
            ValueKeySet.from_values(np.array([-math.inf, 1.0]))


class TestLabels:
    """``labels`` gives each value the index of its ``key`` in ``reps``, -1 for inf."""

    def test_labels_index_each_values_key(self):
        rng = random.Random(31)
        # repeats, both zeros, chains across the eps window and infinity
        pool = [0.0, -0.0, 1e-10, 1.5e-10, 2e-10, 2.4e-10, 3.0, 3.0 + 1e-10, 3.0 + 2e-10, 7.25, math.inf]
        for _ in range(300):
            values = [rng.choice(pool) for _ in range(rng.randrange(0, 16))]
            for eps in (0.0, 1e-10):
                ks = ValueKeySet.from_values(values, eps)
                want = [-1 if v == math.inf else ks.reps.index(ks.key(v)) for v in values]
                assert list(ks.labels) == want, (values, eps)
                arr = ValueKeySet.from_values(np.asarray(values, dtype=np.float64), eps)
                assert list(arr.labels) == want, (values, eps)

    def test_labels_of_a_large_array(self):
        rng = np.random.default_rng(5)
        values = rng.choice([0.0, -0.0, 0.5, 0.5 + 1e-11, 2.0, math.inf], size=5000)
        ks = ValueKeySet.from_values(values)
        assert list(ks.labels) == list(ValueKeySet.from_values(values.tolist()).labels)
        assert list(ks.labels) == [-1 if v == math.inf else ks.reps.index(ks.key(v)) for v in values]

    def test_constructed_set_has_no_labels(self):
        assert ValueKeySet(reps=(1.0,)).labels is None


class TestKeyLookup:
    def test_tie_prefers_lower(self):
        ks = ValueKeySet(eps=1.0, reps=(0.0, 1.5))
        assert ks.key(1.0) == 0.0  # within eps of both, lower wins

    def test_out_of_range_raises(self):
        ks = ValueKeySet.from_values([1.0])
        with pytest.raises(FactorError):
            ks.key(2.0)

    def test_infinity_without_member(self):
        ks = ValueKeySet.from_values([1.0])
        with pytest.raises(FactorError):
            ks.key(math.inf)


class TestValidation:
    def test_nan_rejected(self):
        with pytest.raises(FactorError):
            ValueKeySet.from_values([math.nan])
        with pytest.raises(FactorError):
            ValueKeySet.from_values([1.0]).key(math.nan)

    def test_negative_infinity_rejected(self):
        with pytest.raises(FactorError):
            ValueKeySet.from_values([-math.inf])

    def test_bad_eps(self):
        for eps in (-1.0, math.inf, math.nan):
            with pytest.raises(FactorError):
                ValueKeySet(eps=eps)


class TestRedundancy:
    def test_empty(self):
        assert redundancy([]) == 0.0

    def test_all_distinct(self):
        assert redundancy([1.0, 2.0, 3.0]) == 0.0

    def test_constant(self):
        assert redundancy([4.0] * 10) == 1.0 - 1 / 10

    def test_with_infinities(self):
        assert redundancy([math.inf, math.inf, 1.0, 1.0]) == 0.5

    def test_total_counts_cells_the_values_stand_for(self):
        assert redundancy(np.array([1.0, 2.0]), total=8) == 1.0 - 2 / 8
        assert redundancy(np.array([]), total=0) == 0.0
