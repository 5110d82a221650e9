"""Unit tests for CommunityChain and its frozen member-list reference."""

import numpy as np
import pytest

from repro.errors import HierarchyError
from repro.hierarchy.chain import CommunityChain

from tests.conftest import C0, C3, C4, C6
from tests.oracle.reference import ReferenceChain


class TestFromHierarchy:
    def test_paper_chain_for_v0(self, paper_hierarchy):
        chain = CommunityChain.from_hierarchy(paper_hierarchy, 0)
        assert len(chain) == 4
        assert list(chain.sizes) == [4, 6, 8, 10]
        assert sorted(chain.members(0)) == [0, 1, 2, 3]
        assert sorted(chain.members(3)) == list(range(10))

    def test_depths_from_hierarchy(self, paper_hierarchy):
        chain = CommunityChain.from_hierarchy(paper_hierarchy, 0)
        assert [chain.depth(i) for i in range(4)] == [4, 3, 2, 1]

    def test_node_levels(self, paper_hierarchy):
        chain = CommunityChain.from_hierarchy(paper_hierarchy, 0)
        # v0..v3 in C0 (level 0); v6, v7 enter at C3 (level 1);
        # v4, v5 at C4 (level 2); v8, v9 only at the root (level 3).
        assert [chain.level_of(v) for v in range(10)] == [
            0, 0, 0, 0, 2, 2, 1, 1, 3, 3
        ]

    def test_validates_nesting(self, paper_hierarchy):
        chain = CommunityChain.from_hierarchy(paper_hierarchy, 0)
        chain.validate_nesting()  # must not raise

    def test_every_leaf_gets_a_chain(self, paper_hierarchy):
        for q in range(10):
            chain = CommunityChain.from_hierarchy(paper_hierarchy, q)
            assert chain.level_of(q) == 0
            chain.validate_nesting()

    def test_non_leaf_query_rejected(self, paper_hierarchy):
        with pytest.raises(HierarchyError):
            CommunityChain.from_hierarchy(paper_hierarchy, C0)


class TestConstructor:
    """The level-array constructor: node levels, sizes and depths."""

    def test_basic(self):
        chain = CommunityChain(2, [2, 1, 0, 0, 2, 2], [2, 3, 6], [3, 2, 1])
        assert len(chain) == 3
        assert chain.n == 6
        assert chain.level_of(2) == 0
        assert chain.level_of(1) == 1
        assert chain.level_of(5) == 2
        assert chain.members(1).tolist() == [1, 2, 3]
        chain.validate_nesting()

    def test_outside_nodes(self):
        chain = CommunityChain(2, [-1, 1, 0, 0, -1, -1], [2, 3], [2, 1])
        assert chain.level_of(5) == CommunityChain.OUTSIDE
        assert chain.level_of(0) == CommunityChain.OUTSIDE
        assert chain.members(1).tolist() == [1, 2, 3]
        chain.validate_nesting()

    def test_members_ascending(self):
        chain = CommunityChain(4, [1, -1, 0, 1, 0, 0], [3, 5], [2, 1])
        assert chain.members(0).tolist() == [2, 4, 5]
        assert chain.members(1).tolist() == [0, 2, 3, 4, 5]
        assert chain.members(1).dtype == np.int64

    def test_query_not_at_level_zero_rejected(self):
        with pytest.raises(HierarchyError, match="level 0"):
            CommunityChain(0, [1, 0, 0, 1], [2, 4], [2, 1])

    def test_non_growing_sizes_rejected(self):
        with pytest.raises(HierarchyError, match="strictly grow"):
            CommunityChain(0, [0, 0, 1, -1], [2, 2], [2, 1])

    def test_empty_chain_rejected(self):
        with pytest.raises(HierarchyError, match="at least one"):
            CommunityChain(0, [0, -1], [], [])

    def test_depths_must_align(self):
        with pytest.raises(HierarchyError, match="different lengths"):
            CommunityChain(0, [0, 0, 1], [2, 3], [1])

    def test_sizes_disagreeing_with_levels_detected_by_validator(self):
        # Levels give cumulative sizes [2, 4]; the chain claims [2, 3].
        chain = CommunityChain(0, [0, 0, 1, 1, -1, -1], [2, 3], [2, 1])
        with pytest.raises(HierarchyError, match="disagree"):
            chain.validate_nesting()

    @pytest.mark.parametrize("bad", [-2, 2])
    def test_level_out_of_range_detected_by_validator(self, bad):
        chain = CommunityChain(0, [0, 0, 1, bad], [2, 3], [2, 1])
        with pytest.raises(HierarchyError, match="must lie in"):
            chain.validate_nesting()


class TestFromMemberLists:
    """The frozen member-list constructor the differential tests trust."""

    def test_basic(self):
        chain = ReferenceChain.from_member_lists(
            6, 2, [[2, 3], [1, 2, 3], [0, 1, 2, 3, 4, 5]]
        )
        assert len(chain) == 3
        assert chain.level_of(2) == 0
        assert chain.level_of(1) == 1
        assert chain.level_of(5) == 2
        chain.validate_nesting()

    def test_outside_nodes(self):
        chain = ReferenceChain.from_member_lists(6, 2, [[2, 3], [1, 2, 3]])
        assert chain.level_of(5) == ReferenceChain.OUTSIDE
        assert chain.level_of(0) == ReferenceChain.OUTSIDE

    def test_synthetic_depths_descend(self):
        chain = ReferenceChain.from_member_lists(4, 0, [[0, 1], [0, 1, 2, 3]])
        assert chain.depth(0) > chain.depth(1)

    def test_query_not_in_deepest_rejected(self):
        with pytest.raises(HierarchyError):
            ReferenceChain.from_member_lists(4, 0, [[1, 2], [0, 1, 2, 3]])

    def test_non_growing_sizes_rejected(self):
        with pytest.raises(HierarchyError, match="strictly grow"):
            ReferenceChain.from_member_lists(4, 0, [[0, 1], [0, 2]])

    def test_non_nested_detected_by_validator(self):
        chain = ReferenceChain.from_member_lists(6, 0, [[0, 1], [0, 2, 3]])
        with pytest.raises(HierarchyError, match="does not contain"):
            chain.validate_nesting()

    def test_duplicate_members_collapse(self):
        chain = ReferenceChain.from_member_lists(4, 0, [[0, 0, 1], [0, 1, 2]])
        assert list(chain.sizes) == [2, 3]


    @pytest.mark.parametrize("seed", range(5))
    def test_list_and_array_input_agree(self, seed):
        # Unsorted members with duplicates, as lists and as int32/int64
        # arrays, must give the same chain.
        rng = np.random.default_rng(seed)
        n = 30
        order = [0, *rng.permutation(np.arange(1, n)).tolist()]
        sizes = sorted(rng.choice(np.arange(2, n + 1), size=4, replace=False))
        member_lists = []
        for size in sizes:
            ms = rng.permutation(order[:size]).tolist()
            member_lists.append(ms + ms[: size // 3])
        depths = [7, 5, 3, 1]
        as_lists = ReferenceChain.from_member_lists(n, 0, member_lists, depths)
        for dtype in (np.int64, np.int32):
            as_arrays = ReferenceChain.from_member_lists(
                n, 0, [np.asarray(ms, dtype=dtype) for ms in member_lists], depths
            )
            assert np.array_equal(as_arrays.node_levels, as_lists.node_levels)
            for level in range(len(as_lists)):
                assert as_arrays.members(level).dtype == np.int64
                assert np.array_equal(
                    as_arrays.members(level), as_lists.members(level)
                )
                assert as_arrays.members(level).tolist() == sorted(
                    set(member_lists[level])
                )
                assert as_arrays.depth(level) == as_lists.depth(level)
        as_lists.validate_nesting()


class TestPrefix:
    def test_prefix_truncates(self, paper_hierarchy):
        chain = CommunityChain.from_hierarchy(paper_hierarchy, 0)
        prefix = chain.prefix(2)
        assert len(prefix) == 2
        assert list(prefix.sizes) == [4, 6]
        # Nodes only present above the cut become OUTSIDE.
        assert prefix.level_of(4) == CommunityChain.OUTSIDE
        assert prefix.level_of(8) == CommunityChain.OUTSIDE
        assert prefix.level_of(6) == 1

    def test_prefix_keeps_depths(self, paper_hierarchy):
        chain = CommunityChain.from_hierarchy(paper_hierarchy, 0)
        prefix = chain.prefix(2)
        assert [prefix.depth(i) for i in range(2)] == [4, 3]

    def test_full_prefix_is_identity(self, paper_hierarchy):
        chain = CommunityChain.from_hierarchy(paper_hierarchy, 0)
        prefix = chain.prefix(len(chain))
        assert np.array_equal(prefix.node_levels, chain.node_levels)

    def test_bad_length_rejected(self, paper_hierarchy):
        chain = CommunityChain.from_hierarchy(paper_hierarchy, 0)
        with pytest.raises(HierarchyError):
            chain.prefix(0)
        with pytest.raises(HierarchyError):
            chain.prefix(99)

    def test_prefix_does_not_mutate_original(self, paper_hierarchy):
        chain = CommunityChain.from_hierarchy(paper_hierarchy, 0)
        before = chain.node_levels.copy()
        chain.prefix(1)
        assert np.array_equal(chain.node_levels, before)


class TestRepr:
    def test_repr_mentions_query(self, paper_hierarchy):
        chain = CommunityChain.from_hierarchy(paper_hierarchy, 0)
        assert "q=0" in repr(chain)
