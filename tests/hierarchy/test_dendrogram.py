"""Unit tests for the CommunityHierarchy tree."""

import numpy as np
import pytest

from repro.errors import HierarchyError
from repro.hierarchy.dendrogram import CommunityHierarchy, map_clusters, same_hierarchy

from tests.conftest import C0, C1, C2, C3, C4, C5, C6


class TestFromMerges:
    def test_binary_merges(self):
        # ((0,1),(2,3)) -> root
        h = CommunityHierarchy.from_merges(4, [(0, 1), (2, 3), (4, 5)])
        assert h.n_vertices == 7
        assert h.root == 6
        assert h.size(4) == 2
        assert h.size(6) == 4

    def test_cluster_merged_twice_rejected(self):
        with pytest.raises(HierarchyError, match="twice"):
            CommunityHierarchy.from_merges(3, [(0, 1), (0, 2)])

    def test_future_cluster_rejected(self):
        with pytest.raises(HierarchyError):
            CommunityHierarchy.from_merges(3, [(0, 4), (1, 2)])

    def test_singleton_merge_rejected(self):
        with pytest.raises(HierarchyError, match="at least two"):
            CommunityHierarchy.from_merges(2, [(0,), (1,)])

    def test_partial_cover_rejected(self):
        # Root covering only 2 of 3 leaves.
        with pytest.raises(HierarchyError):
            CommunityHierarchy.from_merges(3, [(0, 1)])


class TestPaperHierarchy:
    def test_depths_match_example2(self, paper_hierarchy):
        assert paper_hierarchy.depth(C6) == 1
        assert paper_hierarchy.depth(C4) == 2
        assert paper_hierarchy.depth(C3) == 3
        assert paper_hierarchy.depth(C0) == 4

    def test_sizes(self, paper_hierarchy):
        assert paper_hierarchy.size(C0) == 4
        assert paper_hierarchy.size(C3) == 6
        assert paper_hierarchy.size(C4) == 8
        assert paper_hierarchy.size(C6) == 10

    def test_members(self, paper_hierarchy):
        assert sorted(paper_hierarchy.members(C0)) == [0, 1, 2, 3]
        assert sorted(paper_hierarchy.members(C3)) == [0, 1, 2, 3, 6, 7]
        assert sorted(paper_hierarchy.members(C4)) == [0, 1, 2, 3, 4, 5, 6, 7]
        assert sorted(paper_hierarchy.members(C6)) == list(range(10))

    def test_h_of_v0_matches_example2(self, paper_hierarchy):
        # H(v0) = {C0, C3, C4, C6}, deepest first.
        assert paper_hierarchy.path_communities(0) == [C0, C3, C4, C6]

    def test_h_of_v5(self, paper_hierarchy):
        assert paper_hierarchy.path_communities(5) == [C1, C4, C6]

    def test_lca_matches_example2(self, paper_hierarchy):
        assert paper_hierarchy.lca(0, 6) == C3
        assert paper_hierarchy.lca(0, 1) == C0
        assert paper_hierarchy.lca(0, 5) == C4
        assert paper_hierarchy.lca(0, 9) == C6
        assert paper_hierarchy.lca(4, 5) == C1

    def test_lca_with_community_argument(self, paper_hierarchy):
        assert paper_hierarchy.lca(0, C1) == C4
        assert paper_hierarchy.lca(C0, C2) == C3
        assert paper_hierarchy.lca(5, C3) == C4

    def test_lca_self(self, paper_hierarchy):
        assert paper_hierarchy.lca(3, 3) == 3
        assert paper_hierarchy.lca(C4, C4) == C4

    def test_contains(self, paper_hierarchy):
        assert paper_hierarchy.contains(C3, 7)
        assert not paper_hierarchy.contains(C3, 4)
        assert paper_hierarchy.contains(C6, 9)

    def test_is_ancestor(self, paper_hierarchy):
        assert paper_hierarchy.is_ancestor(C6, C0)
        assert paper_hierarchy.is_ancestor(C4, C4)
        assert not paper_hierarchy.is_ancestor(C0, C4)
        assert not paper_hierarchy.is_ancestor(C1, C2)

    def test_ancestors_order(self, paper_hierarchy):
        assert list(paper_hierarchy.ancestors(C0)) == [C3, C4, C6]
        assert list(paper_hierarchy.ancestors(C0, include_self=True)) == [C0, C3, C4, C6]

    def test_is_leaf(self, paper_hierarchy):
        assert paper_hierarchy.is_leaf(3)
        assert not paper_hierarchy.is_leaf(C0)

    def test_parent_children_consistency(self, paper_hierarchy):
        for vertex in range(paper_hierarchy.n_vertices):
            for child in paper_hierarchy.children(vertex):
                assert paper_hierarchy.parent(child) == vertex

    def test_internal_vertices(self, paper_hierarchy):
        internal = list(paper_hierarchy.internal_vertices())
        assert internal == [C0, C1, C2, C5, C3, C4, C6]

    def test_total_leaf_depth(self, paper_hierarchy):
        # Leaf depths (root = 1): v0..v3 under C0 -> 5; v6, v7 under C2
        # (itself under C3) -> 5; v4, v5 under C1 -> 4; v8, v9 under C5 -> 3.
        assert paper_hierarchy.total_leaf_depth() == 4 * 5 + 2 * 5 + 2 * 4 + 2 * 3

    def test_members_are_slices_of_one_permutation(self, paper_hierarchy):
        order = paper_hierarchy.members(paper_hierarchy.root)
        assert sorted(order) == list(range(10))

    def test_bulk_arrays_and_member_views_are_read_only(self, paper_hierarchy):
        # members() hands out views: a write through one must not reach
        # the hierarchy.
        h = paper_hierarchy
        for array in (h.parents, h.depths, h.sizes, h.leaf_order,
                      h.member_starts, h.members(C3)):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = -1
        assert sorted(h.members(C3)) == [0, 1, 2, 3, 6, 7]


class TestParentArrayRoundTrip:
    """``parents`` and ``from_parents`` are inverse: the saved-index form."""

    def test_roundtrip_paper_tree(self, paper_hierarchy):
        loaded = CommunityHierarchy.from_parents(
            paper_hierarchy.n_leaves, paper_hierarchy.parents.tolist()
        )
        assert loaded.n_leaves == paper_hierarchy.n_leaves
        assert [loaded.parent(v) for v in range(loaded.n_vertices)] == [
            paper_hierarchy.parent(v) for v in range(paper_hierarchy.n_vertices)
        ]

    def test_roundtrip_preserves_queries(self, paper_graph):
        from repro.hierarchy.nnchain import agglomerative_hierarchy

        h = agglomerative_hierarchy(paper_graph)
        loaded = CommunityHierarchy.from_parents(h.n_leaves, h.parents.tolist())
        for q in range(paper_graph.n):
            assert loaded.path_communities(q) == h.path_communities(q)
        for v in range(h.n_vertices):
            assert loaded.depth(v) == h.depth(v)
            assert loaded.size(v) == h.size(v)


class TestValidation:
    def test_multiple_roots_rejected(self):
        with pytest.raises(HierarchyError, match="root"):
            CommunityHierarchy.from_parents(2, [-1, -1])

    def test_leaf_with_children_rejected(self):
        # Vertex 1 (a leaf) is the parent of vertex 0.
        with pytest.raises(HierarchyError):
            CommunityHierarchy.from_parents(2, [1, -1])

    def test_childless_internal_rejected(self):
        # Vertex 2 is internal (id >= n_leaves) but nothing points to it.
        with pytest.raises(HierarchyError, match="no children"):
            CommunityHierarchy.from_parents(2, [3, 3, 3, -1])

    def test_out_of_range_parent_rejected(self):
        with pytest.raises(HierarchyError, match="out of range"):
            CommunityHierarchy.from_parents(2, [2, 9, -1])

    def test_bad_vertex_query(self, paper_hierarchy):
        with pytest.raises(HierarchyError):
            paper_hierarchy.depth(99)

    def test_contains_non_leaf_rejected(self, paper_hierarchy):
        with pytest.raises(HierarchyError):
            paper_hierarchy.contains(C6, C0)


class TestFlatPartitions:
    def test_partition_at_size_covers_all_leaves(self, paper_hierarchy):
        for max_size in (1, 2, 4, 6, 10):
            partition = paper_hierarchy.partition_at_size(max_size)
            covered = sorted(
                int(v) for p in partition for v in paper_hierarchy.members(p)
            )
            assert covered == list(range(10))
            assert all(paper_hierarchy.size(p) <= max_size for p in partition)

    def test_partition_at_size_maximal(self, paper_hierarchy):
        # With max_size = 6, C3 (size 6) is kept whole rather than split.
        partition = paper_hierarchy.partition_at_size(6)
        assert C3 in partition

    def test_partition_at_size_one_is_leaves(self, paper_hierarchy):
        assert paper_hierarchy.partition_at_size(1) == list(range(10))

    def test_partition_at_size_n_is_root(self, paper_hierarchy):
        assert paper_hierarchy.partition_at_size(10) == [paper_hierarchy.root]

    def test_partition_at_depth(self, paper_hierarchy):
        # Depth 2: C4 and C5 cover everything.
        assert paper_hierarchy.partition_at_depth(2) == sorted([C4, C5])

    def test_partition_at_depth_covers(self, paper_hierarchy):
        for depth in (1, 2, 3, 4):
            partition = paper_hierarchy.partition_at_depth(depth)
            covered = sorted(
                int(v) for p in partition for v in paper_hierarchy.members(p)
            )
            assert covered == list(range(10))

    def test_invalid_args(self, paper_hierarchy):
        with pytest.raises(HierarchyError):
            paper_hierarchy.partition_at_size(0)
        with pytest.raises(HierarchyError):
            paper_hierarchy.partition_at_depth(0)

    def test_partition_modularity_sane(self, paper_graph, paper_hierarchy):
        from repro.graph.metrics import modularity

        partition = paper_hierarchy.partition_at_size(4)
        blocks = [list(paper_hierarchy.members(p)) for p in partition]
        assert modularity(paper_graph, blocks) > 0


class TestLayout:
    def test_subtree_ranges_nested(self, paper_hierarchy):
        # Children's member sets partition the parent's member set.
        for vertex in paper_hierarchy.internal_vertices():
            kids = paper_hierarchy.children(vertex)
            combined = sorted(
                int(v) for child in kids for v in paper_hierarchy.members(child)
            )
            assert combined == sorted(int(v) for v in paper_hierarchy.members(vertex))

    def test_deep_hierarchy_no_recursion_error(self):
        # A maximally skewed (caterpillar) dendrogram with 3000 leaves.
        n = 3000
        merges = [(0, 1)]
        for leaf in range(2, n):
            merges.append((n + leaf - 2, leaf))
        h = CommunityHierarchy.from_merges(n, merges)
        assert h.size(h.root) == n
        assert h.depth(0) == n  # deepest leaf
        assert h.lca(0, n - 1) == h.root

    def test_memory_bytes_positive(self, paper_hierarchy):
        assert paper_hierarchy.memory_bytes() > 0

    @pytest.mark.parametrize("n", [2, 5, 64])
    def test_binary_memory_bytes_is_a_binary_hierarchys_footprint(self, n):
        caterpillar = [(0, 1)] + [(n + leaf - 2, leaf) for leaf in range(2, n)]
        balanced = []
        frontier = list(range(n))
        nxt = n
        while len(frontier) > 1:
            balanced.append((frontier.pop(0), frontier.pop(0)))
            frontier.append(nxt)
            nxt += 1
        for merges in (caterpillar, balanced):
            h = CommunityHierarchy.from_merges(n, merges)
            assert h.memory_bytes() == CommunityHierarchy.binary_memory_bytes(n)

    def test_binary_memory_bytes_bounds_wider_merges(self, paper_hierarchy):
        # C_0 holds four leaves: fewer vertices than a binary tree.
        assert paper_hierarchy.memory_bytes() < CommunityHierarchy.binary_memory_bytes(
            paper_hierarchy.n_leaves
        )

    def test_repr(self, paper_hierarchy):
        assert "leaves=10" in repr(paper_hierarchy)


class TestMapClusters:
    def test_equal_hierarchies_map_by_identity(self, paper_hierarchy):
        clusters = map_clusters(paper_hierarchy, paper_hierarchy)
        identity = np.arange(paper_hierarchy.n_vertices)
        np.testing.assert_array_equal(clusters.to_new, identity)
        np.testing.assert_array_equal(clusters.to_old, identity)
        assert not clusters.changed.any()

    def test_moved_leaf_unmaps_both_pairs(self):
        # Old {0,1} and new {1,2} have no counterpart; {0,1,2} and the
        # root keep their members.
        old = CommunityHierarchy.from_merges(4, [(0, 1), (4, 2), (5, 3)])
        new = CommunityHierarchy.from_merges(4, [(1, 2), (0, 4), (5, 3)])
        clusters = map_clusters(old, new)
        np.testing.assert_array_equal(clusters.to_new, [0, 1, 2, 3, -1, 5, 6])
        np.testing.assert_array_equal(clusters.to_old, [0, 1, 2, 3, -1, 5, 6])
        np.testing.assert_array_equal(clusters.changed, [True, True, True, False])

    def test_one_child_chain_stays_unmapped(self):
        # Old vertices 3 and 4 both hold {0, 1}; neither may claim new 3.
        old = CommunityHierarchy.from_parents(3, [3, 3, 5, 4, 5, -1])
        new = CommunityHierarchy.from_merges(3, [(0, 1), (3, 2)])
        clusters = map_clusters(old, new)
        np.testing.assert_array_equal(clusters.to_new, [0, 1, 2, -1, -1, 4])
        np.testing.assert_array_equal(clusters.to_old, [0, 1, 2, -1, 5])
        np.testing.assert_array_equal(clusters.changed, [True, True, False])

    def test_leaf_count_mismatch_rejected(self, paper_hierarchy):
        other = CommunityHierarchy.from_merges(3, [(0, 1), (3, 2)])
        with pytest.raises(HierarchyError, match="cannot map"):
            map_clusters(paper_hierarchy, other)

    def test_same_hierarchy_compares_parents(self, paper_hierarchy):
        copy = CommunityHierarchy.from_parents(
            paper_hierarchy.n_leaves, paper_hierarchy.parents
        )
        assert same_hierarchy(paper_hierarchy, copy)
        old = CommunityHierarchy.from_merges(4, [(0, 1), (4, 2), (5, 3)])
        new = CommunityHierarchy.from_merges(4, [(1, 2), (0, 4), (5, 3)])
        assert not same_hierarchy(old, new)
        assert not same_hierarchy(old, paper_hierarchy)
