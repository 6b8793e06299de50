"""Tests for relay-path installation and per-topic relay tables."""

from repro.core.relay import RelayStats, RelayTable, clear_topic, install_path
from repro.smallworld.routing import LookupResult


def tables(n):
    return {a: RelayTable(a) for a in range(n)}


def lookup(path, success=True):
    return LookupResult(target_id=0, path=list(path), success=success)


class TestRelayTable:
    def test_initially_off_tree(self):
        t = RelayTable(1)
        assert not t.on_tree(5)
        assert t.tree_neighbors(5) == []

    def test_parent_and_children(self):
        t = RelayTable(1)
        t.set_parent(5, 2)
        t.add_child(5, 3)
        t.add_child(5, 4)
        assert t.on_tree(5)
        assert set(t.tree_neighbors(5)) == {2, 3, 4}

    def test_drop_topic(self):
        t = RelayTable(1)
        t.set_parent(5, 2)
        t.add_child(6, 3)
        t.drop_topic(5)
        assert not t.on_tree(5)
        assert t.on_tree(6)

    def test_clear_and_topics(self):
        t = RelayTable(1)
        t.set_parent(5, 2)
        t.add_child(6, 3)
        assert (set(t.parent) | set(t.children)) == {5, 6}
        t.clear()
        assert (set(t.parent) | set(t.children)) == set()


class TestInstallPath:
    def test_installs_parent_child_chain(self):
        tbl = tables(4)
        assert install_path(9, lookup([0, 1, 2, 3]), tbl)
        assert tbl[0].parent[9] == 1
        assert tbl[1].parent[9] == 2
        assert tbl[2].parent[9] == 3
        assert 3 not in tbl[3].parent
        assert tbl[3].children[9] == {2}
        assert tbl[1].children[9] == {0}

    def test_trivial_path_gateway_is_rendezvous(self):
        tbl = tables(2)
        assert install_path(9, lookup([0]), tbl)
        assert not tbl[0].on_tree(9)

    def test_graft_stops_at_existing_branch(self):
        tbl = tables(5)
        stats = RelayStats()
        install_path(9, lookup([0, 2, 4]), tbl, stats)
        # Second path joins node 2, which already has a parent for 9.
        install_path(9, lookup([1, 2, 3]), tbl, stats)
        assert stats.grafts == 1
        assert tbl[2].parent[9] == 4   # unchanged: grafted, not rerouted
        assert tbl[2].children[9] == {0, 1}
        assert not tbl[3].on_tree(9)   # the tail past the graft never installs

    def test_failed_lookup_not_installed(self):
        tbl = tables(3)
        stats = RelayStats()
        assert not install_path(9, lookup([0, 1], success=False), tbl, stats)
        assert stats.failed_lookups == 1
        assert not tbl[0].on_tree(9)

    def test_stats_accumulate(self):
        tbl = tables(4)
        stats = RelayStats()
        install_path(9, lookup([0, 1, 2]), tbl, stats)
        assert stats.paths_installed == 1
        assert stats.total_path_hops == 2
        assert stats.rendezvous[9] == 2

    def test_stats_reset(self):
        stats = RelayStats()
        stats.paths_installed = 3
        stats.rendezvous[1] = 5
        stats.reset()
        assert stats.paths_installed == 0
        assert stats.rendezvous == {}

    def test_tree_connectivity(self):
        """All installed paths of a topic form one tree rooted at the
        rendezvous: every on-tree node reaches the root via parents."""
        tbl = tables(8)
        install_path(9, lookup([0, 3, 7]), tbl)
        install_path(9, lookup([1, 3, 6]), tbl)   # grafts at 3
        install_path(9, lookup([2, 5, 7]), tbl)
        root = 7
        for a, t in tbl.items():
            if not t.on_tree(9) or a == root:
                continue
            hops = 0
            cur = a
            while cur != root and hops < 10:
                cur = tbl[cur].parent.get(9, root)
                hops += 1
            assert cur == root


class TestClearTopic:
    def test_clears_across_population(self):
        tbl = tables(4)
        install_path(9, lookup([0, 1, 2]), tbl)
        clear_topic(9, tbl.values())
        assert all(not t.on_tree(9) for t in tbl.values())
