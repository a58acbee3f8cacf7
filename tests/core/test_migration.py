"""Tests for migration-plan construction."""

import pytest

from repro.core.migration import VertexMove, build_migration_plan
from repro.exceptions import PartitioningError


def vars_of(move):
    return (move.vertex, move.source, move.target)


class TestBuildPlan:
    def test_from_moves_map(self):
        plan = build_migration_plan({1: (0, 2), 2: (1, 0), 3: (0, 2)})
        assert plan.num_moves == 3
        assert {move.vertex for move in plan.moves} == {1, 2, 3}

    def test_rejects_noop_moves(self):
        with pytest.raises(PartitioningError):
            build_migration_plan({1: (2, 2)})

    def test_empty_plan(self):
        plan = build_migration_plan({})
        assert plan.num_moves == 0
        assert plan.by_pair() == {}


class TestGrouping:
    @pytest.fixture
    def plan(self):
        return build_migration_plan({1: (0, 2), 2: (1, 0), 3: (0, 2), 4: (2, 1)})

    def test_by_pair_covers_every_move_once(self, plan):
        grouped = plan.by_pair()
        flat = [m for moves in grouped.values() for m in moves]
        assert sorted(flat, key=vars_of) == sorted(plan.moves, key=vars_of)
        for (source, target), moves in grouped.items():
            assert {(m.source, m.target) for m in moves} == {(source, target)}

    def test_by_pair_groups_each_pair_in_plan_order(self):
        plan = build_migration_plan({5: (1, 2), 1: (0, 2), 3: (1, 2), 2: (0, 2)})
        grouped = plan.by_pair()
        assert [m.vertex for m in grouped[(0, 2)]] == [1, 2]
        assert [m.vertex for m in grouped[(1, 2)]] == [3, 5]

    def test_by_pair_orders_groups_by_first_move(self):
        plan = build_migration_plan(
            {5: (1, 2), 1: (0, 2), 3: (1, 2), 2: (0, 2), 4: (2, 0), 9: (0, 1)}
        )
        # plan order is (target, vertex): 4, 9, 1, 2, 3, 5
        assert list(plan.by_pair()) == [(2, 0), (0, 1), (0, 2), (1, 2)]

    def test_moves_sorted_by_target(self, plan):
        targets = [move.target for move in plan.moves]
        assert targets == sorted(targets)

    def test_vertex_move_fields(self):
        move = VertexMove(vertex=5, source=1, target=3)
        assert (move.vertex, move.source, move.target) == (5, 1, 3)
