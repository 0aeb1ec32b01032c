"""The engine's columnar slot problem.

The engine builds each slot problem as per-slot columns over the
scenario's static columns (:class:`repro.core.problem.SlotColumns`,
:class:`~repro.core.problem.StaticColumns`) and never constructs a
:class:`~repro.core.problem.UserDemand` row.  These tests pin:

* that no production slot path builds a row, for every scheme;
* that the engine's columns equal, bit for bit, the columns of
  ``SlotProblem(users=...)`` over the rows the engine used to build;
* that the per-slot validation raises the row type's errors.
"""

import math

import pytest

from repro.core.problem import (
    SlotColumns,
    SlotProblem,
    StaticColumns,
    UserDemand,
)
from repro.experiments.citygrid import city_grid_scenario
from repro.experiments.scenarios import interfering_fbs_scenario
from repro.sim.build import build_scenario
from repro.sim.engine import SimulationEngine
from repro.utils.errors import ConfigurationError
from repro.video.sequences import rd_slot_increment
from tests.conftest import make_problem, make_user

SCHEMES = ("proposed", "proposed-fast", "heuristic1", "heuristic2",
           "graph-coloring")


def grid_4x4(scheme, seed=5):
    return city_grid_scenario(rows=4, cols=4, users_per_fbs=3, n_channels=4,
                              n_gops=1, seed=seed, scheme=scheme)


def fig6_chain(scheme, seed=5):
    return interfering_fbs_scenario(n_gops=1, n_channels=4, seed=seed,
                                    scheme=scheme)


class TestNoRowsOnTheSlotPath:
    @pytest.fixture
    def row_count(self, monkeypatch):
        count = [0]
        original = UserDemand.__post_init__

        def counting(self):
            count[0] += 1
            original(self)

        monkeypatch.setattr(UserDemand, "__post_init__", counting)
        return count

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("make_config", [grid_4x4, fig6_chain],
                             ids=["grid-4x4", "fig6-chain"])
    def test_step_builds_no_user_demand(self, row_count, make_config,
                                        scheme):
        config = make_config(scheme)
        engine = SimulationEngine(config)
        n_slots = 2 if scheme.startswith("proposed") else config.n_slots
        for _ in range(n_slots):
            record = engine.step()
        assert row_count[0] == 0
        # The count is live: materialising the rows builds one per user.
        assert len(record.problem.users) == row_count[0] > 0


def rows_as_built_before(engine, expected_channels, csi):
    """The slot's rows, assembled from the engine's state field by field.

    The static fields come from the topology and the R-D model, the
    per-slot ones from the GOP clocks and complexity traces: a
    complexity-``c`` GOP scales both slopes by ``1 / c``, and a
    delivered GOP has zero slopes.
    """
    config = engine.config
    topology = config.topology
    rows = []
    for j, user in enumerate(topology.users):
        clock = engine.clocks[user.user_id]
        scale = 1.0 / engine._rd_traces[j].complexity
        r_mbs = rd_slot_increment(user.sequence_name,
                                  config.common_bandwidth_mbps,
                                  config.deadline_slots) * scale
        r_fbs = rd_slot_increment(user.sequence_name,
                                  config.licensed_bandwidth_mbps,
                                  config.deadline_slots) * scale
        if clock.headroom_db <= 0.0:
            r_mbs = r_fbs = 0.0
        margins = csi.get(user.user_id)
        rows.append(UserDemand(
            user_id=user.user_id, fbs_id=user.fbs_id, w_prev=clock.psnr_db,
            success_mbs=topology.mbs_success[user.user_id],
            success_fbs=topology.fbs_success[user.user_id],
            r_mbs=r_mbs, r_fbs=r_fbs,
            csi_mbs=margins[0] if margins else None,
            csi_fbs=margins[1] if margins else None))
    return SlotProblem(users=rows, expected_channels=expected_channels)


def hexes(values):
    return [None if value is None else float(value).hex() for value in values]


def assert_same_columns(got, want):
    gs, ws = got.columns.static, want.columns.static
    assert gs.user_ids == ws.user_ids
    assert gs.fbs_id == ws.fbs_id
    assert gs.groups == ws.groups
    assert gs.fbs_ids == ws.fbs_ids
    assert hexes(gs.success_mbs) == hexes(ws.success_mbs)
    assert hexes(gs.success_fbs) == hexes(ws.success_fbs)
    for name in ("w_prev", "r_mbs", "r_fbs", "csi_mbs", "csi_fbs"):
        assert hexes(getattr(got.columns, name)) == hexes(
            getattr(want.columns, name)), name
    assert got.expected_channels == want.expected_channels


class TestColumnsMatchRows:
    @pytest.mark.parametrize("make_config", [grid_4x4, fig6_chain],
                             ids=["grid-4x4", "fig6-chain"])
    def test_engine_columns_equal_row_built_columns(self, make_config):
        config = make_config("heuristic1").replace(rd_variability=0.4)
        engine = SimulationEngine(config)
        expected = {i: 1.5 for i in engine._fbs_ids}
        for _ in range(config.n_slots):
            csi = engine._draw_csi_batched()
            got = engine.build_slot_problem(expected, csi)
            assert_same_columns(
                got, rows_as_built_before(engine, expected, csi))
            engine.step()

    def test_rows_round_trip(self):
        config = fig6_chain("heuristic2")
        engine = SimulationEngine(config)
        for _ in range(3):
            problem = engine.step().problem
            rebuilt = SlotProblem(users=problem.users,
                                  expected_channels=problem.expected_channels)
            assert_same_columns(problem, rebuilt)

    def test_base_slopes_are_static(self):
        config = grid_4x4("graph-coloring")
        static = build_scenario(config).columns
        for j, user in enumerate(config.topology.users):
            assert static.r_mbs[j] == rd_slot_increment(
                user.sequence_name, config.common_bandwidth_mbps,
                config.deadline_slots)


def valid_columns(n_users=3):
    problem = make_problem(n_users)
    columns = problem.columns
    return columns.static, dict(
        w_prev=list(columns.w_prev), r_mbs=list(columns.r_mbs),
        r_fbs=list(columns.r_fbs), csi_mbs=[1.5] * n_users,
        csi_fbs=[0.5] * n_users)


class TestPerSlotValidation:
    """Each per-slot column error is the error of the offending row."""

    @pytest.mark.parametrize("name,value", [
        ("w_prev", float("nan")),
        ("w_prev", 0.0),
        ("w_prev", -3.0),
        ("w_prev", float("inf")),
        ("r_mbs", -0.1),
        ("r_fbs", -0.1),
        ("r_fbs", float("nan")),
        ("csi_mbs", -0.5),
        ("csi_fbs", -0.5),
    ])
    def test_error_matches_the_row(self, name, value):
        with pytest.raises(ConfigurationError) as row_error:
            make_user(**{name: value})
        static, columns = valid_columns()
        columns[name][1] = value
        with pytest.raises(ConfigurationError) as column_error:
            SlotColumns.validated(static, **columns)
        assert str(column_error.value) == str(row_error.value)

    def test_first_bad_entry_in_row_order_wins(self):
        static, columns = valid_columns()
        columns["r_mbs"][2] = -1.0
        columns["csi_fbs"][1] = -2.0
        with pytest.raises(ConfigurationError, match="csi_fbs"):
            SlotColumns.validated(static, **columns)

    def test_missing_margins_are_allowed(self):
        static, columns = valid_columns()
        columns["csi_mbs"][0] = None
        columns["csi_fbs"] = [None] * 3
        validated = SlotColumns.validated(static, **columns)
        assert validated.csi_fbs == [None] * 3

    def test_engine_rejects_a_nan_psnr_state(self):
        engine = SimulationEngine(fig6_chain("heuristic1"))
        next(iter(engine.clocks.values()))._psnr_db = float("nan")
        with pytest.raises(ConfigurationError, match="w_prev must be finite"):
            engine.build_slot_problem({i: 1.0 for i in engine._fbs_ids})


class TestStaticValidation:
    """Static columns are checked once, with the row type's errors."""

    @pytest.mark.parametrize("index,value,message", [
        (1, 0, "fbs_id must be >= 1"),
        (2, 1.2, "success_mbs must be in"),
        (3, -0.5, "success_fbs must be in"),
        (4, -1.0, "r_mbs must be >= 0"),
        (5, math.nan, "r_fbs must be finite"),
    ])
    def test_bad_static_entry(self, index, value, message):
        fields = [[1, 2], [1, 1], [0.5, 0.5], [0.5, 0.5], [1.0, 1.0],
                  [1.0, 1.0]]
        fields[index][1] = value
        with pytest.raises(ConfigurationError, match=message):
            StaticColumns(*fields)

    def test_duplicate_ids(self):
        with pytest.raises(ConfigurationError, match="duplicate user_id"):
            StaticColumns([4, 4], [1, 1], [0.5, 0.5], [0.5, 0.5], [1.0, 1.0],
                          [1.0, 1.0])


class TestSharedCompiledForm:
    def test_expected_channel_copies_share_columns_and_compiled_form(self):
        from repro.core.reference import compile_slot_problem

        problem = make_problem(4, n_fbss=2)
        copy = problem.with_expected_channels({1: 3.0, 2: 0.5})
        assert copy.columns is problem.columns
        assert compile_slot_problem(copy) is compile_slot_problem(problem)

    def test_a_new_slot_compiles_afresh(self):
        from repro.core.reference import compile_slot_problem

        engine = SimulationEngine(fig6_chain("graph-coloring"))
        first = engine.step().problem
        second = engine.step().problem
        assert compile_slot_problem(first) is not compile_slot_problem(second)
