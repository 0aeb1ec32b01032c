"""Cross-scheme conformance battery.

Every scheme in the registry -- built-in or third-party -- must pass
this suite *by registration alone*: the tests parametrize over
``scheme_registry().names()``, so registering a new scheme is all it
takes to have it checked for allocation feasibility, the collision
constraint, seeded determinism, picklability through the execution
plan, fallback-chain compatibility, and jobs-1-vs-2 / checkpoint-resume
byte-identity.
"""

import json

import pytest

from repro.exec.plan import ensure_picklable, plan_campaign
from repro.experiments.results_io import sweep_to_dict
from repro.experiments.scenarios import interfering_fbs_scenario
from repro.registry import scheme_registry
from repro.sim.engine import SimulationEngine
from repro.sim.fallback import fallback_chain_for
from repro.sim.runner import sweep

from tests.conftest import make_problem
from tests.reference import check_feasible, is_valid_allocation
from tests.sim.test_seed_stability import compute_fingerprint

ALL_SCHEMES = scheme_registry().names()

#: Slack for the collision-constraint check: the access policy enforces
#: (1 - P_A) P_D <= gamma exactly; the test tolerance only absorbs
#: float noise.
_TOL = 1e-9


def _conformance_config(scheme, **overrides):
    """The battery's reference scenario: interfering, one GOP."""
    params = dict(n_gops=1, n_channels=4, seed=20260806, scheme=scheme)
    params.update(overrides)
    return interfering_fbs_scenario(**params)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
class TestSchemeConformance:
    def test_allocations_feasible_and_collision_safe(self, scheme):
        """Every slot's output respects power/channel budgets, the
        interference graph, and the primary-protection constraint."""
        config = _conformance_config(scheme)
        engine = SimulationEngine(config, record_slots=True)
        for _ in range(config.n_slots):
            engine.step()
        graph = config.topology.interference_graph
        assert engine.records, "engine recorded no slots"
        for record in engine.records:
            # Time-share feasibility (raises on violation).
            check_feasible(record.problem, record.allocation)
            # Channel budget: only channels the access policy opened.
            available = set(record.access.available_channels.tolist())
            for fbs_id, channels in record.channel_allocation.items():
                assert set(channels) <= available, (
                    f"slot {record.slot}: FBS {fbs_id} uses channels "
                    f"outside A(t)")
            # Interference constraint: adjacent FBSs never share.
            assert is_valid_allocation(graph, record.channel_allocation)
            # Collision constraint (1 - P_A) P_D <= gamma per channel.
            for m in range(config.n_channels):
                collision = ((1.0 - record.access.posteriors[m])
                             * record.access.access_probabilities[m])
                assert collision <= config.gamma + _TOL, (
                    f"slot {record.slot}: channel {m} violates the "
                    f"collision cap ({collision} > {config.gamma})")

    def test_deterministic_under_fixed_seed(self, scheme):
        """Two runs from one seed produce identical slot trajectories."""
        first, _ = compute_fingerprint(_conformance_config(scheme))
        second, _ = compute_fingerprint(_conformance_config(scheme))
        assert first == second

    def test_picklable_through_exec_plan(self, scheme):
        """Campaign cells for the scheme survive the pickling gate that
        guards hand-off to worker processes."""
        plan = plan_campaign(_conformance_config(scheme), 2)
        ensure_picklable(plan.cells)

    def test_fallback_chain_compatible(self, scheme):
        """The scheme composes with the degradation chain: injected
        non-convergence degrades to a fallback-eligible scheme (or, for
        a fallback-eligible primary, the single-link chain solves)."""
        info = scheme_registry().get(scheme)
        chain = fallback_chain_for(scheme, info.create())
        problem = make_problem(n_users=4, n_fbss=2, g=2.0, seed=3)
        if len(chain.allocators) > 1:
            allocation, events = chain.allocate(
                problem, slot=0, inject_nonconvergence=True)
            assert events[0].cause == "injected-nonconvergence"
            assert events[0].allocator == scheme
            assert events[0].fallback == chain.allocators[1][0]
        else:
            # Fallback-eligible primaries terminate their own chain.
            assert info.fallback_eligible
            allocation, events = chain.allocate(problem, slot=0)
            assert events == []
        check_feasible(problem, allocation)

    def test_jobs_and_checkpoint_resume_byte_identity(self, scheme,
                                                      tmp_path):
        """--jobs 1 and --jobs 2 agree byte-for-byte, and a truncated
        checkpoint resumes to the same bytes."""
        config = _conformance_config(scheme, deadline_slots=5)
        args = ("n_channels", [3, 4], [scheme])

        serial_ckpt = tmp_path / "serial.ckpt"
        serial = sweep(config, *args, n_runs=2, jobs=1,
                       checkpoint_path=serial_ckpt)
        reference = json.dumps(sweep_to_dict(serial), sort_keys=True)

        parallel = sweep(config, *args, n_runs=2, jobs=2,
                         checkpoint_path=tmp_path / "parallel.ckpt")
        assert json.dumps(sweep_to_dict(parallel),
                          sort_keys=True) == reference

        # Truncate the serial checkpoint to its header plus one cell,
        # then finish the remainder at --jobs 2.
        lines = serial_ckpt.read_text().splitlines(keepends=True)
        assert len(lines) >= 3
        (tmp_path / "partial.ckpt").write_text("".join(lines[:2]))
        resumed = sweep(config, *args, n_runs=2, jobs=2,
                        checkpoint_path=tmp_path / "partial.ckpt")
        assert json.dumps(sweep_to_dict(resumed),
                          sort_keys=True) == reference


def test_battery_covers_graph_coloring():
    """The acceptance criterion: graph-coloring is registered and hence
    covered by every test above."""
    assert "graph-coloring" in ALL_SCHEMES
    assert len(ALL_SCHEMES) >= 5
