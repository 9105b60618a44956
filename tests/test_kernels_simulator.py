"""Unit tests for the signature-kernel simulation engine (repro.kernels)."""

from __future__ import annotations

import time

import pytest

from repro.analysis.work import WorkObserver
from repro.automata.executions import run
from repro.core.bll import BinaryLinkLabels
from repro.core.full_reversal import FullReversal
from repro.core.graph import LinkReversalInstance, Orientation, mask_directed_edges
from repro.core.new_pr import NewPartialReversal
from repro.core.one_step_pr import OneStepPartialReversal
from repro.core.pr import PartialReversal
from repro.experiments.spec import ALGORITHM_FACTORIES
from repro.kernels import (
    MASK_SCHEDULER_FACTORIES,
    BatchSimulator,
    KernelCache,
    RoundTally,
    WorkTally,
    compile_expander,
    make_mask_scheduler,
)
from repro.kernels.simulator import DEADLINE_CHECK_STRIDE, KERNELS_PER_INSTANCE
from repro.schedulers import SCHEDULER_FACTORIES, make_scheduler
from repro.topology.generators import (
    grid_instance,
    random_dag_instance,
    worst_case_chain_instance,
)

ALGORITHMS = {
    "pr": PartialReversal,
    "onestep-pr": OneStepPartialReversal,
    "new-pr": NewPartialReversal,
    "fr": FullReversal,
}


def _kernel(algorithm: str, instance):
    return compile_expander(ALGORITHMS[algorithm](instance))


def _solo(kernel, scheduler, *, deadline=None,
          deadline_stride=DEADLINE_CHECK_STRIDE, **lane):
    """Run one lane on a batch of its own and return its outcome."""
    batch = BatchSimulator()
    batch.add_lane(kernel, scheduler, **lane)
    (outcome,) = batch.run(deadline=deadline, deadline_stride=deadline_stride)
    return outcome


@pytest.fixture
def instance():
    return random_dag_instance(14, edge_probability=0.3, seed=5)


class TestRegistryAlignment:
    def test_every_object_scheduler_has_a_mask_twin(self):
        assert set(MASK_SCHEDULER_FACTORIES) == set(SCHEDULER_FACTORIES)

    def test_unknown_mask_scheduler_rejected(self):
        with pytest.raises(ValueError, match="no mask-level scheduler"):
            make_mask_scheduler("frobnicate")

    def test_subset_probability_validated(self):
        from repro.kernels.schedulers import MaskRandomScheduler

        with pytest.raises(ValueError):
            MaskRandomScheduler(seed=1, subset_probability=1.5)


class TestRunPhaseAgainstObjectOracle:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULER_FACTORIES))
    def test_final_graph_and_work_match_object_run(self, instance, algorithm, scheduler):
        kernel = _kernel(algorithm, instance)
        work, rounds = WorkTally(), RoundTally()
        outcome = _solo(
            kernel, make_mask_scheduler(scheduler, seed=7), work=work, rounds=rounds
        )

        automaton = ALGORITHMS[algorithm](instance)
        observer = WorkObserver()
        result = run(
            automaton, make_scheduler(scheduler, seed=7),
            observers=(observer,), record_states=False,
        )
        assert outcome.converged == result.converged
        assert outcome.steps == result.steps_taken
        mask = kernel.orientation_mask(outcome.signature)
        assert mask == result.final_state.graph_signature()
        assert work.node_steps == observer.node_steps
        assert work.edge_reversals == observer.edge_reversals
        assert work.dummy_steps == observer.dummy_steps

    def test_sink_set_empty_exactly_on_convergence(self, instance):
        kernel = _kernel("fr", instance)
        outcome = _solo(kernel, make_mask_scheduler("sequential"))
        assert outcome.converged
        assert kernel.sink_ids(outcome.signature) == []

    def test_trace_replays_to_final_signature(self, instance):
        kernel = _kernel("pr", instance)
        trace = []
        outcome = _solo(kernel, make_mask_scheduler("greedy"), trace=trace)
        sig = kernel.initial_signature()
        for token in trace:
            for i in token:
                sig = kernel.step(sig, i)
        assert sig == outcome.signature

    def test_step_bound_truncates_without_convergence(self):
        instance = worst_case_chain_instance(8)
        kernel = _kernel("fr", instance)
        outcome = _solo(kernel, make_mask_scheduler("sequential"), max_steps=3)
        assert outcome.steps == 3
        assert not outcome.converged


def _surviving_kernel(algorithm, instance, alive, start):
    """The kernel compiled on the ``alive`` links, re-oriented by ``start``."""
    edges = tuple(
        (v, u) if (start >> e) & 1 else (u, v)
        for e, (u, v) in enumerate(instance.initial_edges)
        if (alive >> e) & 1
    )
    surviving = LinkReversalInstance(instance.nodes, instance.destination, edges)
    return compile_expander(ALGORITHM_FACTORIES[algorithm](surviving))


class TestRestrictedKernels:
    """A repair phase's restricted kernel against one compiled on the
    surviving graph: same sinks, steps and simulation tables."""

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHM_FACTORIES))
    @pytest.mark.parametrize("failed", [(2, 7, 11), (4, 6)], ids=["scattered", "corner"])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_restricted_equals_compiled_on_survivors(self, algorithm, failed, warm):
        instance = grid_instance(4, 4, oriented_towards_destination=False)
        base = compile_expander(ALGORITHM_FACTORIES[algorithm](instance))
        if warm:
            # the base's own tables, built before it is restricted, must
            # not leak into the copy
            base._incident, base._can_sink, base.hop_distances
        sig = base.initial_signature()
        for _ in range(5):
            sig = base.step(sig, min(base.sink_ids(sig)))
        start = base.orientation_mask(sig)
        alive = base._edge_mask & ~sum(1 << e for e in failed)
        restricted = base.restricted(alive, start)
        compiled = _surviving_kernel(algorithm, instance, alive, start)
        ids = [e for e in range(instance.edge_count) if (alive >> e) & 1]

        def in_base_ids(mask):
            return sum(1 << ids[k] for k in range(len(ids)) if (mask >> k) & 1)

        assert restricted._can_sink == compiled._can_sink
        assert restricted.hop_distances == compiled.hop_distances
        assert restricted._incident == tuple(
            tuple((in_base_ids(bit), j) for bit, j in row) for row in compiled._incident
        )
        ours, theirs = start, compiled.initial_signature()
        for _ in range(200):
            sinks = restricted.sink_ids(ours)
            assert sinks == compiled.sink_ids(theirs)
            assert restricted.orientation_mask(ours) == alive & (
                start ^ in_base_ids(compiled.orientation_mask(theirs))
            )
            if not sinks:
                break
            ours, theirs = restricted.step(ours, sinks[0]), compiled.step(theirs, sinks[0])
        else:
            pytest.fail("the repair phase did not converge")
        # and the base kept its own tables
        fresh = compile_expander(ALGORITHM_FACTORIES[algorithm](instance))
        assert base._incident == fresh._incident
        assert base._can_sink == fresh._can_sink
        assert base.hop_distances == fresh.hop_distances


class TestBatchLanes:
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULER_FACTORIES))
    def test_lane_order_does_not_change_outcomes(self, instance, scheduler):
        # lanes share no run state, so reversing the order they are added
        # in permutes the outcomes and changes nothing else
        shapes = [
            (_kernel(algorithm, instance), seed)
            for algorithm in sorted(ALGORITHMS) for seed in (1, 2)
        ]

        def run_in(order):
            batch = BatchSimulator()
            tallies = {}
            for index in order:
                kernel, seed = shapes[index]
                tallies[index] = (WorkTally(), RoundTally())
                batch.add_lane(
                    kernel, make_mask_scheduler(scheduler, seed=seed),
                    work=tallies[index][0], rounds=tallies[index][1],
                )
            return {
                index: (
                    outcome.signature, outcome.steps, outcome.converged,
                    tallies[index][0].node_steps, tallies[index][0].edge_reversals,
                    tallies[index][0].dummy_steps, tallies[index][1].rounds,
                )
                for index, outcome in zip(order, batch.run())
            }

        order = list(range(len(shapes)))
        assert run_in(order) == run_in(order[::-1])

    def test_trace_records_its_own_lane_only(self, instance):
        kernel = _kernel("pr", instance)
        trace = []
        batch = BatchSimulator()
        batch.add_lane(kernel, make_mask_scheduler("random", seed=4), trace=trace)
        batch.add_lane(kernel, make_mask_scheduler("greedy"))
        traced, untraced = batch.run()
        # one entry per action taken, never the quiescence `None`
        assert len(trace) == traced.steps > 0
        assert None not in trace
        solo = _solo(kernel, make_mask_scheduler("greedy"))
        assert (untraced.signature, untraced.steps) == (solo.signature, solo.steps)

    def test_lanes_match_solo_runs_under_their_own_step_bounds(self):
        kernel = _kernel("fr", worst_case_chain_instance(8))
        batch = BatchSimulator()
        for bound in (3, None, 0):
            batch.add_lane(kernel, make_mask_scheduler("sequential"), max_steps=bound)
        outcomes = batch.run(max_steps=50)
        for bound, outcome in zip((3, 50, 0), outcomes):
            solo = _solo(kernel, make_mask_scheduler("sequential"), max_steps=bound)
            assert (outcome.signature, outcome.steps, outcome.converged) == (
                solo.signature, solo.steps, solo.converged,
            )

    def test_dead_ids_are_never_scheduled(self):
        class Recording:
            def __init__(self):
                self.inner = make_mask_scheduler("greedy")
                self.actors = set()

            def bind(self, kernel):
                self.inner.bind(kernel)

            def select(self, sinks):
                actors = self.inner.select(sinks)
                self.actors.update(actors or ())
                return actors

        kernel = _kernel("pr", grid_instance(3, 3))
        free, faulted = Recording(), Recording()
        batch = BatchSimulator()
        batch.add_lane(kernel, free)
        batch.add_lane(kernel, faulted, dead_ids={4}, max_steps=500)
        fault_free, crashed = batch.run()
        assert 4 in free.actors and 4 not in faulted.actors
        assert fault_free.converged
        # the kernel's shared sink table is untouched by the faulted lane
        solo = _solo(kernel, make_mask_scheduler("greedy"))
        assert (solo.signature, solo.steps) == (fault_free.signature, fault_free.steps)
        assert crashed.steps <= 500


    @pytest.mark.parametrize("expire_after", [0, 1, 2])
    def test_deadline_fires_at_the_legacy_observer_step(self, monkeypatch, expire_after):
        # lockstep rounds read the shared clock where the legacy observer's
        # per-run countdown would: after action 0, then every stride
        from repro.experiments.runner import ScenarioTimeout, _DeadlineObserver

        class Clock:
            """Reads 0.0 until ``expire_after`` reads have passed, then 10.0."""

            def __init__(self):
                self.reads = 0

            def __call__(self):
                self.reads += 1
                return 10.0 if self.reads > expire_after else 0.0

        monkeypatch.setattr(time, "perf_counter", Clock())
        observer = _DeadlineObserver(deadline=5.0, stride=7)
        with pytest.raises(ScenarioTimeout) as legacy:
            for step in range(100):
                observer(step, None, None, None)
        assert str(legacy.value) == f"deadline exceeded at step {7 * expire_after}"

        kernel = _kernel("fr", worst_case_chain_instance(14))
        monkeypatch.setattr(time, "perf_counter", Clock())
        batch = BatchSimulator()
        batch.add_lane(kernel, make_mask_scheduler("sequential"))
        batch.add_lane(kernel, make_mask_scheduler("sequential"), max_steps=3)
        long_lane, short_lane = batch.run(deadline=5.0, deadline_stride=7)
        assert long_lane.timed_out
        assert long_lane.timeout_step == 7 * expire_after
        assert long_lane.steps == long_lane.timeout_step + 1
        # a lane that reached its bound before a check keeps its outcome
        assert short_lane.timed_out == (expire_after == 0)


class TestDeadlines:
    def test_expired_deadline_aborts_on_first_step(self):
        kernel = _kernel("fr", worst_case_chain_instance(10))
        outcome = _solo(
            kernel, make_mask_scheduler("sequential"),
            deadline=time.perf_counter() - 1.0,
        )
        assert outcome.timed_out and not outcome.converged
        assert (outcome.timeout_step, outcome.steps) == (0, 1)

    def test_clock_read_once_per_stride(self, monkeypatch):
        kernel = _kernel("fr", worst_case_chain_instance(10))
        reads = []
        real = time.perf_counter
        monkeypatch.setattr(time, "perf_counter", lambda: reads.append(1) or real())
        outcome = _solo(
            kernel,
            make_mask_scheduler("sequential"),
            deadline=real() + 60.0,
            deadline_stride=7,
        )
        assert outcome.converged and not outcome.timed_out
        # one read at step 0, then one per completed stride of 7 steps
        assert len(reads) == 1 + (outcome.steps - 1) // 7

    def test_runner_deadline_observer_stride_and_exactness(self, monkeypatch):
        from repro.experiments.runner import ScenarioTimeout, _DeadlineObserver

        expired = _DeadlineObserver(deadline=time.perf_counter() - 1.0, stride=50)
        with pytest.raises(ScenarioTimeout, match="step 0"):
            expired(0, None, None, None)

        reads = []
        real = time.perf_counter
        monkeypatch.setattr(time, "perf_counter", lambda: reads.append(1) or real())
        patient = _DeadlineObserver(deadline=real() + 60.0, stride=10)
        for step in range(25):
            patient(step, None, None, None)
        assert len(reads) == 3  # steps 0, 10 and 20


class TestMaskHelpers:
    def test_directed_edges_match_orientation(self, instance):
        for mask in (0, 5, (1 << instance.edge_count) - 1):
            assert mask_directed_edges(instance, mask) == Orientation(
                instance, mask
            ).directed_edges()


class TestKernelCache:
    def test_instance_and_kernel_hit_counting(self, instance):
        cache = KernelCache(capacity=4)
        built = []

        def build():
            built.append(1)
            return instance

        assert cache.instance("k", build) is instance
        assert cache.instance("k", build) is instance
        assert len(built) == 1
        kernel = cache.kernel("k", "fr", lambda: compile_expander(FullReversal(instance)))
        assert cache.kernel("k", "fr", lambda: None) is kernel
        stats = cache.stats()
        assert stats["instance_builds"] == 1 and stats["instance_hits"] == 1
        assert stats["kernel_compiles"] == 1 and stats["kernel_hits"] == 1

    def test_eviction_drops_dependent_kernels(self):
        cache = KernelCache(capacity=1)
        first = worst_case_chain_instance(3)
        second = worst_case_chain_instance(4)
        cache.instance("a", lambda: first)
        cache.kernel("a", "fr", lambda: compile_expander(FullReversal(first)))
        cache.instance("b", lambda: second)  # evicts "a" and its kernels
        compiled = []
        cache.kernel("a", "fr", lambda: compiled.append(1) or compile_expander(FullReversal(first)))
        assert compiled == [1]

    def test_entries_of_a_hot_instance_stay_bounded(self):
        cache = KernelCache(capacity=2)
        cache.instance("k", lambda: worst_case_chain_instance(3))
        bound = 2 * KERNELS_PER_INSTANCE
        for name in range(bound + 5):
            cache.kernel("k", ("entry", name), object)
            cache.kernel("k", "hot", object)  # used each time, never evicted
        assert len(cache._kernels) == bound
        assert ("k", "hot") in cache._kernels
        assert ("k", ("entry", 0)) not in cache._kernels

    def test_uncompilable_kernel_not_cached(self):
        cache = KernelCache()
        instance = worst_case_chain_instance(3)
        cache.instance("k", lambda: instance)
        # BLL that never marks but starts marked is neither PR nor FR
        unlisted = BinaryLinkLabels(instance, initial_marks={2: [1]}, mark_on_reversal=False)
        assert cache.kernel("k", "bll", lambda: compile_expander(unlisted)) is None
        assert cache.kernel("k", "bll", lambda: None) is None
        assert cache.stats()["kernel_compiles"] == 2  # None results re-compile


class TestGridSubsetActions:
    def test_pr_random_subsets_match_object_path(self):
        from repro.kernels.schedulers import MaskRandomScheduler
        from repro.schedulers.random_scheduler import RandomScheduler

        instance = grid_instance(4, 4, oriented_towards_destination=False)
        kernel = _kernel("pr", instance)
        work = WorkTally()
        outcome = _solo(
            kernel, MaskRandomScheduler(seed=11, subset_probability=0.6), work=work
        )
        observer = WorkObserver()
        result = run(
            PartialReversal(instance),
            RandomScheduler(seed=11, subset_probability=0.6),
            observers=(observer,), record_states=False,
        )
        assert outcome.steps == result.steps_taken
        assert kernel.orientation_mask(outcome.signature) == (
            result.final_state.graph_signature()
        )
        assert work.node_steps == observer.node_steps
        assert work.dummy_steps == observer.dummy_steps
