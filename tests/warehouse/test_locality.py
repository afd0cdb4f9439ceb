"""Query-locality layer: planner, aux store, answer cache, end-to-end.

The mutation test is the load-bearing one: it corrupts the covered-copy
answer path and asserts the consistency oracle *fails* the run, proving
the oracle actually observes the locality fast path rather than being
fed the same data twice.
"""

import pytest

from repro.consistency.levels import ConsistencyLevel
from repro.harness.config import ExperimentConfig
from repro.relational.delta import Delta
from repro.relational.errors import SchemaError
from repro.relational.incremental import PartialView
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sources.messages import QueryAnswer, QueryRequest
from repro.warehouse.locality import (
    SUPPORTED_ALGORITHMS,
    AnswerCache,
    AuxiliaryStore,
    QueryLocality,
    build_locality,
    plan_coverage,
)
from repro.workloads.paper_example import (
    paper_example_states,
    paper_example_view,
)

from tests.warehouse.helpers import paper_workload, run, trajectory


@pytest.fixture
def view():
    return paper_example_view()


@pytest.fixture
def states():
    return paper_example_states()


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------


class TestPlanCoverage:
    def test_off_is_all_remote(self, view, states):
        assert plan_coverage(view, states, "off", 0) == {
            1: "remote", 2: "remote", 3: "remote",
        }

    def test_cache_mode_caches_everything(self, view, states):
        assert plan_coverage(view, states, "cache", 0) == {
            1: "cache", 2: "cache", 3: "cache",
        }

    def test_aux_unlimited_covers_everything(self, view, states):
        assert plan_coverage(view, states, "aux", 0) == {
            1: "aux", 2: "aux", 3: "aux",
        }

    def test_budget_is_greedy_smallest_first(self, view, states):
        # Sizes: R1=2, R2=1, R3=2 rows.  Budget 3 fits R2 (1) then R1
        # (tie on size broken by index); R3 would exceed and stays remote.
        assert plan_coverage(view, states, "aux", 3) == {
            1: "aux", 2: "aux", 3: "remote",
        }

    def test_auto_falls_back_to_cache_not_remote(self, view, states):
        assert plan_coverage(view, states, "auto", 1) == {
            1: "cache", 2: "aux", 3: "cache",
        }

    def test_unknown_mode_raises(self, view, states):
        with pytest.raises(ValueError, match="unknown locality mode"):
            plan_coverage(view, states, "always", 0)


class TestBuildLocality:
    def test_off_returns_none(self, view, states):
        config = ExperimentConfig(algorithm="sweep", locality="off")
        assert build_locality(config, [view], states) is None

    @pytest.mark.parametrize("algorithm", ["eca", "nested-sweep", "strobe"])
    def test_unsupported_algorithm_raises(self, algorithm, view, states):
        config = ExperimentConfig(algorithm=algorithm, locality="aux")
        with pytest.raises(ValueError, match="sweep-family"):
            build_locality(config, [view], states)

    def test_supported_algorithm_builds_facade(self, view, states):
        config = ExperimentConfig(algorithm="sweep", locality="aux")
        locality = build_locality(config, [view], states)
        assert isinstance(locality, QueryLocality)
        assert all(locality.covers(i) for i in (1, 2, 3))

    def test_supported_set_names_real_algorithms(self):
        from repro.warehouse.multiview import (
            MultiViewBatchedSweepWarehouse,
            MultiViewSweepWarehouse,
        )
        from repro.warehouse.registry import ALGORITHMS

        known = set(ALGORITHMS) | {
            MultiViewSweepWarehouse.algorithm_name,
            MultiViewBatchedSweepWarehouse.algorithm_name,
        }
        assert SUPPORTED_ALGORITHMS <= known


# ---------------------------------------------------------------------------
# Auxiliary store
# ---------------------------------------------------------------------------


class TestAuxiliaryStore:
    def test_seed_copies_rather_than_aliases(self, view, states):
        store = AuxiliaryStore(view)
        store.seed(1, states["R1"])
        assert store.contents(1) is not states["R1"]
        assert store.contents(1).as_dict() == states["R1"].as_dict()

    def test_seed_schema_mismatch_raises(self, view):
        store = AuxiliaryStore(view)
        wrong = Relation(Schema(("X", "Y", "Z")), [(1, 2, 3)])
        with pytest.raises(SchemaError):
            store.seed(1, wrong)

    def test_apply_advances_the_copy(self, view, states):
        store = AuxiliaryStore(view)
        store.seed(2, states["R2"])
        delta = Delta(view.schema_of(2))
        delta.add((3, 5), +1)
        delta.add((3, 7), -1)
        store.apply(2, delta)
        assert store.contents(2).as_dict() == {(3, 5): 1}

    def test_membership_and_drop(self, view, states):
        store = AuxiliaryStore(view)
        store.seed(3, states["R3"])
        assert 3 in store and 1 not in store
        store.drop(3)
        assert 3 not in store and store.rows_total() == 0


# ---------------------------------------------------------------------------
# Answer cache
# ---------------------------------------------------------------------------


def _query(view, row=(3, 5)):
    """A sweep-step partial covering [2,2] seeded with +row at R2."""
    return PartialView.initial(view, 2, Delta.insert(view.schema_of(2), row))


def _fill(cache, view, states, request_id=1, row=(3, 5)):
    """Register a query against source 1 and route its answer."""
    query = _query(view, row)
    answer = query.extend(1, states["R1"])
    cache.register(QueryRequest(request_id=request_id, partial=query,
                                target_index=1))
    cache.on_answer_routed(QueryAnswer(request_id=request_id, partial=answer))
    return query, answer


class TestAnswerCache:
    def test_register_then_route_inserts_entry(self, view, states):
        cache = AnswerCache()
        query, answer = _fill(cache, view, states)
        assert len(cache) == 1
        hit = cache.lookup(1, query)
        assert hit is not None
        assert dict(hit.delta.items()) == dict(answer.delta.items())
        assert cache.stats["hits"] == 1

    def test_unregistered_answer_is_ignored(self, view, states):
        cache = AnswerCache()
        answer = _query(view).extend(1, states["R1"])
        cache.on_answer_routed(QueryAnswer(request_id=99, partial=answer))
        assert len(cache) == 0

    def test_lookup_returns_a_copy(self, view, states):
        cache = AnswerCache()
        query, _ = _fill(cache, view, states)
        first = cache.lookup(1, query)
        first.delta.add((9, 9, 9, 9), +1)  # mutate the returned bag
        second = cache.lookup(1, query)
        assert (9, 9, 9, 9) not in dict(second.delta.items())

    def test_miss_counts_and_returns_none(self, view, states):
        cache = AnswerCache()
        _fill(cache, view, states)
        assert cache.lookup(1, _query(view, row=(4, 6))) is None
        assert cache.stats["misses"] == 1

    def test_on_delta_patches_entry_in_place(self, view, states):
        cache = AnswerCache()
        query, answer = _fill(cache, view, states)
        change = Delta.delete(view.schema_of(1), (2, 3))
        cache.on_delta(1, change)
        expected = answer.delta.merged(query.extend(1, change).delta)
        hit = cache.lookup(1, query)
        assert dict(hit.delta.items()) == dict(expected.items())
        assert cache.stats["patches"] == 1

    def test_irrelevant_delta_does_not_patch(self, view, states):
        cache = AnswerCache()
        _fill(cache, view, states)
        miss_join = Delta.insert(view.schema_of(1), (8, 8))  # B=8 joins nothing
        cache.on_delta(1, miss_join)
        assert cache.stats["patches"] == 0

    def test_oversized_patch_invalidates(self, view, states):
        cache = AnswerCache(max_entry_rows=2)
        query, _ = _fill(cache, view, states)
        grow = Delta(view.schema_of(1))
        for b in range(4):
            grow.add((10 + b, 3), +1)  # four new B=3 rows all join (3,5)
        cache.on_delta(1, grow)
        assert len(cache) == 0
        assert cache.stats["invalidations"] == 1

    def test_budget_evicts_lru_first(self, view, states):
        cache = AnswerCache(budget_rows=2)  # each entry is 2 rows
        old_query, _ = _fill(cache, view, states, request_id=1, row=(3, 5))
        new_query, _ = _fill(cache, view, states, request_id=2, row=(3, 6))
        assert len(cache) == 1
        assert cache.stats["evictions"] == 1
        assert cache.lookup(1, new_query) is not None
        assert cache.lookup(1, old_query) is None

    def test_clear_forgets_everything(self, view, states):
        cache = AnswerCache()
        _fill(cache, view, states)
        cache.clear()
        assert len(cache) == 0 and cache.rows_total() == 0


# ---------------------------------------------------------------------------
# Facade: local answers, dedupe, recovery demotion
# ---------------------------------------------------------------------------


class TestQueryLocality:
    def test_aux_answer_matches_remote_evaluation(self, view, states):
        locality = QueryLocality(view, states, mode="aux")
        query = _query(view)
        local = locality.aux_answer(1, query)
        remote = query.extend(1, states["R1"])
        assert dict(local.delta.items()) == dict(remote.delta.items())

    def test_aux_answer_none_for_uncovered_source(self, view, states):
        locality = QueryLocality(view, states, mode="auto", budget_rows=1)
        assert locality.covers(2) and not locality.covers(1)
        assert locality.aux_answer(1, _query(view)) is None

    def test_dedupe_collapses_fingerprint_equal_partials(self, view):
        locality = QueryLocality(view, paper_example_states(), mode="aux")
        a = _query(view, row=(3, 5))
        b = _query(view, row=(3, 6))
        a_twin = _query(view, row=(3, 5))
        unique, mapping = locality.dedupe([a, b, a_twin])
        assert len(unique) == 2
        assert mapping == [0, 1, 0]

    def test_dedupe_all_distinct_is_identity(self, view):
        locality = QueryLocality(view, paper_example_states(), mode="aux")
        partials = [_query(view, row=(3, r)) for r in (5, 6, 7)]
        unique, mapping = locality.dedupe(partials)
        assert unique == partials and mapping is None

    def test_expand_gives_duplicates_fresh_deltas(self, view, states):
        locality = QueryLocality(view, states, mode="aux")
        answers = [_query(view).extend(1, states["R1"])]
        out = locality.expand(answers, [0, 0])
        assert out[0].delta is answers[0].delta
        assert out[1].delta is not answers[0].delta
        assert dict(out[1].delta.items()) == dict(out[0].delta.items())

    def test_resume_demotes_missing_copies(self, view, states):
        locality = QueryLocality(view, states, mode="auto")
        locality.resume_from({"R1": states["R1"]})
        assert locality.covers(1)
        assert locality.decisions[2] == "cache"
        assert locality.decisions[3] == "cache"
        assert locality.cache is not None and len(locality.cache) == 0

    def test_resume_demotes_to_remote_in_aux_mode(self, view, states):
        locality = QueryLocality(view, states, mode="aux")
        locality.resume_from({})
        assert locality.decisions == {1: "remote", 2: "remote", 3: "remote"}


# ---------------------------------------------------------------------------
# End-to-end equivalence and message elimination
# ---------------------------------------------------------------------------


LOCALITY_ALGS = ("sweep", "batched-sweep", "pipelined-sweep")


class TestEndToEnd:
    @pytest.mark.parametrize("algorithm", LOCALITY_ALGS)
    @pytest.mark.parametrize("mode", ["aux", "cache", "auto"])
    def test_final_view_matches_remote_protocol(self, algorithm, mode):
        base = run(algorithm, workload=paper_workload(spacing=0.5))
        res = run(algorithm, workload=paper_workload(spacing=0.5),
                  locality=mode)
        assert res.final_view.as_dict() == base.final_view.as_dict()
        assert res.consistency[ConsistencyLevel.CONVERGENCE].ok

    @pytest.mark.parametrize("algorithm", LOCALITY_ALGS)
    def test_all_covered_sweep_sends_no_queries(self, algorithm):
        res = run(algorithm, workload=paper_workload(spacing=0.5),
                  locality="aux")
        assert res.queries_sent == 0
        assert res.locality_stats["aux_hits"] > 0
        assert res.locality_stats["covered_sources"] == 3

    def test_all_covered_sweep_is_complete_and_cheaper(self):
        base = run("sweep", workload=paper_workload(spacing=0.5))
        res = run("sweep", workload=paper_workload(spacing=0.5),
                  locality="aux")
        assert res.classified_level == ConsistencyLevel.COMPLETE
        assert res.messages_total < base.messages_total
        # Only the unavoidable update notices remain on the wire.
        assert res.protocol_messages == 0

    def test_figure5_trajectory_survives_locality(self):
        from repro.workloads.paper_example import PAPER_EXPECTED_TRAJECTORY

        res = run("sweep", workload=paper_workload(spacing=1.0),
                  locality="aux")
        assert trajectory(res) == [dict(d) for d in
                                   PAPER_EXPECTED_TRAJECTORY[1:]]

    @pytest.mark.parametrize("seed", range(3))
    def test_randomized_equivalence_across_modes(self, seed):
        kwargs = dict(
            seed=seed, n_sources=4, n_updates=12, mean_interarrival=1.5,
            latency=6.0, latency_model="uniform", match_fraction=1.0,
            rows_per_relation=8, insert_fraction=0.5,
        )
        base = run("sweep", **kwargs)
        for mode in ("aux", "cache", "auto"):
            res = run("sweep", locality=mode, **kwargs)
            assert res.final_view.as_dict() == base.final_view.as_dict(), mode

    def test_partial_budget_mixes_local_and_remote(self):
        base = run("sweep", workload=paper_workload(spacing=0.5))
        res = run("sweep", workload=paper_workload(spacing=0.5),
                  locality="auto", locality_budget_rows=1)
        assert res.locality_stats["covered_sources"] == 1
        assert res.locality_stats["aux_hits"] > 0
        assert res.final_view.as_dict() == base.final_view.as_dict()

    def test_cache_mode_counts_traffic(self):
        res = run("sweep", seed=7, n_sources=3, n_updates=15,
                  mean_interarrival=1.0, latency=5.0, rows_per_relation=6,
                  match_fraction=1.0, insert_fraction=1.0, locality="cache")
        stats = res.locality_stats
        assert stats["cache_hits"] + stats["cache_misses"] > 0
        assert res.consistency[ConsistencyLevel.CONVERGENCE].ok


# ---------------------------------------------------------------------------
# Mutation test: the oracle must catch a stale/corrupted covered copy
# ---------------------------------------------------------------------------


class TestOracleCatchesCorruption:
    # Insert-only so the corrupted runs still install cleanly (no negative
    # counts) and the verdict comes from the oracle, not an install crash.
    MUTATION_KW = dict(
        seed=3, n_sources=3, n_updates=10, mean_interarrival=2.0,
        latency=5.0, rows_per_relation=6, match_fraction=1.0,
        insert_fraction=1.0,
    )

    def test_corrupted_aux_answer_fails_consistency(self, monkeypatch):
        """Inflate locally computed answer rows; the oracle must FAIL.

        If this test ever passes with the corruption in place, the
        consistency checker is not actually observing the covered path.
        """
        real = QueryLocality.aux_answer

        def corrupted(self, index, partial):
            out = real(self, index, partial)
            if out is not None:
                for row, count in list(out.delta.items()):
                    if count > 0:
                        out.delta.add(row, count)  # double it
            return out

        monkeypatch.setattr(QueryLocality, "aux_answer", corrupted)
        res = run("sweep", locality="aux", **self.MUTATION_KW)
        assert not res.consistency[ConsistencyLevel.CONVERGENCE].ok

    def test_stale_aux_copy_fails_consistency(self, monkeypatch):
        """Suppress copy maintenance (a stale aux copy) -> oracle FAILs."""
        monkeypatch.setattr(QueryLocality, "on_installed",
                            lambda self, notice: None)
        res = run("sweep", locality="aux", **self.MUTATION_KW)
        assert not res.consistency[ConsistencyLevel.CONVERGENCE].ok

    def test_same_workload_passes_without_mutation(self):
        """Control: the mutation workload is COMPLETE when unmutated."""
        res = run("sweep", locality="aux", **self.MUTATION_KW)
        assert res.classified_level == ConsistencyLevel.COMPLETE


# ---------------------------------------------------------------------------
# Locality x durability
# ---------------------------------------------------------------------------


class TestLocalityDurability:
    def test_crash_restart_with_aux_recovers_byte_equal(self):
        from repro.harness.equivalence import run_case

        row = run_case("crash-restart", "batched-sweep", 3, transport="local",
                       locality="aux")
        assert row["error"] == ""
        assert row["ok"], row
        assert row["crash_fired"]
        assert row["views_equal"]
        assert row["locality"] == "aux"
