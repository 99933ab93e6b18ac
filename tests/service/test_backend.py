"""ServiceBackend semantics: admission, quotas, coalescing, shared cache.

These are the concurrency guarantees the service makes (ISSUE 6):
two clients submitting the identical cell cost one computation and one
cache hit; a client over quota gets a typed 429; a full queue gets a
typed 503.  Tests that need jobs to *stay* queued simply do not start
the worker thread — admission control is lock-level, not worker-level,
so every rejection path is exercised deterministically.
"""

import pytest

from repro.client.protocol import ExperimentRequest, RunReply, RunRequest, ServiceError, WorkloadSpec
from repro.obs import metrics as obs_metrics
from repro.obs.runtime import observability
from repro.service.backend import ServiceBackend, ServiceQuota

WL = WorkloadSpec(p=4, n_requests=120, k=16)


def _run_request(client="alice", miss_cost=8, seed=0):
    return RunRequest(
        algorithms=("det-par",),
        cache_size=32,
        miss_cost=miss_cost,
        seeds=(seed,),
        workload=WL,
        client=client,
    )


class TestSharedCacheAcrossClients:
    def test_identical_cell_from_two_clients_is_one_computation(self, tmp_path):
        with observability(metrics=True):
            with ServiceBackend(cache=True, cache_dir=tmp_path / "cache") as backend:
                first = backend.wait(backend.submit(_run_request(client="alice")).job_id)
                second = backend.wait(backend.submit(_run_request(client="bob")).job_id)
            assert first.cache_hits == 0 and first.cells > 0
            # every one of bob's cells came from alice's computation
            assert second.cache_hits == second.cells == first.cells
            assert second.rows == first.rows
            registry = obs_metrics.active()
            snapshot = registry.snapshot()["counters"]
            assert snapshot["exec.computed"] == first.cells
            assert snapshot["exec.cache.hits"] == second.cells

    def test_distinct_cells_do_not_share(self, tmp_path):
        with ServiceBackend(cache=True, cache_dir=tmp_path / "cache") as backend:
            first = backend.wait(backend.submit(_run_request(miss_cost=8)).job_id)
            second = backend.wait(backend.submit(_run_request(miss_cost=9)).job_id)
        assert second.cache_hits == 0
        assert second.rows != first.rows


class TestCoalescing:
    def test_identical_live_requests_share_one_job(self):
        backend = ServiceBackend()  # worker not started: jobs stay queued
        first = backend.submit(_run_request(client="alice"))
        second = backend.submit(_run_request(client="bob"))
        assert second.job_id == first.job_id
        assert second.coalesced and not first.coalesced
        assert len(backend.jobs()) == 1
        # both clients count against the one job
        assert backend._jobs[first.job_id].clients == ["alice", "bob"]

    def test_coalesced_clients_get_the_same_reply(self, tmp_path):
        with observability(metrics=True):
            backend = ServiceBackend(cache=True, cache_dir=tmp_path / "cache")
            status_a = backend.submit(_run_request(client="alice"))
            status_b = backend.submit(_run_request(client="bob"))
            backend.start()
            try:
                reply_a = backend.wait(status_a.job_id)
                reply_b = backend.wait(status_b.job_id)
            finally:
                backend.shutdown()
            assert reply_a is reply_b
            assert obs_metrics.active().snapshot()["counters"]["service.coalesced"] == 1

    def test_finished_jobs_do_not_coalesce_cache_serves_instead(self, tmp_path):
        with ServiceBackend(cache=True, cache_dir=tmp_path / "cache") as backend:
            first = backend.submit(_run_request(client="alice"))
            backend.wait(first.job_id)
            second = backend.submit(_run_request(client="bob"))
            assert second.job_id != first.job_id
            reply = backend.wait(second.job_id)
        assert reply.cache_hits == reply.cells


class TestAdmissionControl:
    def test_per_client_quota_is_a_typed_429(self):
        backend = ServiceBackend(quota=ServiceQuota(max_queue=64, max_pending_per_client=2))
        backend.submit(_run_request(client="alice", seed=0))
        backend.submit(_run_request(client="alice", seed=1))
        with pytest.raises(ServiceError) as exc:
            backend.submit(_run_request(client="alice", seed=2))
        assert exc.value.code == "quota-exceeded"
        assert exc.value.status == 429
        # a different client is unaffected
        backend.submit(_run_request(client="bob", seed=3))

    def test_finished_jobs_do_not_count_against_the_quota(self):
        backend = ServiceBackend(quota=ServiceQuota(max_queue=64, max_pending_per_client=2))
        for seed in range(1000):  # run by hand: the worker is not started
            backend.submit(_run_request(client="alice", seed=seed))
            backend._finish(backend._next_job(), reply=RunReply(job_id="", state="done"))
        assert len(backend.jobs()) == 1000
        backend.submit(_run_request(client="alice", seed=1000))
        backend.submit(_run_request(client="alice", seed=1001))
        with pytest.raises(ServiceError) as exc:
            backend.submit(_run_request(client="alice", seed=1002))
        assert exc.value.code == "quota-exceeded"

    def test_full_queue_is_a_typed_503(self):
        backend = ServiceBackend(quota=ServiceQuota(max_queue=2, max_pending_per_client=8))
        backend.submit(_run_request(client="alice", seed=0))
        backend.submit(_run_request(client="bob", seed=1))
        with pytest.raises(ServiceError) as exc:
            backend.submit(_run_request(client="carol", seed=2))
        assert exc.value.code == "queue-full"
        assert exc.value.status == 503

    def test_rejections_are_counted(self):
        with observability(metrics=True):
            backend = ServiceBackend(quota=ServiceQuota(max_queue=64, max_pending_per_client=1))
            backend.submit(_run_request(client="alice", seed=0))
            with pytest.raises(ServiceError):
                backend.submit(_run_request(client="alice", seed=1))
            counters = obs_metrics.active().snapshot()["counters"]
            assert counters["service.quota_rejections{client=alice}"] == 1


class TestJobLifecycle:
    def test_unknown_job_is_not_found(self):
        backend = ServiceBackend()
        with pytest.raises(ServiceError) as exc:
            backend.status("job-999")
        assert exc.value.code == "not-found"

    def test_wait_timeout_reports_current_state(self):
        backend = ServiceBackend()  # never started → stays queued
        status = backend.submit(_run_request())
        reply = backend.wait(status.job_id, timeout=0.05)
        assert reply.state == "queued" and reply.rows == ()

    def test_failed_job_raises_its_typed_error(self, tmp_path):
        with ServiceBackend(registry=str(tmp_path / "corpus")) as backend:
            status = backend.submit(
                RunRequest(algorithms=("det-par",), cache_size=32, miss_cost=8, trace="ghost")
            )
            with pytest.raises(ServiceError) as exc:
                backend.wait(status.job_id)
        assert exc.value.code == "not-found"
        assert backend.status(status.job_id).state == "failed"

    def test_invalid_request_is_rejected_at_submit(self):
        backend = ServiceBackend()
        with pytest.raises(ServiceError) as exc:
            backend.submit(RunRequest(algorithms=(), cache_size=32, miss_cost=8, workload=WL))
        assert exc.value.code == "bad-request"

    def test_shutdown_fails_leftover_jobs_and_reports_interruption(self):
        backend = ServiceBackend()  # worker never started
        status = backend.submit(_run_request())
        interrupted = backend.shutdown(timeout=0.1)
        assert interrupted is True
        polled = backend.status(status.job_id)
        assert polled.state == "failed"
        with pytest.raises(ServiceError) as exc:
            backend.wait(status.job_id)
        assert exc.value.code == "unavailable"

    def test_submit_after_shutdown_is_unavailable(self):
        backend = ServiceBackend()
        backend.shutdown(timeout=0.1)
        with pytest.raises(ServiceError) as exc:
            backend.submit(_run_request())
        assert exc.value.code == "unavailable"

    def test_clean_shutdown_is_not_an_interruption(self, tmp_path):
        backend = ServiceBackend(cache=True, cache_dir=tmp_path / "cache")
        with backend:
            backend.wait(backend.submit(_run_request()).job_id)
        assert backend.shutdown() is False


class TestExperimentJobs:
    def test_named_experiment_round_trip(self):
        with ServiceBackend() as backend:
            status = backend.submit(ExperimentRequest(name="e1", client="ci"))
            reply = backend.wait(status.job_id)
        assert reply.rows and reply.table
        assert backend.status(status.job_id).kind == "experiment"
