"""Tests of the benchmark itself: statistics, spans, job lists, checks.

    python3 -m pytest perfbench/tests -q
"""

import random
import signal
import time

import polarspec
import polarspec.cli
import pytest

import hostspeed
import jobs
import run
from tracing import LAYERS, Span, Tracer, self_times


def test_tail_keeps_ten_samples_beyond():
    xs = [float(x) for x in range(1, 101)]
    random.Random(1).shuffle(xs)
    assert run.tail_percentile(xs) == (90.0, 90.0, 100)
    assert run.tail_percentile([float(x) for x in range(11)]) == (0.0, 100 / 11, 11)


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        run.tail_percentile([1.0] * 10)


def test_slow_host_scales_times_down():
    ref = hostspeed.PROBE_REF_S
    probe = hostspeed.Probe()
    probe.starts = [0.0, 0.25, 0.5, 1.0, 3.0]
    probe.samples = [ref, 2 * ref, 2 * ref, 2 * ref, ref]
    share = hostspeed.SLOWDOWN_SHARE
    assert probe.speed(0.2, 1.1) == pytest.approx(0.5**share)  # samples at 0.25, 0.5, 1.0
    assert probe.speed(-1.0, 0.3) == pytest.approx((2 / 3) ** share)  # samples at 0, 0.25
    # one sample inside: the fastest within PROBE_WINDOW_S around it
    assert probe.speed(0.45, 0.55) == pytest.approx(1.0)  # the one at 0
    assert probe.speed(1.0, 1.2) == pytest.approx(0.5**share)  # 0.25 .. 1.0 are all slow
    assert probe.speed(10.0, 10.1) == 1.0  # none near
    assert probe.inside(0.2, 0.6) == pytest.approx(4 * ref)
    yard = run.SETUP_REF_S
    pairs = [(0.2, yard), (0.6, 2 * yard), (0.1, yard / 2)]
    assert run.scaled_setup(pairs) == pytest.approx(0.2)


def test_probe_samples_during_a_job():
    with hostspeed.Probe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * hostspeed.PROBE_PERIOD_S:
            pass
    assert len(probe.samples) >= 2
    assert probe.starts == sorted(probe.starts)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_self_time_subtracts_children_only():
    spans = [
        Span(0, None, 0, "cli", "main", 0.0, 10.0),
        Span(1, 0, 0, "construct", "construct_pw", 1.0, 4.0),
        Span(2, 1, 0, "report", "to_json", 2.0, 3.0),  # grandchild: not subtracted from cli
        Span(3, 0, 0, "spectrum", "avg_nmin", 5.0, 6.5),
        Span(4, None, 1, "spectrum", "avg_spectrum", 20.0, 21.0),
    ]
    assert self_times(spans) == pytest.approx(
        {"cli": 10 - 3 - 1.5, "construct": 2.0, "report": 1.0, "spectrum": 2.5})


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_job_list(workload):
    assert jobs.workload_jobs(workload, 7) == jobs.workload_jobs(workload, 7)


def test_seed_draws_only_sampling_inputs():
    for workload in run.WORKLOADS:
        differs = jobs.workload_jobs(workload, 7) != jobs.workload_jobs(workload, 8)
        assert differs == (workload == "sampling")


def _small_jobs():
    return [j for j in jobs.workload_jobs("rate-sweep", jobs.DEFAULT_SEED)
            if j.argv[2] == "64"][:2]


def test_corrupted_report_counts_as_failed(tmp_path, monkeypatch):
    digests = jobs.load_digests()
    first, second = _small_jobs()
    assert not any(r.failed for r in run.run_pass(jobs, [first, second], tmp_path, digests))

    original = polarspec.cli.main

    def corrupting_main(argv):
        rc = original(argv)
        out = argv[argv.index("--out") + 1]
        if " ".join(argv).startswith(first.key):
            with open(out, "r+b") as fh:
                data = fh.read().replace(b'"exp2": ', b'"exp2": 1', 1)
                fh.seek(0)
                fh.write(data)
        return rc

    monkeypatch.setattr(polarspec.cli, "main", corrupting_main)
    results = run.run_pass(jobs, [first, second], tmp_path, digests)
    assert [r.failed for r in results] == [True, False]


def test_nonzero_exit_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(polarspec.cli, "main", lambda argv: 1)
    (result,) = run.run_pass(jobs, _small_jobs()[:1], tmp_path, {})
    assert result.problems == ["exit code 1"]


def test_tracer_sees_directly_imported_names(tmp_path):
    job = jobs.Job("collector", ("exact-spectrum", "--n", "16", "--k", "8", "--construction",
                                 "pw", "--transform", "pac:1011", "--method", "scl:8"))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_job(job.key)
        assert jobs.run_job(job, tmp_path / "out.json") == 0
        tracer.end_job()
        polarspec.construct_pw(16, 8)  # outside a job: not recorded
    finally:
        tracer.uninstall()
    assert polarspec.cli.construct_pw is polarspec.construct.construct_pw
    by_layer = {s.layer: s for s in tracer.spans}
    assert set(by_layer) == {"cli", "construct", "pretransform", "scl", "report"}
    root = by_layer["cli"]
    assert root.parent is None
    assert all(s.parent == root.id for s in tracer.spans if s is not root)
    assert tracer.counts["scl.list_entries"] == 8
    assert tracer.counts["report.bytes"] == (tmp_path / "out.json").stat().st_size
    assert set(LAYERS) >= set(by_layer)
