"""polarspec benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload recursion-full --seed 0 --seconds 30 --trace 0

Workloads (see README.md for why each was chosen):

  recursion-full  full spectra with --verify, RM and PW, N=512 and 1024, K=N/2
  rate-sweep      --dmax min(N,32) at 15 rates for N=64..512, plus large
                  codes truncated at their minimum distance
  sampling        the SCL collector, brute-force and exhaustive oracles

Every job runs in this process with POLARSPEC_THREADS=1, one after
another (a closed loop with one client), and its report is checked.
A run makes a fixed number of passes over the job list, --seconds divided
by the workload's PASS_CHARGE_S, and enough for MIN_TAIL_BEYOND + 1 job
instances. The count depends only on the workload and --seconds, so every
commit's metrics come from the same number of samples and job_tail_s is
the same percentile on both sides of a comparison. Jobs of every pass are
checked and counted in attempted and failed.

A job's time is its best over the passes (best-of-k): on a shared 2-CPU
machine other tenants slow the CPU by up to half for seconds, and the
best of passes spread over the run filters that out. Slowdowns that last
minutes slow every instance of a long job alike; so a timer also runs a
fixed probe every quarter second, in the middle of jobs too
(hostspeed.py), and each job's best instance is scaled to the reference
host by the probes that ran inside it. Set-up time is scaled by a fresh interpreter that imports only
numpy, timed right after each set-up. The raw times are printed and
recorded next to the scaled ones.

--trace 0 reports the end-to-end metrics: wall_s (sum of the job times),
job_p50_s and job_tail_s (percentiles over every job instance of every
pass, each at its job's time), setup_s (median over SETUP_RUNS fresh
interpreters) and peak_rss_mb. --trace 1 alternates untraced and traced
passes and reports the per-layer metrics of tracing.py plus trace.wall_s
and trace.overhead_frac (traced over untraced wall_s, minus 1); the
per-layer times are raw, not scaled.

The last line of standard output is one JSON object with keys correct,
attempted, failed and metrics; a full record with provenance, per-job
times and spans goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_TAIL_BEYOND = 10
SETUP_RUNS = 7
SETUP_TIMEOUT_S = 60
# A fresh interpreter importing only numpy: the yardstick for setup_s, and
# its median time on the reference host (PROBE_REF_S's host).
SETUP_REF_CODE = "import time, numpy; print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))"
SETUP_REF_S = 0.11
# Seconds of --seconds charged per pass; a pass takes about 6-8, 2-3 and
# 4-6 s on a 2-CPU Xeon sandbox, up to twice that when other tenants
# load it. At --seconds 30: 4 / 7 / 6 passes.
PASS_CHARGE_S = {"recursion-full": 7.5, "rate-sweep": 4.3, "sampling": 5.0}
WORKLOADS = tuple(PASS_CHARGE_S)


def pass_count(workload: str, seconds: float, jobs_per_pass: int) -> int:
    """Timed passes in one run; fixed for a given workload and --seconds."""
    need = -(-(MIN_TAIL_BEYOND + 1) // jobs_per_pass)
    return max(need, round(seconds / PASS_CHARGE_S[workload]))


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least MIN_TAIL_BEYOND samples beyond it.

    Returns (value, percentile, number of samples). Raises ValueError when
    fewer than MIN_TAIL_BEYOND + 1 samples exist.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= MIN_TAIL_BEYOND:
        raise ValueError(f"{n} samples: a tail needs at least {MIN_TAIL_BEYOND + 1}")
    rank = n - MIN_TAIL_BEYOND  # 1-based rank of the value
    return xs[rank - 1], 100.0 * rank / n, n


def _import_program():
    """Put the checkout's sources first on the path and import the jobs module."""
    if not (SRC / "polarspec" / "__init__.py").is_file():
        raise SystemExit(f"error: no polarspec sources under {SRC}")
    os.environ["POLARSPEC_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import jobs
    import polarspec

    if Path(polarspec.__file__).resolve().parent != SRC / "polarspec":
        raise SystemExit(f"error: imported polarspec from {polarspec.__file__}, not {SRC}")
    return jobs


def _monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)  # system-wide on Linux


def _spawn_seconds(args: list[str]) -> float:
    """From just before a fresh interpreter starts to the monotonic clock
    reading (ns) that it prints last."""
    t0 = _monotonic_ns()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return (int(proc.stdout.split()[-1]) - t0) / 1e9


def _setup_pair(workload: str, seed: int) -> tuple[float, float]:
    """Time for a fresh interpreter to import polarspec and build the job
    list, and right after it the time of the numpy-only yardstick."""
    setup = _spawn_seconds([str(Path(__file__).resolve()), "--workload", workload,
                            "--seed", str(seed), "--setup-done"])
    return setup, _spawn_seconds(["-c", SETUP_REF_CODE])


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, job_list) -> dict:
    import numpy
    import polarspec

    sources = hashlib.sha256()
    for path in sorted((SRC / "polarspec").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _git_commit(),
        "source_sha256": sources.hexdigest(),
        "polarspec": polarspec.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "POLARSPEC_THREADS": os.environ["POLARSPEC_THREADS"],
        "jobs": [list(j.argv) if j.argv else [j.key] for j in job_list],
    }


def run_pass(J, job_list, workdir: Path, digests: dict, tracer=None) -> list:
    out = workdir / "report.out"
    return [J.execute(job, out, digests, tracer) for job in job_list]


def _pass_wall(results) -> float:
    return sum(r.seconds for r in results)


def best_instances(passes, seconds=lambda r: r.seconds) -> dict:
    """Each job's fastest instance over the passes (best-of-k per job).

    Passes are spread over the run, so the best of them filters out the
    seconds-long slowdowns that other tenants of a shared machine cause.
    """
    best = {}
    for results in passes:
        for r in results:
            if r.job.key not in best or seconds(r) < seconds(best[r.job.key]):
                best[r.job.key] = r
    return best


def best_times(passes) -> dict[str, float]:
    return {key: r.seconds for key, r in best_instances(passes).items()}


def job_time_metrics(passes, best: dict[str, float]) -> tuple[dict[str, float], float, int]:
    """wall_s, job_p50_s and job_tail_s from each job's ``best`` time; also
    the tail's percentile and the number of job instances."""
    # every job instance of every pass, counted at its job's best time
    instances = [best[r.job.key] for results in passes for r in results]
    tail, pct, count = tail_percentile(instances)
    values = {"wall_s": sum(best.values()), "job_p50_s": statistics.median(instances),
              "job_tail_s": tail}
    return values, pct, count


def scaled_setup(pairs: list[tuple[float, float]]) -> float:
    """setup_s on the reference host: the median over set-ups of each one's
    time scaled by its yardstick's, SETUP_REF_S / yardstick."""
    return statistics.median(setup * SETUP_REF_S / ref for setup, ref in pairs)


def measure_end_to_end(J, args, job_list, workdir, digests):
    from hostspeed import PROBE_REF_S, Probe

    pairs = [_setup_pair(args.workload, args.seed) for _ in range(SETUP_RUNS)]
    with Probe() as probe:
        passes = [run_pass(J, job_list, workdir, digests)
                  for _ in range(pass_count(args.workload, args.seconds, len(job_list)))]

    def net(r):  # the instance's time less the probes that ran inside it
        return r.seconds - probe.inside(r.start, r.start + r.seconds)

    # best-of-k on the measured times, then the best instance is scaled by
    # the host's speed while it ran (scaling before the min would select
    # the instances whose probes ran slowest by chance)
    best = best_instances(passes, net)
    raw_best = {key: net(r) for key, r in best.items()}
    values, pct, count = job_time_metrics(passes, {
        key: net(r) * probe.speed(r.start, r.start + r.seconds) for key, r in best.items()})
    raw, _, _ = job_time_metrics(passes, raw_best)
    metrics = {name: (value, "s") for name, value in values.items()}
    metrics["setup_s"] = (scaled_setup(pairs), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    raw["setup_s"] = statistics.median(setup for setup, _ in pairs)
    speed = PROBE_REF_S / statistics.median(probe.samples)
    notes = {
        "wall_s": f"{len(job_list)} jobs, each at its best of {len(passes)} passes; "
                  f"median host speed {speed:.3f}",
        "job_p50_s": f"median of {count} job instances",
        "job_tail_s": f"p{pct:.1f} of {count} job instances, {MIN_TAIL_BEYOND} beyond it",
        "setup_s": f"median of {SETUP_RUNS} fresh interpreters; yardstick median "
                   f"{statistics.median(r for _, r in pairs):.6g} s",
        "peak_rss_mb": "peak resident memory of this process",
    }
    for name in raw:
        notes[name] += f"; raw {raw[name]:.6g} s"
    extra = {"pass_walls_s": [_pass_wall(p) for p in passes], "setup_pairs_s": pairs,
             "raw_s": raw, "host_speed_median": speed, "probe_samples_s": probe.samples,
             "probe_starts_s": probe.starts, "job_starts_s": [[r.start for r in p] for p in passes],
             "job_tail_percentile": pct, "job_samples": count}
    return passes, metrics, notes, extra


def measure_traced(J, args, job_list, workdir, digests):
    from tracing import Tracer, layer_metrics, layer_table

    plain, traced, tracers = [], [], []
    for _ in range(max(1, pass_count(args.workload, args.seconds, len(job_list)) // 2)):
        plain.append(run_pass(J, job_list, workdir, digests))
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(run_pass(J, job_list, workdir, digests, tracer))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
    wall_plain = sum(best_times(plain).values())
    wall_traced = sum(best_times(traced).values())
    units = {"calls": "count", "self_s": "s", "entries": "count", "max_num_bits": "bits",
             "useful_frac": "ratio", "messages": "count", "mc_self_s": "s",
             "free_entries": "count", "bytes": "bytes"}
    metrics = {name: (value, units[name.split(".", 1)[1]])
               for name, value in layer_metrics(tracers).items()}
    metrics["trace.wall_s"] = (wall_traced, "s")
    metrics["trace.overhead_frac"] = (wall_traced / wall_plain - 1.0, "ratio")
    table = layer_table(tracers[-1])
    last_wall = _pass_wall(traced[-1])
    extra = {"layers_last_pass": table, "untraced_wall_s": wall_plain,
             "spans": [[s._asdict() for s in t.spans] for t in tracers],
             "span_jobs": [t.jobs for t in tracers]}
    return [*plain, *traced], metrics, table, last_wall, extra


def _print_layer_table(table, wall, overhead):
    from tracing import LAYERS

    print(f"per-layer (last traced pass, its wall {wall:.4f} s, "
          f"trace.overhead_frac {overhead:+.4f}):")
    print(f"  {'layer':<13} {'calls':>7} {'self_s':>10} {'share':>7}  moves")
    attributed = 0.0
    for layer, row in table.items():
        attributed += row["self_s"]
        print(f"  {layer:<13} {row['calls']:>7} {row['self_s']:>10.4f} "
              f"{row['self_s'] / wall:>7.1%}  {LAYERS[layer][2]}")
    rest = wall - attributed
    print(f"  {'(no span)':<13} {'':>7} {rest:>10.4f} {rest / wall:>7.1%}  benchmark job glue")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="polarspec benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-done", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    J = _import_program()
    job_list = J.workload_jobs(args.workload, args.seed)
    digests = J.load_digests()
    if args.setup_done:
        print(_monotonic_ns())
        return 0

    prov = provenance(args, job_list)
    print(f"polarspec benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print("provenance: " + json.dumps({k: v for k, v in prov.items() if k != "jobs"}))
    (BENCH / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / ".work") as tmp:
        if args.trace:
            results, metrics, table, wall, extra = measure_traced(
                J, args, job_list, Path(tmp), digests)
        else:
            results, metrics, notes, extra = measure_end_to_end(
                J, args, job_list, Path(tmp), digests)

    flat = [r for p in results for r in p]
    failed = [r for r in flat if r.failed]
    if args.trace:
        _print_layer_table(table, wall, metrics["trace.overhead_frac"][0])
        print("per-layer metrics:")
    else:
        print("end-to-end metrics:")
    for name, (value, unit) in metrics.items():
        note = "" if args.trace else f"  ({notes[name]})"
        print(f"  {name:<26} {value:>14.6g} {unit}{note}")
    print(f"  {'error_rate':<26} {len(failed) / len(flat):>14.6g} ratio  "
          f"({len(failed)} of {len(flat)} jobs failed)")
    for r in failed[:10]:
        print(f"FAILED {r.job.key}: {'; '.join(r.problems)}", file=sys.stderr)

    record = {
        "provenance": prov,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": len(flat),
        "failed": len(failed),
        "passes": [[{"job": r.job.key, "seconds": r.seconds, "problems": r.problems}
                    for r in p] for p in results],
        **extra,
    }
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(flat),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
