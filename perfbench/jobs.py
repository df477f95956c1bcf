"""Workload job lists, job execution and per-job output checks.

A job is one in-process ``polarspec.cli.main(argv)`` call that writes its
report to a file, except the exhaustive-ensemble job, which has no CLI
and calls the library. Every job's report is checked after it finishes;
a job fails if it returns non-zero, raises, or fails its check.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import polarspec
import polarspec.cli
from polarspec import (
    CodeConfig,
    DyadicRational,
    avg_nmin,
    avg_spectrum,
)

DEFAULT_SEED = 0
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

SCL_LIST = 5000
SCL_SAMPLES = 10
BRUTE_SAMPLES = 16
MC_TOLERANCE_SE = 5.0
# Variances are rendered to 6 digits; an exact-integer variance (ROADMAP
# item 5) may move the last digit, so they are compared with a tolerance.
VARIANCE_REL_TOL = 1e-4
ROUND_ABS = 1e-6
EXHAUSTIVE_INFO_SET = (7, 12, 14, 15, 16)  # N=16, K=5, F=16 free entries


@dataclass(frozen=True)
class Job:
    """One unit of work. ``argv`` is None only for the exhaustive job."""

    kind: str  # full | truncated | mc-scl | mc-brute | collector | exhaustive
    argv: tuple[str, ...] | None

    @property
    def key(self) -> str:
        """Stable identity of the job's inputs; indexes the recorded digests."""
        if self.argv is None:
            return "ensemble_average_exact info_set=" + ",".join(map(str, EXHAUSTIVE_INFO_SET))
        return " ".join(self.argv)


def _code(n: int, k: int, construction: str) -> list[str]:
    return ["--n", str(n), "--k", str(k), "--construction", construction]


def _avg(n, k, construction, dmax=None):
    if dmax is None:
        return Job("full", ("avg-spectrum", *_code(n, k, construction), "--verify"))
    return Job("truncated", ("avg-spectrum", *_code(n, k, construction), "--dmax", str(dmax)))


def _recursion_full(rng: random.Random) -> list[Job]:  # no random inputs
    return [_avg(n, n // 2, c) for n in (512, 1024) for c in ("rm", "pw")]


def _rate_sweep(rng: random.Random) -> list[Job]:  # no random inputs
    jobs = [
        _avg(n, n * j // 16, c, min(n, 32))
        for n in (64, 128, 256, 512)
        for j in range(1, 16)
        for c in ("rm", "pw")
    ]
    # large codes truncated at their minimum distance (PW: 16, RM: 64)
    jobs += [_avg(n, n // 2, c, d) for n in (2048, 4096) for c, d in (("pw", 16), ("rm", 64))]
    return jobs


def _sampling(rng: random.Random) -> list[Job]:
    def seed() -> str:
        return str(rng.getrandbits(32))

    scl = f"scl:{SCL_LIST}"
    jobs = [
        Job("mc-scl", ("ensemble", *_code(128, 64, c), "--samples", str(SCL_SAMPLES),
                       "--seed", seed(), "--method", scl))
        for c in ("rm", "pw")
    ]
    jobs.append(Job("mc-brute", ("ensemble", *_code(64, 22, "pw"), "--samples",
                                 str(BRUTE_SAMPLES), "--seed", seed())))
    for transform in ("identity", "pac:1011011", "crc:1000011,70", f"random:{seed()}"):
        jobs.append(Job("collector", ("exact-spectrum", *_code(128, 64, "pw"),
                                      "--transform", transform, "--method", scl)))
    jobs.append(Job("exhaustive", None))
    return jobs


_BUILDERS = {"recursion-full": _recursion_full, "rate-sweep": _rate_sweep, "sampling": _sampling}


def workload_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list; ``seed`` draws its Monte-Carlo and
    random-transform seeds. The order is fixed: shuffling it moved peak
    resident memory by up to a tenth between seeds."""
    return _BUILDERS[workload](random.Random(f"{workload}/{seed}"))


def run_job(job: Job, out: Path) -> int:
    """Execute one job, writing its report to ``out``; returns the exit code.

    Names are looked up on the package at call time so that traced runs
    see the wrapped functions.
    """
    if job.argv is not None:
        return polarspec.cli.main([*job.argv, "--out", str(out)])
    config = CodeConfig(4, EXHAUSTIVE_INFO_SET)
    hist = polarspec.ensemble_average_exact(config)
    text = polarspec.report_from_histogram(config, "exhaustive", hist).to_json()
    out.write_text(text, encoding="utf-8")
    return 0


@dataclass
class JobResult:
    job: Job
    seconds: float
    problems: list[str]
    start: float = 0.0  # perf_counter when the job started

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def execute(job: Job, out: Path, digests: dict, tracer=None) -> JobResult:
    """Run, time and check one job; a tracer records spans only while it runs."""
    out.unlink(missing_ok=True)
    if tracer is not None:
        tracer.begin_job(job.key)
    t0 = time.perf_counter()
    try:
        rc = run_job(job, out)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        return JobResult(job, time.perf_counter() - t0, [traceback.format_exc(limit=3)], t0)
    finally:
        if tracer is not None:
            tracer.end_job()
    seconds = time.perf_counter() - t0
    if rc != 0:
        return JobResult(job, seconds, [f"exit code {rc}"], t0)
    try:
        data = out.read_bytes()
    except OSError as exc:
        return JobResult(job, seconds, [f"no report: {exc}"], t0)
    return JobResult(job, seconds, check_report(job, data, digests), t0)


# ---------------------------------------------------------------- checks


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest_entry(job: Job, data: bytes) -> dict:
    """What is recorded for a report: its sha256, and for Monte-Carlo
    reports the sha256 without variances plus the variances themselves."""
    if job.kind not in ("mc-scl", "mc-brute"):
        return {"sha256": hashlib.sha256(data).hexdigest()}
    doc = json.loads(data)
    variances = [e.pop("variance") for e in doc["entries"]]
    canon = json.dumps(doc, sort_keys=True).encode()
    return {"sha256": hashlib.sha256(canon).hexdigest(), "variance": variances}


def _check_digest(job: Job, data: bytes, digests: dict) -> list[str]:
    want = digests.get(job.key)
    if want is None:
        return []  # inputs drawn from a seed whose outputs were not recorded
    got = digest_entry(job, data)
    if got["sha256"] != want["sha256"]:
        return ["report differs from the recorded digest"]
    problems = []
    for d, (a, b) in enumerate(zip(got.get("variance", []), want.get("variance", []))):
        x, y = float(a), float(b)
        if abs(x - y) > VARIANCE_REL_TOL * max(abs(x), abs(y)) + ROUND_ABS:
            problems.append(f"variance at d={d}: {a} != recorded {b}")
    return problems


def _exact(entry: dict) -> DyadicRational:
    return DyadicRational(int(entry["num"]), entry["exp2"])


def _config_of(doc: dict) -> CodeConfig:
    code = doc["code"]
    return CodeConfig(code["n"].bit_length() - 1, tuple(code["info_set"]))


def _check_code(job: Job, doc: dict) -> list[str]:
    if job.argv is None:
        return []
    code, argv = doc["code"], job.argv
    want = tuple(argv[argv.index(flag) + 1] for flag in ("--n", "--k", "--construction"))
    got = (str(code["n"]), str(code["k"]), code["construction"])
    return [] if got == want else [f"report is for code {got}, the job asked for {want}"]


def _check_recursion(job: Job, doc: dict) -> list[str]:
    config = _config_of(doc)
    entries = {e["d"]: _exact(e) for e in doc["entries"]}
    dmax = config.n if job.kind == "full" else int(job.argv[job.argv.index("--dmax") + 1])
    problems = []
    if sorted(entries) != list(range(1, dmax + 1)):
        problems.append(f"entries do not cover d=1..{dmax}")
        return problems
    if job.kind == "full":
        mass = sum((e.to_fraction() for e in entries.values()), Fraction(0))
        if mass != (1 << config.k) - 1:
            problems.append(f"total mass {mass} != 2^K - 1")
    d_min, n_min = avg_nmin(config)
    if any(entries[d] for d in range(1, min(d_min, dmax + 1))):
        problems.append("nonzero mass below the minimum distance")
    if d_min <= dmax and entries[d_min] != n_min:
        problems.append(f"E[N_{d_min}] = {entries[d_min]} != avg_nmin {n_min}")
    return problems


def _check_collector(job: Job, doc: dict) -> list[str]:
    entries = doc["entries"]
    counts = [int(e["num"]) for e in entries]
    sat = [e["saturated"] for e in entries]
    problems = []
    if counts[0] != 0:
        problems.append("the zero word is counted")
    first = sat.index(True) if True in sat else len(sat)
    if any(not s for s in sat[first:]):
        problems.append("saturation flags are not a suffix")
    if sum(counts) + 1 != SCL_LIST:
        problems.append(f"final list holds {sum(counts) + 1} words, not {SCL_LIST}")
    if "identity" in job.argv and (counts[8] != 304 or sat[8]):
        problems.append(f"PW(128,64) weight-8 count {counts[8]} (saturated={sat[8]}) != 304")
    return problems


def _check_monte_carlo(job: Job, doc: dict) -> list[str]:
    """Every unsaturated mean lies within MC_TOLERANCE_SE standard errors
    of the exact recursion; a zero-variance mean must match exactly."""
    config = _config_of(doc)
    entries = doc["entries"]
    samples = entries[0]["samples"]
    unsat = [e["d"] for e in entries[1:] if not e.get("saturated", False)]
    if not unsat:
        return ["every weight is saturated"]
    exact = avg_spectrum(config, max(unsat)).entries
    problems = []
    for d in unsat:
        mean, var = float(entries[d]["value"]), float(entries[d]["variance"])
        want = float(exact[d])
        se = math.sqrt(var / samples)
        if abs(mean - want) > MC_TOLERANCE_SE * se + ROUND_ABS:
            problems.append(f"mean {mean} at d={d} is off exact {want} by more than "
                            f"{MC_TOLERANCE_SE:g} SE ({se:.3g})")
    return problems


def _check_exhaustive(job: Job, doc: dict) -> list[str]:
    config = _config_of(doc)
    exact = avg_spectrum(config).entries
    got = {e["d"]: _exact(e) for e in doc["entries"]}
    bad = [d for d in range(1, config.n + 1) if got.get(d) != exact[d]]
    if got.get(0) != DyadicRational(1) or bad:
        return [f"exhaustive ensemble differs from the recursion at d={bad or [0]}"]
    return []


_CHECKS = {
    "full": _check_recursion,
    "truncated": _check_recursion,
    "collector": _check_collector,
    "mc-scl": _check_monte_carlo,
    "mc-brute": _check_monte_carlo,
    "exhaustive": _check_exhaustive,
}


def check_report(job: Job, data: bytes, digests: dict) -> list[str]:
    """Problems found in one job's report; empty when it is correct."""
    try:
        doc = json.loads(data)
        problems = _check_code(job, doc) + _CHECKS[job.kind](job, doc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"malformed report: {exc!r}"]
    return problems + _check_digest(job, data, digests)
