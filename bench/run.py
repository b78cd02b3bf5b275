"""minface benchmark: CLI jobs on seeded surfaces, checked by numpy oracles.

Usage:
    python3 bench/run.py --workload mesh --seed 1 --seconds 16 --trace 0

One client runs a closed loop in this process: each job is one in-process
``minface.cli.main([...])`` call on a freshly generated spec file, so every
job reloads and revalidates its surface as a real CLI invocation does, while
the interpreter start and ``import minface`` are paid once, in set-up. Jobs
run in whole rounds of a fixed mix of spec kinds until ``--seconds`` have
passed, so every run holds the same mix. Every output is then checked
against the oracles in ``oracle.py``.

With ``--trace 0`` the last line of output reports the end-to-end metrics;
with ``--trace 1`` each job runs twice, untraced and then traced, and the
last line reports the per-layer metrics of ``tracer.py`` plus the tracing
overhead. Spans of a traced run are written to
``.bench_out/spans-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MESH_N = 64
COLD_N = 2
SINGULAR_GRID = 512
SETUP_PROBES = 4  # fresh interpreters timed in addition to this one

# On a shared host the speed of interpreter-bound code, minface's and any
# other, can drift by +-25% over tens of seconds. Every reported time is
# therefore rescaled to the host's nominal speed: a job's wall time is
# multiplied by REFERENCE_S over the median time of the five runs of
# reference_work() nearest to it (one runs before each job, three before and
# after set-up); a set-up time by the median of three runs in its own
# process right after it. REFERENCE_S is the typical median on the host the bounds
# were set on (2 cores, Python 3.11.7, numpy 2.4.6); the run's median factor
# is printed. --seconds counts rescaled time too, so a run holds the same
# number of rounds however fast the host happens to be.
REFERENCE_S = 0.036

# name -> (rng stream, spec kinds of one round). Each mix is chosen so that
# the median job and the tail job fall inside one cluster of job times
# rather than between two, which keeps both steady from seed to seed.
WORKLOADS = {
    "mesh": (0, ("enneper", "enneper-conj", "ce-quasiumbilic", "kchange",
                 "kchange", "kchange", "poly", "poly", "poly")),
    "mesh-cold": (1, ("poly",) * 4),
    "singular": (2, ("enneper", "enneper-conj", "ce-quasiumbilic", "cross",
                     "cross", "cross")),
    "battery": (3, ("enneper", "enneper-conj", "ce-quasiumbilic", "kchange")
                + ("cross",) * 3 + ("regular",) * 3),
}

END_TO_END = (("job_s.p50", "s"), ("job_s.tail", "s"), ("jobs_per_s", "1/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


@dataclass
class Job:
    index: int
    spec: object
    argv: list
    outputs: dict
    traced: bool
    code: object = None
    stdout: str = ""
    stderr: str = ""
    seconds: float = 0.0
    problems: list = field(default_factory=list)


@dataclass(frozen=True)
class _Triple:
    """A small immutable value type, as interpreter-bound numeric code uses."""

    a: float
    b: float
    c: float

    def __add__(self, o):
        return _Triple(self.a + o.a, self.b + o.b, self.c + o.c)

    def __mul__(self, o):
        if not isinstance(o, _Triple):
            o = _Triple(float(o), 0.0, 0.0)
        return _Triple(self.a * o.a, self.a * o.b + self.b * o.a,
                       self.a * o.c + 2.0 * self.b * o.b + self.c * o.a)


def reference_work() -> _Triple:
    """Fixed work independent of minface, with the same character as its
    jobs: short-lived objects, dict stores and 3-element numpy arrays. Its
    time tracks the host's speed for such code."""
    import numpy as np

    x, acc, seen = _Triple(0.3, 1.0, 0.0), _Triple(0.0, 0.0, 0.0), {}
    for i in range(2500):
        y = x * x + x * 0.5
        seen[i % 64] = (y.a, y.b)
        v = np.array([y.a, y.b, y.c])
        acc = acc + y * 1e-3 + _Triple(float(v @ v) * 1e-9, 0.0, 0.0)
    return acc


def timed_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def job_argv(workload: str, spec_path: Path, stem: Path, index: int):
    """CLI arguments of one job and the files it writes."""
    spec = str(spec_path)
    if workload in ("mesh", "mesh-cold"):
        n = str(MESH_N if workload == "mesh" else COLD_N)
        obj, fields = stem.with_suffix(".obj"), stem.with_suffix(".csv")
        return (["sample", "--spec", spec, "--nu", n, "--nv", n,
                 "--out", str(obj), "--fields", str(fields)],
                {"obj": obj, "csv": fields})
    if workload == "singular":
        outs = {"csv": stem.with_suffix(".csv")}
        return (["singular", "--spec", spec, "--grid", str(SINGULAR_GRID),
                 "--out", str(outs["csv"])], outs)
    return ["verify", "--spec", spec, "--seed", str(index)], {}


def run_job(cli, job: Job) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            job.code = cli.main(job.argv)
        except Exception as exc:  # a crash is a failed job, not a dead run
            job.code = f"uncaught {type(exc).__name__}: {exc}"
        job.seconds = time.perf_counter() - t0
    job.stdout, job.stderr = out.getvalue(), err.getvalue()


def check_job(oracle, workload: str, job: Job) -> list:
    if workload == "battery":
        return oracle.check_battery(job.spec, job.code, job.stdout)
    if job.code != 0:
        return [f"exit code {job.code}: {job.stderr.strip()[:200]}"]
    texts = {k: p.read_text() for k, p in job.outputs.items()}
    if workload == "singular":
        return oracle.check_singular(job.spec, SINGULAR_GRID, texts["csv"],
                                     job.stdout)
    n = MESH_N if workload == "mesh" else COLD_N
    return oracle.check_mesh(job.spec, n, texts["obj"], texts["csv"])


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(times):
    """Highest percentile with at least 10 jobs beyond it: (value, pct)."""
    s = sorted(times)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def setup_samples(cli, warm: Job, import_s: float) -> list:
    """Rescaled set-up times: this process's, then one per fresh probe.

    Each sample is rescaled by reference times taken in its own process
    right after it.
    """
    run_job(cli, warm)
    if warm.code != 0:
        raise RuntimeError(f"warm-up job failed: {warm.code} {warm.stderr}")
    own = statistics.median(timed_reference() for _ in range(3))
    samples = [(import_s + warm.seconds) * REFERENCE_S / own]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), str(SRC), *warm.argv],
            capture_output=True, text=True, timeout=170, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if probe["code"] != 0:
            raise RuntimeError(f"warm-up job failed in probe: {probe}")
        samples.append((probe["import_s"] + probe["warm_s"]) * REFERENCE_S
                       / probe["reference_s"])
    return samples


def run_rounds(cli, specgen, tracer, args, work: Path, refs: list):
    """Whole rounds of jobs until --seconds of rescaled time have passed.

    Appends one reference time to ``refs`` before each job. Returns the
    jobs, the number of rounds, and the wall time spent outside
    reference_work().
    """
    stream, kinds = WORKLOADS[args.workload]
    jobs, index, ref_s = [], 0, 0.0
    t_start = time.perf_counter()
    while True:
        for kind in kinds:
            spec = specgen.make_spec(kind, args.seed, stream, index)
            spec_path = work / f"{index}.json"
            spec_path.write_text(json.dumps(spec.doc))
            for traced in ((False, True) if tracer else (False,)):
                stem = work / f"{index}{'t' if traced else ''}"
                job_args, outs = job_argv(args.workload, spec_path, stem,
                                          index)
                job = Job(index, spec, job_args, outs, traced)
                refs.append(timed_reference())
                ref_s += refs[-1]
                if traced:
                    tracer.job_id = index
                    tracer.install()
                    try:
                        run_job(cli, job)
                    finally:
                        tracer.uninstall()
                else:
                    run_job(cli, job)
                jobs.append(job)
            index += 1
        elapsed = time.perf_counter() - t_start - ref_s
        if elapsed * REFERENCE_S / statistics.median(refs) >= args.seconds:
            return jobs, index // len(kinds), elapsed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import minface
        import minface.cli as cli
    except ImportError as exc:
        print(f"error: cannot import minface from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    if Path(minface.__file__).resolve().parent != SRC / "minface":
        print(f"error: minface imported from {minface.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import numpy as np

    import oracle
    import specgen
    from tracer import Tracer

    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    refs = []
    try:
        warm_spec = specgen.gallery_spec("enneper")
        warm_path = work / "warm.json"
        warm_path.write_text(json.dumps(warm_spec.doc))
        warm_argv, warm_out = job_argv(args.workload, warm_path,
                                       work / "warm", 0)
        refs += [timed_reference() for _ in range(3)]
        samples = setup_samples(cli, Job(-1, warm_spec, warm_argv, warm_out,
                                         False), import_s)
        refs += [timed_reference() for _ in range(3)]
        jobs, rounds, loop_s = run_rounds(cli, specgen, tracer, args, work,
                                          refs)
        refs.append(timed_reference())
        for job in jobs:
            job.problems = check_job(oracle, args.workload, job)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # refs[:6] bracket set-up and refs[6 + k] ran just before jobs[k]
    factors = [REFERENCE_S / statistics.median(refs[4 + k:9 + k])
               for k in range(len(jobs))]
    for job, factor in zip(jobs, factors):
        job.seconds *= factor
    scale = statistics.median(factors)
    failed = [j for j in jobs if j.problems]
    plain = [j for j in jobs if not j.traced]
    times = [j.seconds for j in plain]
    t_tail, pct = tail(times)

    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()}"
          f" numpy={np.__version__} git={git_sha()}")
    print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs "
          f"({rounds} rounds of {len(WORKLOADS[args.workload][1])}) in "
          f"{loop_s:.1f} s, {len(failed)} failed")
    for job in failed[:10]:
        print(f"FAILED job {job.index} ({job.spec.kind}"
              f"{', traced' if job.traced else ''}): {job.problems[:3]}")
    print(f"host speed: reference {statistics.median(refs) * 1e3:.2f} ms, "
          f"nominal {REFERENCE_S * 1e3:.2f} ms; times below are wall times "
          f"x {scale:.4f} (median factor)")
    by_kind = {}
    for job in plain:
        by_kind.setdefault(job.spec.kind, []).append(job.seconds)
    print("median job_s by kind: " + ", ".join(
        f"{k} {statistics.median(v):.3f}" for k, v in by_kind.items()))
    print(f"failed_frac = {len(failed) / len(jobs):.4g} "
          f"({len(failed)} of {len(jobs)} jobs)")
    print(f"job_s.tail is p{pct:.0f} of {len(times)} jobs "
          f"({10 if len(times) > 10 else 0} beyond it)")

    if tracer:
        traced = [j.seconds for j in jobs if j.traced]
        overhead = statistics.median(traced) / statistics.median(times) - 1
        metrics = tracer.metrics(len(traced), overhead, scale)
        tracer.save(OUT / f"spans-{args.workload}.npz")
    else:
        values = {
            "job_s.p50": statistics.median(times),
            "job_s.tail": t_tail,
            "jobs_per_s": len(plain) / sum(times),
            "setup_s": statistics.median(samples),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(jobs),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
