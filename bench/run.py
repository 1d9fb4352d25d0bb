"""Benchmark of the cosetmoments CLI, end to end and per layer.

Usage:
    python3 bench/run.py --workload {moments,spectrum,verify}
        [--seed N] [--seconds S] [--trace 0|1]

Every job is a real CLI invocation (`python3 -m cosetmoments.cli ARGV`) in a
fresh interpreter, started by this one benchmark process. Each workload is a
closed loop with one client: the next job starts only after the previous one
has exited. The argv lists come from `workloads.jobs(workload, seed)`; the
program sees nothing else. Every job's exit code and document are checked
by `reference.check_job`.

--trace 0 repeats passes over the workload's jobs for --seconds (at least
one pass; another pass starts only while it is expected to end in time) and
reports the end-to-end metrics: median set-up time; the wall time and the
CPU time (pool workers included) of a pass in which every job takes its
median time of the run, and the median of those job wall times; the median
peak RSS per pass; and the share of jobs that passed their checks. Other
tenants of the host change the speed of each of its cores by a third or
more for seconds to minutes at a time, so jobs are pinned to fixed cores
(one, or one per pool worker for verify), set-up runs on the first of them,
and every time is divided by the speed of its cores while it ran, as
`hostspeed.SpeedProbe` samples it: the times are seconds on a core of the
probe's reference speed. The record keeps the raw times next to them.

--trace 1 runs the finite_field micro-measurement in a fresh process, then
one untraced and one traced pass of the workload's traced job list (verify
with one worker, so every span lives in one process), and reports the
per-layer metrics: self time, calls and work counters per module, cache hit
ratios, per-check timings and the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. A full record (seed, argv lists, host, source version,
every sample) is written under bench/_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import hostspeed
import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
CLI = [sys.executable, "-m", "cosetmoments.cli"]
SETUP_SAMPLES = 3  # before every pass and after the last, so they span the run
RUN_LIMIT_S = 170.0  # a run must end within 180 s
CORES = sorted(os.sched_getaffinity(0))

LAYERS = ("finite_field", "kloosterman", "ominus_groups", "coset_codes", "moment_recursion", "cli")
# span-summary fields that add up over the jobs of a pass
SUMMED = [f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "calls")] + [
    "kloosterman.sum_evals", "kloosterman.terms", "ominus_groups.matrices_built",
    "ominus_groups.sym_terms", "coset_codes.prefix_s", "coset_codes.prefix_coeffs",
    "moment_recursion.moments_solved", "cli.checks", "cli.check_s_sum", "trace.spans",
]


@dataclass
class Proc:
    start: float  # perf_counter
    wall_s: float
    cpu_s: float
    rss_mib: float
    returncode: int
    stdout: bytes = field(repr=False)
    stderr: bytes = field(repr=False)


@dataclass
class Job:
    argv: list[str]
    wall_s: float
    cpu_s: float
    rss_mib: float
    returncode: int
    output_bytes: int
    problems: list[str]
    speed: float | None  # hostspeed factor of its cores while it ran; None untimed


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(cmd: list[str], timeout_s: float, cpus: list[int] = CORES) -> Proc:
    """Run cmd on cpus to completion in its own process group; wall time,
    and CPU and peak RSS from wait4, which include the children it reaped
    (pool workers)."""
    os.sched_setaffinity(0, cpus)  # this thread's cores, which the child inherits
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT, start_new_session=True
        )
        killer = threading.Timer(max(timeout_s, 1.0), _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: take the job down with us
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        killer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # nothing the job started outlives it
        out.seek(0)
        err.seek(0)
        return Proc(
            start=start,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mib=usage.ru_maxrss / 1024,
            returncode=proc.returncode,
            stdout=out.read(),
            stderr=err.read(),
        )


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_pass(
    argvs: list[list[str]], cmd_for, deadline: float,
    cpus: list[int] = CORES, probe: hostspeed.SpeedProbe | None = None,
) -> tuple[float, list[Job]]:
    """One closed-loop pass on cpus; jobs are checked after the pass so that
    the checks do not sit between jobs."""
    procs = []
    start = time.perf_counter()
    for argv in argvs:
        procs.append(spawn(cmd_for(argv, len(procs)), deadline - time.perf_counter(), cpus))
    wall = time.perf_counter() - start
    ref = reference.load_reference()
    jobs = []
    for argv, proc in zip(argvs, procs):
        problems = reference.check_job(argv, proc.returncode, proc.stdout, ref)
        if proc.returncode and proc.stderr:
            problems.append(proc.stderr.decode(errors="replace").strip()[-400:])
        speed = probe.factor(cpus, proc.start, proc.start + proc.wall_s) if probe else None
        jobs.append(Job(argv, proc.wall_s, proc.cpu_s, proc.rss_mib, proc.returncode,
                        len(proc.stdout), problems, speed))
    return wall, jobs


def measure_setup(probe: hostspeed.SpeedProbe) -> list[tuple[float, float]]:
    """Fresh interpreter, import and parser build, with no job (`--help`),
    on the first core: (wall time, speed factor) per sample."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = spawn(CLI + ["--help"], 60, CORES[:1])
        samples.append((proc.wall_s, probe.factor(CORES[:1], proc.start, proc.start + proc.wall_s)))
    return samples


def percentile_report(samples: list[float]) -> dict:
    """The median and the highest of p90/p99 that has at least ten samples beyond it."""
    n = len(samples)
    report = {"samples": n, "p50": statistics.median(samples)}
    for p in (90, 99):
        if n * (100 - p) / 100 >= 10:
            report[f"p{p}"] = statistics.quantiles(samples, n=100)[p - 1]
    return report


def time_metrics(
    passes: list[list[Job]], setup: list[tuple[float, float]], scaled: bool
) -> dict[str, float]:
    """Setup, pass wall and CPU, and job wall times, each divided by its speed
    factor when scaled. A pass takes every job at its median over the passes;
    job_p50_s is the median of those job medians, which stays on one job
    where the median of all samples would jump between jobs of a mixed pass."""
    def per_job(attr: str) -> list[float]:
        return [
            statistics.median(getattr(p[i], attr) / (p[i].speed if scaled else 1) for p in passes)
            for i in range(len(passes[0]))
        ]
    walls = per_job("wall_s")
    return {
        "setup_s": statistics.median(wall / (speed if scaled else 1) for wall, speed in setup),
        "wall_s": sum(walls),
        "job_p50_s": statistics.median(walls),
        "cpu_s": sum(per_job("cpu_s")),
    }


def timed_run(workload: str, seed: int, seconds: float, run_start: float) -> dict:
    argvs = workloads.jobs(workload, seed)
    cpus = CORES[: workloads.VERIFY_WORKERS if workload == "verify" else 1]
    setup: list[tuple[float, float]] = []
    passes: list[tuple[float, list[Job]]] = []
    deadline = run_start + RUN_LIMIT_S
    with hostspeed.SpeedProbe(cpus) as probe:  # cpus[0] is the set-up core too
        loop_start = time.perf_counter()
        # start another pass only while it is expected to end within --seconds
        while not passes or (
            time.perf_counter() - loop_start + statistics.median(w for w, _ in passes) <= seconds
            and time.perf_counter() + max(w for w, _ in passes) < deadline
        ):
            setup += measure_setup(probe)
            passes.append(
                run_pass(argvs, lambda argv, _: CLI + argv, deadline, cpus, probe)
            )
        setup += measure_setup(probe)
    jobs = [job for _, pass_jobs in passes for job in pass_jobs]
    failed = sum(1 for job in jobs if job.problems)
    pass_jobs = [pj for _, pj in passes]
    metrics = time_metrics(pass_jobs, setup, scaled=True)
    metrics.update(
        peak_rss_mib=statistics.median(max(j.rss_mib for j in pj) for pj in pass_jobs),
        success_rate=1 - failed / len(jobs),
    )
    return {
        "argv": argvs,
        "cpus": cpus,
        "metrics": metrics,
        "raw_time_metrics": time_metrics(pass_jobs, setup, scaled=False),
        "error_rate": failed / len(jobs),
        "job_wall_s": percentile_report([job.wall_s / job.speed for job in jobs]),
        "setup_samples_s": [{"wall_s": wall, "speed": speed} for wall, speed in setup],
        "pass_wall_s": [wall for wall, _ in passes],
        "jobs": [asdict(job) for job in jobs],
    }


def traced_run(workload: str, seed: int, run_start: float, names: list[str]) -> dict:
    argvs = workloads.jobs(workload, seed, traced=True)
    deadline = run_start + RUN_LIMIT_S
    micro = spawn([sys.executable, str(HERE / "micro.py"), str(seed)], 60)
    if micro.returncode:
        raise RuntimeError(f"micro-measurement failed: {micro.stderr.decode(errors='replace')}")
    plain_wall, plain_jobs = run_pass(argvs, lambda argv, _: CLI + argv, deadline)
    trace_files = [OUT / f"trace-{workload}-{i}.json" for i in range(len(argvs))]
    traced_wall, traced_jobs = run_pass(
        argvs,
        lambda argv, i: [sys.executable, str(HERE / "traced_cli.py"), str(trace_files[i]), *argv],
        deadline,
    )
    micro_record = json.loads(micro.stdout)
    metrics = dict(micro_record)
    metrics.update(dict.fromkeys(SUMMED, 0))
    metrics["cli.longest_check_s"] = 0.0
    cache = {layer: [0, 0] for layer in ("kloosterman", "ominus_groups")}  # [hits, misses]
    for job, path in zip(traced_jobs, trace_files):
        if job.returncode not in (0, 1):
            continue  # a job that crashed or was killed wrote no summary
        summary = json.loads(path.read_text(encoding="ascii"))["summary"]
        for name in SUMMED:
            metrics[name] += summary[name]
        metrics["cli.longest_check_s"] = max(
            metrics["cli.longest_check_s"], summary["cli.longest_check_s"]
        )
        for layer, counts in cache.items():
            counts[0] += summary[f"{layer}.cache_hits"]
            counts[1] += summary[f"{layer}.cache_misses"]
    for layer, (hits, misses) in cache.items():
        metrics[f"{layer}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["cli.output_bytes"] = sum(job.output_bytes for job in traced_jobs)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics = {name: metrics[name] for name in names}
    self_s = {layer: metrics[f"{layer}.self_s"] for layer in LAYERS}
    total = sum(self_s.values()) or 1.0
    jobs = plain_jobs + traced_jobs
    failed = sum(1 for job in jobs if job.problems)
    return {
        "argv": argvs,
        "metrics": metrics,
        "error_rate": failed / len(jobs),
        "micro": micro_record,
        "dominant_layer": max(self_s, key=self_s.get),
        "self_share": {layer: s / total for layer, s in self_s.items()},
        "untraced_pass_wall_s": plain_wall,
        "traced_pass_wall_s": traced_wall,
        "jobs": [asdict(job) for job in jobs],
    }


def host_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as info:
            cpu = next((ln.split(":", 1)[1].strip() for ln in info if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def source_version() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cosetmoments").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cosetmoments CLI benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run_start = time.perf_counter()
    if not (SRC / "cosetmoments" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'cosetmoments'} is missing", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    warm = spawn(CLI + ["--help"], 60)  # also writes the bytecode caches
    if warm.returncode:
        print(f"the CLI does not start:\n{warm.stderr.decode(errors='replace')}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        record = traced_run(args.workload, args.seed, run_start, list(units))
    else:
        record = timed_run(args.workload, args.seed, args.seconds, run_start)
    jobs = record["jobs"]
    failed = sum(1 for job in jobs if job["problems"])
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        host=host_info(), source=source_version(),
    )
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    for job in jobs:
        if job["problems"]:
            print(f"FAILED {' '.join(job['argv'])}: {'; '.join(job['problems'])}")
    for name, unit in units.items():
        print(f"{name} {record['metrics'][name]} {unit}")
    if args.trace:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in record["self_share"].items())
        print(f"dominant layer {record['dominant_layer']} (self-time shares: {shares})")
        micro = record["micro"]
        print(f"finite_field timings: median of {micro['finite_field.repeats']} repeats of"
              f" {micro['finite_field.mul_ops']} mul and {micro['finite_field.inv_ops']} inv calls")
    else:
        print(f"job wall time percentiles: {record['job_wall_s']}")
    print(f"record written to {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
