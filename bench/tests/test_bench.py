"""Tests of the benchmark itself: tracing arithmetic, reference checks, seeds.

Run with: python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cosetmoments import make_field  # noqa: E402
from cosetmoments.ominus_groups import _is_nonsingular, _symmetric_matrices  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _cli(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "cosetmoments.cli", *argv], env=ENV, capture_output=True, timeout=120
    )


def _traced(tmp_path: Path, argv: list[str]) -> tuple[dict, dict]:
    trace_file = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "traced_cli.py"), str(trace_file), *argv],
        env=ENV, capture_output=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout), json.loads(trace_file.read_text())


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--r", "3", "--family", "2", "--sign", "plus", "--n", "2", "--hmax", "4",
         "--verify"],
        ["verify-all", "--max-r", "2", "--workers", "1"],
    ],
)
def test_layer_self_times_add_up_to_the_traced_job_wall(tmp_path, argv):
    doc, trace = _traced(tmp_path, argv)
    assert doc["command"] == argv[0]
    recorded = trace["spans"]
    roots = [i for i, s in enumerate(recorded) if s[0] == spans.ROOT]
    assert roots == [0]
    own = [end - start for _, _, start, end, _ in recorded]
    for name, layer, start, end, parent in recorded[1:]:
        assert parent >= 0 and name.split(".")[0] == layer
        p_start, p_end = recorded[parent][2:4]
        assert p_start <= start <= end <= p_end
        own[parent] -= end - start
    wall_ns = recorded[0][3] - recorded[0][2]
    layer_ns = {layer: 0 for layer in spans.LAYERS}
    for (_, layer, *_), ns in zip(recorded[1:], own[1:]):
        layer_ns[layer] += ns
    assert sum(layer_ns.values()) + own[0] == wall_ns
    summary = trace["summary"]
    assert summary["trace.root_s"] == pytest.approx(wall_ns / 1e9)
    assert sum(summary[f"{layer}.self_s"] for layer in spans.LAYERS) == pytest.approx(
        wall_ns / 1e9
    )
    assert summary["trace.spans"] == len(recorded)


def test_traced_verify_counts_checks_enumerations_and_terms(tmp_path):
    doc, trace = _traced(tmp_path, ["verify-all", "--max-r", "2", "--workers", "1"])
    summary = trace["summary"]
    ran = [c for c in doc["result"]["checks"] if c["status"] != "skip"]
    assert summary["cli.checks"] == len(ran)
    assert 0 < summary["cli.longest_check_s"] <= summary["cli.check_s_sum"] <= summary["trace.root_s"]
    assert summary["ominus_groups.matrices_built"] > 0
    assert summary["ominus_groups.sym_terms"] > 0
    assert summary["kloosterman.sum_evals"] > 0
    assert summary["coset_codes.calls"] > 0


def test_cache_counter_counts_each_miss_once_under_recursion():
    tracer = spans.Tracer()
    namespace: dict = {}
    exec(
        "from functools import lru_cache\n"
        "@lru_cache(maxsize=None)\n"
        "def chain(n):\n"
        "    return () if n == 0 else chain(n - 1) + (n,)\n",
        namespace,
    )
    namespace["chain"] = tracer.cache_counter(namespace["chain"], "built", lambda a, out: len(out))
    namespace["chain"](3)
    namespace["chain"](3)
    namespace["chain"](4)
    assert tracer.counters["built.misses"] == 5
    assert tracer.counters["built"] == 0 + 1 + 2 + 3 + 4


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("modulus_r", [1, 2])
def test_nonsingular_symmetric_count_matches_enumeration(r, modulus_r):
    ctx = make_field(modulus_r)
    brute = sum(1 for m in _symmetric_matrices(ctx, r) if _is_nonsingular(ctx, m))
    assert spans.nonsingular_symmetric_count(ctx.q, r) == brute


def _smallest_moments_job() -> list[str]:
    argvs = workloads.jobs("moments", workloads.DEFAULT_SEED)
    return next(a for a in argvs if reference.options(a)["sign"] == "minus"
                and reference.options(a)["n"] == "1")


def test_reference_checker_accepts_the_program_and_rejects_altered_documents():
    ref = reference.load_reference()
    argv = _smallest_moments_job()
    proc = _cli(argv)
    assert reference.check_job(argv, proc.returncode, proc.stdout, ref) == []

    doc = json.loads(proc.stdout)
    row = doc["result"]["reports"][0]["h"][5]
    altered = str(int(row["recursion"]) + 2)
    row["recursion"] = row["oracle"] = altered  # still self-consistent: only the record catches it
    problems = reference.check_job(argv, 0, json.dumps(doc).encode(), ref)
    assert any("differ from the record" in p for p in problems)

    assert reference.check_job(argv, 1, proc.stdout, ref) == ["exit code 1"]
    assert reference.check_job(argv, 2, b"", ref) == ["exit code 2"]


def test_reference_checker_applies_seed_independent_identities():
    ref = {"moments": {}, "kloos_moments": {}, "kloos_values": {}, "verify_all": {}}
    argv = ["kloos", "--r", "3", "--a", "0x2", "--hmax", "2"]
    proc = _cli(argv)
    problems = reference.check_job(argv, proc.returncode, proc.stdout, ref)
    assert problems == ["moments differ from the record for r3 h2"]  # only the record is missing
    doc = json.loads(proc.stdout)
    doc["result"]["moments"][2] = "56"
    doc["result"]["value"] = "1"
    problems = reference.check_job(argv, 0, json.dumps(doc).encode(), ref)
    assert "M_2 = 56, expected 55" in problems
    assert "K(a) = 1 lies outside the predicted range" in problems


def test_seeded_jobs_are_deterministic_and_valid():
    for workload in workloads.WORKLOADS:
        first = workloads.jobs(workload, 7)
        assert first == workloads.jobs(workload, 7)
        # verify at max-r 2 has only two argv lists (z or z + 1 for r = 1)
        assert len({json.dumps(workloads.jobs(workload, seed)) for seed in range(7, 17)}) > 1
    for argv in workloads.jobs("moments", 7) + workloads.jobs("spectrum", 7):
        opts = reference.options(argv)
        make_field(int(opts["r"]), int(opts["modulus"], 16),
                   int(opts["a-param"], 16) if "a-param" in opts else None)
    assert reference.options(workloads.jobs("verify", 7, traced=True)[0])["workers"] == "1"
    overrides = reference.options(workloads.jobs("verify", 7)[0])["modulus-override"]
    for item in overrides:
        r, modulus = item.split(":")
        make_field(int(r), int(modulus, 16))
    code = (
        "import json, workloads; print(json.dumps([workloads.jobs(w, 7) for w in workloads.WORKLOADS]))"
    )
    other = subprocess.run(
        [sys.executable, "-c", code], cwd=BENCH, capture_output=True, check=True, timeout=60,
        env=dict(os.environ, PYTHONHASHSEED="12345"),
    )
    assert json.loads(other.stdout) == [workloads.jobs(w, 7) for w in workloads.WORKLOADS]


def test_speed_factor_is_the_window_median_over_the_cores():
    probe = hostspeed.SpeedProbe([0, 1])
    ref = hostspeed.REFERENCE_S
    probe.samples[0] += [(1.0, 9 * ref), (2.0, 1 * ref), (3.0, 2 * ref), (4.0, 3 * ref)]
    probe.samples[1] += [(2.5, 4 * ref), (9.0, 9 * ref)]
    assert probe.factor([0], 1.5, 4.0) == pytest.approx(2.0)
    assert probe.factor([0, 1], 1.5, 4.0) == pytest.approx((2.0 + 4.0) / 2)
    assert probe.factor([1], 7.0, 7.5) == pytest.approx(9.0)  # nearest sample


def test_speed_probe_samples_every_core_it_is_given():
    cpus = sorted(os.sched_getaffinity(0))[:2]
    with hostspeed.SpeedProbe(cpus) as probe:
        start = time.perf_counter()
        time.sleep(3 * hostspeed.PERIOD_S)
        end = time.perf_counter()
    assert all(len(probe.samples[cpu]) >= 2 for cpu in cpus)
    assert 0 < probe.factor(cpus, start, end) < 1000


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "moments", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
