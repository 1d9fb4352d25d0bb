"""The JSON command-line surface: shapes, encodings, exit codes, determinism."""

import argparse
import ast
import errno
import json
import os
import pkgutil
import re
import signal
import subprocess
import sys
import time
from importlib import import_module
from pathlib import Path

import pytest

import cosetmoments
from cosetmoments import (
    __version__, checks, cli, coset_codes, double_cosets, kloosterman, moment_recursion, ominus_groups,
    spec_commands,
)
from cosetmoments.cli import main, verify_all
from cosetmoments.finite_field import MAX_R, make_field
from cosetmoments.kloosterman import ORACLE_H_LIMIT, BudgetError, carlitz_k2, kloosterman_sum


def run(capsys, *args):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, json.loads(out) if out else None, err


def fresh_python(*args: str, stdout: int = subprocess.PIPE,
                 unbuffered: bool = False) -> subprocess.CompletedProcess:
    """`python ARGS` in a fresh interpreter whose stdout is a pipe unless given, block-buffered:
    the environment loses PYTHONUNBUFFERED, so nothing reaches stdout before a flush, unless
    `unbuffered` sets it, so every write reaches the pipe at once."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          timeout=120, env=env)


def assert_no_bare_numbers(node):
    """Every numeric payload must be a decimal string, never an int or float."""
    if isinstance(node, bool) or node is None or isinstance(node, str):
        return
    if isinstance(node, (int, float)):
        raise AssertionError(f"bare number in output: {node!r}")
    if isinstance(node, list):
        for item in node:
            assert_no_bare_numbers(item)
        return
    for key, value in node.items():
        assert isinstance(key, str)
        assert_no_bare_numbers(value)


def test_field_document(capsys):
    code, doc, _ = run(capsys, "field", "--r", "2")
    assert code == 0
    assert doc["command"] == "field"
    assert doc["version"] == __version__
    assert doc["params"] == {"r": "2", "q": "4", "modulus": "0x7", "a_param": "0x2"}
    assert doc["result"] == {
        "trace_mask": "0x2",
        "theta_subgroup_size": "2",
        "trace_one_count": "2",
    }


def test_field_with_overrides(capsys):
    code, doc, _ = run(capsys, "field", "--r", "3", "--modulus", "0xD", "--a-param", "0x2")
    assert code == 0
    assert doc["params"]["modulus"] == "0xD"
    assert doc["params"]["a_param"] == "0x2"
    # 0x3 has trace 0 in the 0xD representation, so it is rejected there
    code, _, err = run(capsys, "field", "--r", "3", "--modulus", "0xD", "--a-param", "0x3")
    assert code == 2 and "trace 0" in err


def test_field_rejects_reducible_modulus(capsys):
    code, doc, err = run(capsys, "field", "--r", "2", "--modulus", "0x5")
    assert code == 2
    assert doc is None
    assert "reducible" in err


def test_kloos_value_and_moments(capsys):
    code, doc, _ = run(capsys, "kloos", "--r", "2", "--a", "0x2", "--hmax", "3")
    assert code == 0
    assert doc["result"]["value"] == "-1"
    assert doc["result"]["moments"] == ["3", "1", "11", "25"]


def test_kloos_needs_a_or_hmax(capsys):
    code, doc, err = run(capsys, "kloos", "--r", "2")
    assert code == 2
    assert "--a and/or --hmax" in err


def test_kloos_two_dimensional_point_query_past_the_direct_budget(capsys):
    code, doc, _ = run(capsys, "kloos", "--r", "14", "--m", "2", "--a", "0x3")
    assert code == 0
    assert doc["result"]["value"] == str(carlitz_k2(make_field(14), 3))
    code, doc, err = run(capsys, "kloos", "--r", "14", "--m", "2", "--a", "0x4000")
    assert code == 2
    assert "nonzero element" in err


def test_kloos_hmax_above_the_oracle_limit_exits_2_at_once(capsys, monkeypatch):
    def refuse(ctx, m):
        raise AssertionError("the spectrum must not be built past the h_max limit")

    monkeypatch.setattr(kloosterman, "kloosterman_spectrum", refuse)
    for m in ("1", "2"):
        code, doc, err = run(
            capsys, "kloos", "--r", "3", "--m", m, "--hmax", str(ORACLE_H_LIMIT + 1)
        )
        assert code == 2 and doc is None
        assert f"moment-oracle limit {ORACLE_H_LIMIT}" in err


@pytest.mark.parametrize("r", range(1, 7))
def test_kloos_two_dimensional_point_queries_equal_the_direct_sum(capsys, r):
    ctx = make_field(r)
    for a in range(1, ctx.q):
        code, doc, _ = run(capsys, "kloos", "--r", str(r), "--m", "2", "--a", hex(a))
        assert code == 0
        assert doc["result"]["value"] == str(kloosterman_sum(ctx, 2, a))


def test_enumerate_document(capsys):
    code, doc, _ = run(
        capsys, "enumerate", "--r", "1", "--family", "1", "--sign", "plus", "--n", "2"
    )
    assert code == 0
    res = doc["result"]
    assert (res["a"], res["b"], res["size"]) == ("8", "6", "48")
    assert res["q_minus_order"] == "12"
    assert res["trace_distribution"] == {"0x0": "28", "0x1": "20"}
    assert res["enumerated"]["size"] == "48"
    assert res["enumerated"]["trace_distribution"] == res["trace_distribution"]
    assert res["verified"] is True


def test_enumerate_and_weights_read_the_q8_n2_cells(capsys):
    # q = 8 is the least field where the family-3 plus recursion at n = 2 is solved
    code, doc, _ = run(
        capsys, "enumerate", "--r", "3", "--family", "1", "--sign", "plus", "--n", "2"
    )
    assert code == 0 and doc["result"]["verified"] is True
    assert doc["result"]["enumerated"]["size"] == doc["result"]["size"] == "258048"
    code, doc, _ = run(capsys, "weights", "--r", "3", "--family", "1", "--sign", "plus", "--n", "2")
    assert code == 0 and doc["result"]["popcount_verified"] is True


def test_enumerate_budget_degrades_to_null(capsys):
    code, doc, _ = run(
        capsys, "enumerate", "--r", "2", "--family", "1", "--sign", "minus", "--n", "3"
    )
    assert code == 0
    assert doc["result"]["enumerated"] is None
    assert doc["result"]["verified"] is None
    # the closed forms are still emitted
    assert doc["result"]["size"] == "943718400"
    assert doc["result"]["a"] == "3145728"


def test_weights_document(capsys):
    code, doc, _ = run(
        capsys,
        "weights", "--r", "2", "--family", "1", "--sign", "minus", "--n", "1",
        "--jmax", "3",
    )
    assert code == 0
    res = doc["result"]
    assert res["length"] == "5"
    assert res["weights"] == {"0x1": "4", "0x2": "2", "0x3": "2"}
    assert res["weight_prefix"] == ["1", "1", "2", "2"]
    assert res["popcount_verified"] is True


def test_weights_budget_degrades_to_null(capsys):
    code, doc, _ = run(
        capsys, "weights", "--r", "2", "--family", "1", "--sign", "minus", "--n", "3"
    )
    assert code == 0
    assert doc["result"]["popcount_verified"] is None
    assert doc["result"]["weights"]["0x1"]  # closed weights still present


def test_weights_refuses_an_unprintable_prefix_up_front(capsys, monkeypatch, default_digit_limit):
    # N = 16711680, and binom(N, j) first reaches 4300 digits at j = 917
    argv = ("weights", "--r", "4", "--family", "1", "--sign", "plus", "--n", "2", "--jmax")
    code, doc, _ = run(capsys, *argv, "916")
    assert code == 0 and len(doc["result"]["weight_prefix"]) == 917
    assert max(map(len, doc["result"]["weight_prefix"])) <= 4300
    code, _, err = run(capsys, *argv, "1001")  # outside the range
    assert code == 2 and "j_max must lie in 0..1000" in err

    def refuse(spec, j_max):
        raise AssertionError("the prefix must not be computed past the digit limit")

    monkeypatch.setattr(coset_codes, "weight_distribution_prefix", refuse)
    for j_max in ("917", "1000"):
        code, doc, err = run(capsys, *argv, j_max)
        assert code == 2 and doc is None
        assert f"j_max = {j_max} may hold counts of more than 4300 decimal digits" in err


@pytest.mark.parametrize("n", ("71", "151", "301"))
def test_weights_refusal_at_a_huge_length_is_quick(capsys, monkeypatch, default_digit_limit, n):
    # at n = 151, N has 45 450 digits: binom(N, 1000) is refused from bit lengths, never computed
    def refuse(length, j):
        raise AssertionError("the bit-length bound must decide at this length")

    monkeypatch.setattr(spec_commands, "comb", refuse)
    start = time.perf_counter()
    code, doc, err = run(capsys, "weights", "--r", "1", "--family", "1", "--sign", "minus",
                         "--n", n, "--jmax", "1000")
    assert time.perf_counter() - start < 2.0
    assert code == 2 and doc is None
    assert "j_max = 1000 may hold counts of more than 4300 decimal digits" in err


def test_weights_refuses_a_jmax_out_of_range_before_any_sum(capsys, monkeypatch):
    def refuse(spec, mode="closed_form"):
        raise AssertionError("no character sum may be computed for a j_max out of range")

    monkeypatch.setattr(double_cosets, "exp_sums_dc", refuse)
    monkeypatch.setattr(coset_codes, "exp_sums_dc", refuse)
    argv = ("weights", "--r", "1", "--family", "2", "--sign", "minus", "--n", "3", "--jmax")
    for j_max in ("-1", "1001", "5000"):
        code, doc, err = run(capsys, *argv, j_max)
        assert code == 2 and doc is None and "j_max must lie in 0..1000" in err


@pytest.mark.parametrize("command", ("enumerate", "weights"))
def test_budget_refusals_past_the_digit_limit_degrade_to_null(capsys, default_digit_limit, command):
    # at n = 71, |Q^-|^2 has more decimal digits than int-to-string conversion allows
    code, doc, err = run(capsys, command, "--r", "1", "--family", "1", "--sign", "minus", "--n", "71")
    assert code == 0, err
    verdict = "verified" if command == "enumerate" else "popcount_verified"
    assert doc["result"][verdict] is None
    assert doc["result"].get("enumerated") is None


@pytest.mark.parametrize("command", ("enumerate", "weights"))
def test_the_largest_printable_minus_coset_size_prints(capsys, default_digit_limit, command):
    # at n = 83, N has 4123 decimal digits; at n = 85 it has 4324
    code, doc, err = run(capsys, command, "--r", "1", "--family", "1", "--sign", "minus", "--n", "83")
    assert code == 0, err
    assert len(doc["result"]["size" if command == "enumerate" else "length"]) == 4123


@pytest.mark.parametrize("command", ("enumerate", "weights"))
@pytest.mark.parametrize("sign,n", (("minus", "85"), ("minus", "3001"), ("minus", "1000001"),
                                    ("plus", "1000000")))
def test_an_unprintable_coset_size_is_refused_before_any_closed_form(
        capsys, monkeypatch, default_digit_limit, command, sign, n):
    def refuse(*args):
        raise AssertionError("no closed form may be computed for an unprintable coset size")

    for name in ("dc_cardinality", "trace_distribution", "exp_sums_dc"):
        monkeypatch.setattr(double_cosets, name, refuse)
    monkeypatch.setattr(coset_codes, "closed_weights", refuse)
    start = time.perf_counter()
    code, doc, err = run(capsys, command, "--r", "1", "--family", "1", "--sign", sign, "--n", n)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and doc is None
    assert f"coset size at --n {n} has more than 4300 decimal digits" in err


def test_weights_past_the_size_limit_names_jmax_unless_it_is_zero(capsys, default_digit_limit):
    # every binom(N, j) with 1 <= j <= N/2 is at least N, so lowering --jmax helps only down to 0
    argv = ("weights", "--r", "1", "--family", "1", "--sign", "minus", "--n", "85", "--jmax")
    code, _, err = run(capsys, *argv, "1")
    assert code == 2 and "j_max = 1 may hold counts of more than 4300 decimal digits" in err
    code, _, err = run(capsys, *argv, "0")
    assert code == 2 and "coset size at --n 85 has more than 4300 decimal digits" in err
    code, _, err = run(capsys, *argv, "1001")
    assert code == 2 and "j_max must lie in 0..1000" in err


@pytest.mark.parametrize("command", ("enumerate", "weights"))
def test_no_size_refusal_without_a_digit_limit(capsys, command):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, doc, err = run(capsys, command, "--r", "1", "--family", "1", "--sign", "minus", "--n", "85")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0, err
    assert len(doc["result"]["size" if command == "enumerate" else "length"]) == 4324


def test_kloos_refusal_past_the_digit_limit_states_its_budget(capsys, default_digit_limit):
    # the refusal names its count by formula, never as a number that may not print
    code, doc, err = run(capsys, "kloos", "--r", "8", "--m", "2000", "--a", "0x1")
    assert code == 2 and doc is None
    assert "direct K_2000 sum needs (m - 1)(q - 1)^2 + (q - 1) terms, over the budget" in err


def test_kloos_refuses_a_dimension_over_the_budget_at_once(capsys, monkeypatch):
    # at q = 2 the direct sum has m terms: 10^8 + 1 is over the budget, and the
    # refusal comes before the sum reads its first lambda value
    assert not kloosterman.direct_sum_fits(2, 100000001)

    def refuse(ctx):
        raise AssertionError("a refused dimension must not start the sum")

    monkeypatch.setattr(kloosterman, "lambda_table", refuse)
    code, doc, err = run(capsys, "kloos", "--r", "1", "--m", "100000001", "--a", "0x1")
    assert code == 2 and doc is None and "over the budget" in err


def test_kloos_at_q2_is_the_sign_of_the_parity_of_m(capsys):
    # K_m(lambda;1) over GF(2) is lambda(m + 1) = (-1)^(m + 1)
    code, doc, _ = run(capsys, "kloos", "--r", "1", "--m", "5000", "--a", "0x1")
    assert code == 0 and doc["result"]["value"] == "-1"


def _weights_specs():
    """Every valid spec at (n <= 3, r = 1), (n <= 2, r = 2) and (n <= 2, r = 2,
    a_param 0x3), and at n = 1 for r <= 8."""
    fields = [(make_field(1), 3), (make_field(2), 2), (make_field(2, a_param=0x3), 2)]
    fields += [(make_field(r), 1) for r in range(3, 9)]
    return [spec for ctx, n_max in fields for n in range(1, n_max + 1)
            for spec in double_cosets.valid_specs(ctx, n)]


def _weights_argv(spec):
    ctx = spec.ctx
    sign = "plus" if spec.sign == "+" else "minus"
    return ("weights", "--r", str(ctx.r), "--a-param", hex(ctx.a_param),
            "--family", str(spec.family), "--sign", sign, "--n", str(spec.n))


@pytest.mark.parametrize("spec", _weights_specs(),
                         ids=lambda s: f"f{s.family}{s.sign}n{s.n}r{s.ctx.r}a{s.ctx.a_param}")
def test_weights_verdict_equals_the_literal_popcount(capsys, spec):
    """popcount_verified reads the enumerated classes through the transform;
    the literal popcount of every dual word must give the same verdict."""
    closed, word = coset_codes.codeword_weight_closed, coset_codes.dual_codeword
    try:
        literal = all(sum(word(spec, a)) == closed(spec, a) for a in range(1, spec.ctx.q))
    except BudgetError:
        literal = None
    code, doc, _ = run(capsys, *_weights_argv(spec))
    assert doc["result"]["popcount_verified"] is literal
    assert code == (1 if literal is False else 0)


def test_weights_verdict_catches_one_wrong_closed_weight(capsys, monkeypatch):
    real = coset_codes.closed_weights
    monkeypatch.setattr(coset_codes, "closed_weights",
                        lambda spec: tuple(w + (a == 0x5) for a, w in enumerate(real(spec))))
    code, doc, _ = run(capsys, "weights", "--r", "4", "--family", "1", "--sign", "minus", "--n", "1")
    assert doc["result"]["popcount_verified"] is False
    assert code == 1


def test_weights_over_the_enumeration_budget_at_r14_is_null(capsys):
    code, doc, _ = run(
        capsys, "weights", "--r", "14", "--family", "1", "--sign", "minus", "--n", "1"
    )
    assert code == 0
    assert doc["result"]["popcount_verified"] is None
    assert len(doc["result"]["weights"]) == (1 << 14) - 1


@pytest.mark.parametrize("r,n", [(2, 1), (2, 2), (4, 1)])
def test_character_sum_check_catches_one_wrong_closed_sum(monkeypatch, r, n):
    checks._check_exp_sums(make_field(r), n)
    real = double_cosets.exp_sums_dc

    def one_wrong_closed_sum(spec, mode="closed_form"):
        sums = real(spec, mode)
        return sums if mode != "closed_form" else tuple(s + (a == 0x3) for a, s in enumerate(sums))

    monkeypatch.setattr(double_cosets, "exp_sums_dc", one_wrong_closed_sum)
    with pytest.raises(AssertionError, match="character sum mismatch at family 1, a = 0x3"):
        checks._check_exp_sums(make_field(r), n)


ASSERTING_MOMENTS = ["moments", "--r", "3", "--family", "1", "--sign", "minus", "--n", "1", "--hmax",
                     "4", "--verify"]
ASSERTION_TEXT = "internal consistency check failed: the MacWilliams transform must divide exactly\n"


@pytest.fixture
def one_wrong_closed_weight(monkeypatch):
    """One closed weight off by one: the MacWilliams transform of the weights stops dividing,
    so ASSERTING_MOMENTS fails an internal assertion."""
    real = moment_recursion.closed_weights
    monkeypatch.setattr(moment_recursion, "closed_weights",
                        lambda spec: tuple(w + (a == 0x5) for a, w in enumerate(real(spec))))


def test_an_internal_assertion_exits_3_with_its_text_and_no_document(capsys, one_wrong_closed_weight):
    code, doc, err = run(capsys, *ASSERTING_MOMENTS)
    assert (code, doc) == (3, None)
    assert err == ASSERTION_TEXT


def test_moments_with_verification(capsys):
    code, doc, _ = run(
        capsys,
        "moments", "--r", "2", "--family", "1", "--sign", "minus", "--n", "1",
        "--hmax", "4", "--verify",
    )
    assert code == 0
    (report,) = doc["result"]["reports"]
    assert report["series"] == "mk"
    assert len(report["h"]) == 5
    assert report["h"][0] == {"h": "0", "recursion": "3", "oracle": "3", "agree": True}
    assert all(row["agree"] for row in report["h"])


def test_moments_without_verification(capsys):
    code, doc, _ = run(
        capsys,
        "moments", "--r", "2", "--family", "1", "--sign", "minus", "--n", "1",
        "--hmax", "2",
    )
    assert code == 0
    row = doc["result"]["reports"][0]["h"][1]
    assert row["oracle"] is None and row["agree"] is None


def test_moments_emits_both_series_for_even_families(capsys):
    code, doc, _ = run(
        capsys,
        "moments", "--r", "2", "--family", "2", "--sign", "plus", "--n", "2",
        "--hmax", "3", "--verify",
    )
    assert code == 0
    series = [rep["series"] for rep in doc["result"]["reports"]]
    assert series == ["mk2", "mk_even"]


def test_moments_series_flag(capsys):
    code, doc, _ = run(
        capsys,
        "moments", "--r", "2", "--family", "2", "--sign", "plus", "--n", "2",
        "--hmax", "3", "--series", "mk-even",
    )
    assert code == 0
    assert doc["params"]["series"] == "mk-even"
    (report,) = doc["result"]["reports"]
    assert report["series"] == "mk_even"


def test_moments_domain_error_is_usage_error(capsys):
    code, doc, err = run(
        capsys,
        "moments", "--r", "1", "--family", "2", "--sign", "plus", "--n", "2",
        "--hmax", "3",
    )
    assert code == 2
    assert "q >= 4" in err


# (family, sign, n) at each family's least n
FIRST_SHAPES = (
    (1, "plus", 2), (2, "plus", 2), (3, "plus", 2), (4, "plus", 4),
    (1, "minus", 1), (2, "minus", 3), (3, "minus", 3), (4, "minus", 3),
)


@pytest.mark.parametrize("family, sign, n", FIRST_SHAPES)
def test_moments_default_series_per_family(capsys, family, sign, n):
    code, doc, _ = run(
        capsys,
        "moments", "--r", "3", "--family", str(family), "--sign", sign, "--n", str(n),
        "--hmax", "1",
    )
    assert code == 0
    series = [rep["series"] for rep in doc["result"]["reports"]]
    assert series == (["mk2", "mk_even"] if family in (2, 4) else ["mk"])


def _hand_written_recursion_jobs(q):
    """The recursion jobs of the verify-all check, as listed before the
    recursion domain had one owner; the default series is labelled "mk"."""
    jobs = [(1, "+", 2, "mk"), (1, "-", 1, "mk"), (3, "-", 3, "mk")]
    if q >= 8:
        jobs.append((3, "+", 2, "mk"))
    if q >= 4:
        for fam, sign, n in ((2, "+", 2), (2, "-", 3), (4, "+", 4), (4, "-", 3)):
            jobs += [(fam, sign, n, series) for series in ("mk2", "mk_even")]
    return jobs


@pytest.mark.parametrize("r", range(1, 5))
def test_recursion_check_runs_the_hand_written_jobs(monkeypatch, r):
    real = moment_recursion.recursive_moments
    jobs = []

    def recorder(spec, h_max, series=None, with_oracle=True):
        report = real(spec, h_max, series, with_oracle)
        if with_oracle:  # the others compare the smallest cases with the general form
            jobs.append((spec.family, spec.sign, spec.n, report.series))
        return report

    monkeypatch.setattr(moment_recursion, "recursive_moments", recorder)
    checks._check_recursions(make_field(r))
    assert sorted(jobs) == sorted(_hand_written_recursion_jobs(1 << r))


def test_verify_all_caps_workers_at_the_plan_length(monkeypatch):
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)  # in the parent's list: the child's copy is its own
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    task_count = len({fargs for _, _, fargs, _ in checks._build_checks(1, {})})
    serial = verify_all(1, workers=1)
    assert forks == []
    assert verify_all(1, workers=5000) == serial
    assert len(forks) == task_count
    assert verify_all(1, workers=2) == serial
    assert len(forks) == task_count + 2


@pytest.mark.parametrize("max_r", (1, 2))
def test_verify_all_pool_tasks_group_checks_by_their_arguments(monkeypatch, capsys, tmp_path, max_r):
    # the workers write what they ran to one append-only file: "tasks <json>" once
    # per worker, then "<pid> <check name>" per check, in the order they ran them
    log = os.open(tmp_path / "ran", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    real_check, real_serve = cli._run_check, cli._serve_tasks

    def logged_check(entry):
        os.write(log, f"{os.getpid()} {entry[0]}\n".encode())
        return real_check(entry)

    def logged_serve(plan, tasks, queue, out):
        os.write(log, f"tasks {json.dumps(tasks)}\n".encode())
        real_serve(plan, tasks, queue, out)

    monkeypatch.setattr(cli, "_run_check", logged_check)
    monkeypatch.setattr(cli, "_serve_tasks", logged_serve)
    try:
        main(["verify-all", "--max-r", str(max_r), "--workers", "1"])
        serial = capsys.readouterr().out
        main(["verify-all", "--max-r", str(max_r), "--workers", "2"])
        assert capsys.readouterr().out == serial
    finally:
        os.close(log)
    plan = checks._build_checks(max_r, {})
    handed_out, runs = set(), {}
    for line in (tmp_path / "ran").read_text().splitlines():
        head, rest = line.split(" ", 1)
        if head == "tasks":
            handed_out.add(rest)
        else:
            runs.setdefault(int(head), []).append(rest)
    # the serial run ran every check here; with workers the parent ran none
    assert runs.pop(os.getpid()) == [entry[0] for entry in plan]
    assert 1 <= len(runs) <= 2 and len(handed_out) == 1
    assert sorted(name for names in runs.values() for name in names) == sorted(e[0] for e in plan)
    tasks = [[plan[index] for index in task] for task in json.loads(handed_out.pop())]
    # every task holds the plan entries of one argument tuple, in plan order
    assert len(tasks) == len({fargs for _, _, fargs, _ in plan})
    for task in tasks:
        assert [e for e in plan if e[2] == task[0][2]] == task
        # and one worker ran them back to back
        names = [entry[0] for entry in task]
        assert sum(ran[i:i + len(names)] == names for ran in runs.values() for i in range(len(ran))) == 1
    # one task for a degree's field-level checks, one for the cell checks of an (r, n)
    by_name = {entry[0]: task for task in tasks for entry in task}
    assert [e[0] for e in by_name["parabolic-cells-n1-r1"]] == [
        "parabolic-cells-n1-r1", "character-sums-n1-r1", "trace-distributions-n1-r1"]
    assert by_name["moment-oracle-r1"] is by_name["weil-bound-r1"] is by_name["so2-isometries-r1"]


def test_verify_all_loads_every_layer_before_it_forks():
    # a layer first imported in a worker would be compiled once per worker
    probe = (
        "import os, sys\n"
        "import cosetmoments.cli as cli\n"
        "real_fork, seen = os.fork, []\n"
        "def fork():\n"
        "    seen.append(sorted(m for m in sys.modules if m.startswith('cosetmoments.')))\n"
        "    return real_fork()\n"
        "os.fork = fork\n"
        "assert cli.verify_all(1, workers=2) == cli.verify_all(1, workers=1)\n"
        "print(len(seen), *{' '.join(names) for names in seen})\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, check=True
    )
    layers = ("checks", "cli", "coset_codes", "double_cosets", "finite_field", "kloosterman",
              "moment_recursion", "ominus_groups")
    assert proc.stdout.split() == ["2", *(f"cosetmoments.{name}" for name in layers)]


@pytest.mark.parametrize("death, status", [
    ("os.kill(os.getpid(), signal.SIGKILL)", -signal.SIGKILL), ("os._exit(3)", 3)])
def test_verify_all_raises_when_a_worker_dies(death, status):
    probe = (
        "import os, signal\n"
        "import cosetmoments.checks as checks\n"
        "import cosetmoments.cli as cli\n"
        f"checks._check_stirling = lambda: {death}\n"
        "try:\n"
        "    print('returned', len(cli.verify_all(1, workers=2)))\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
        "try:\n"
        "    print('left', os.waitpid(-1, os.WNOHANG))\n"
        "except ChildProcessError:\n"
        "    print('no child left')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, check=True
    )
    assert proc.stdout.splitlines() == [
        f"a verify-all worker exited with status {status}", "no child left"]


def test_verify_all_exits_2_when_a_worker_dies():
    # exit 1 means a check failed; a dead worker is an error of the run, as bad input is
    probe = (
        "import os, sys\n"
        "import cosetmoments.checks as checks\n"
        "import cosetmoments.cli as cli\n"
        "checks._check_stirling = lambda: os._exit(3)\n"
        "sys.exit(cli.main(['verify-all', '--max-r', '1', '--workers', '2']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "a verify-all worker exited with status 3\n"


def test_verify_all_workers_leave_the_parents_stdout_buffer_alone():
    # stdout is a block-buffered pipe here, so the line waits in the buffer while the workers fork
    probe = (
        "import sys\n"
        "import cosetmoments.cli as cli\n"
        "assert not (sys.stdout.line_buffering or sys.stdout.write_through)\n"
        "print('held in the buffer')\n"
        "assert cli.verify_all(1, 2) == cli.verify_all(1, 1)\n"
    )
    proc = fresh_python("-c", probe)
    assert (proc.returncode, proc.stdout) == (0, b"held in the buffer\n")


def test_verify_all_runs_serially_where_fork_is_missing(monkeypatch):
    serial = verify_all(2, workers=1)
    monkeypatch.delattr(os, "fork")
    assert verify_all(2, workers=2) == serial


def _cores_each_worker_holds(monkeypatch, tmp_path, workers):
    """verify_all(2, workers) and, per worker, the sorted cores it held as it began to serve,
    which a wrapper around cli._serve_tasks writes to one append-only file."""
    log = os.open(tmp_path / "cores", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    real_serve = cli._serve_tasks

    def logged_serve(plan, tasks, queue, out):
        os.write(log, f"{json.dumps(sorted(os.sched_getaffinity(0)))}\n".encode())
        real_serve(plan, tasks, queue, out)

    monkeypatch.setattr(cli, "_serve_tasks", logged_serve)
    try:
        result = verify_all(2, workers=workers)
    finally:
        os.close(log)
    return result, [json.loads(line) for line in (tmp_path / "cores").read_text().splitlines()]


needs_affinity = pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity API")


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs the affinity API and two allowed cores")
@pytest.mark.parametrize("workers", (2, 3))
def test_verify_all_pins_each_worker_to_one_allowed_core_round_robin(monkeypatch, tmp_path, workers):
    allowed = sorted(os.sched_getaffinity(0))
    result, held = _cores_each_worker_holds(monkeypatch, tmp_path, workers)
    assert result == verify_all(2, workers=1)
    # one core each, the allowed cores in order and then again; distinct while they last
    assert sorted(held) == sorted([allowed[i % len(allowed)]] for i in range(workers))


@needs_affinity
def test_verify_all_leaves_the_callers_cores_alone():
    before = os.sched_getaffinity(0)
    verify_all(2, workers=2)
    assert os.sched_getaffinity(0) == before


@needs_affinity
def test_a_refused_pin_keeps_the_inherited_cores(monkeypatch, tmp_path):
    serial = verify_all(2, workers=1)

    def refuse(pid, cores):
        raise PermissionError(errno.EPERM, os.strerror(errno.EPERM))

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    result, held = _cores_each_worker_holds(monkeypatch, tmp_path, 2)
    # each worker served its tasks and left by os._exit: a child that raised past the pin
    # would leave its pipe without a blob, and the parent would not return this
    assert result == serial
    assert held == [sorted(os.sched_getaffinity(0))] * 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("name, refused_call", [("fork", 1), ("fork", 2), ("pipe", 1), ("pipe", 3)])
def test_verify_all_exits_2_when_a_worker_cannot_be_started(monkeypatch, capsys, name, refused_call):
    # the system's refusal is simulated on one call; no real resource runs out
    real, calls = getattr(os, name), []

    def refusing():
        calls.append(1)  # in the parent's list: a worker's copy is its own
        if len(calls) == refused_call:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real()

    monkeypatch.setattr(os, name, refusing)
    assert run(capsys, "verify-all", "--max-r", "1", "--workers", "2") == (
        2, None, f"a verify-all worker could not be started: [Errno {errno.EAGAIN}] "
                 f"{os.strerror(errno.EAGAIN)}\n")
    with pytest.raises(ChildProcessError):  # a worker started before the refusal is reaped
        os.waitpid(-1, os.WNOHANG)


def test_verify_all_small(capsys):
    code, doc, _ = run(capsys, "verify-all", "--max-r", "1")
    assert code == 0
    counts = doc["result"]["counts"]
    assert counts["fail"] == "0"
    assert counts["skip"] == "1"
    assert int(counts["pass"]) >= 20
    by_name = {c["name"]: c for c in doc["result"]["checks"]}
    skip = by_name["range-spectrum-r1"]
    assert skip["status"] == "skip"
    assert skip["detail"] == "needs r >= 2"


def test_verify_all_reducible_override(capsys):
    code, doc, _ = run(
        capsys, "verify-all", "--max-r", "2", "--modulus-override", "2:0x5"
    )
    assert code == 1
    checks = doc["result"]["checks"]
    fails = [c for c in checks if c["status"] == "fail"]
    assert len(fails) == 1
    assert fails[0]["name"] == "field-construction-r2"
    assert "reducible" in fails[0]["detail"]
    skipped = [c for c in checks if c["status"] == "skip" and c["name"].endswith("r2")]
    assert skipped and all(
        c["detail"].startswith("field construction failed") for c in skipped
    )
    # an unrelated degree is unaffected (its one gate skip aside)
    assert all(
        c["status"] == "pass"
        for c in checks
        if c["name"].endswith("r1") and c["name"] != "range-spectrum-r1"
    )


def test_verify_all_rejects_an_override_outside_the_run(capsys):
    with pytest.raises(ValueError, match="r = 5"):
        verify_all(1, modulus_overrides={5: 0x25})
    code, doc, err = run(capsys, "verify-all", "--max-r", "1", "--modulus-override", "5:0x25")
    assert code == 2 and doc is None
    assert "r = 5" in err


def test_verify_all_rejects_fewer_than_one_worker(capsys):
    for workers in ("0", "-3"):
        code, doc, err = run(capsys, "verify-all", "--max-r", "1", "--workers", workers)
        assert code == 2 and doc is None
        assert "workers must be at least 1" in err


def test_verify_all_output_is_worker_independent(capsys):
    main(["verify-all", "--max-r", "2", "--workers", "1"])
    serial = capsys.readouterr().out
    main(["verify-all", "--max-r", "2", "--workers", "2"])
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_verify_all_refuses_a_repeated_override(capsys):
    code, doc, err = run(
        capsys, "verify-all", "--max-r", "2",
        "--modulus-override", "2:0x7", "--modulus-override", "2:0x5",
    )
    assert code == 2 and doc is None
    assert "r = 2" in err
    code, doc, _ = run(
        capsys, "verify-all", "--max-r", "2",
        "--modulus-override", "1:0x3", "--modulus-override", "2:0x7",
    )
    assert code == 0 and doc["params"]["modulus_overrides"] == {"1": "0x3", "2": "0x7"}


def test_verify_all_bad_override_syntax(capsys):
    for item in ("3", "abc:0xB", "3:zz", "3:", ":0xB", "3:-0x1"):
        code, _, err = run(capsys, "verify-all", "--modulus-override", item)
        assert (code, err) == (2, "--modulus-override takes R:HEX, e.g. 3:0xF\n"), item


HEX_OPTIONS = (("field", "--modulus"), ("field", "--a-param"), ("kloos", "--a"))


@pytest.mark.parametrize("command,option", HEX_OPTIONS)
def test_a_malformed_hex_argument_is_named(capsys, command, option):
    code, _, err = run(capsys, command, "--r", "3", option, "zz")
    assert (code, err) == (2, "'zz' is not a hex value\n")
    # what int(text, 16) also reads: underscores, a sign, spaces, digits other than ASCII
    for text in ("1_0", "0x1_1", "+5", " 5 ", "\u0661\u0662"):
        code, _, err = run(capsys, command, "--r", "3", option, text)
        assert (code, err) == (2, f"{text!r} is not a hex value\n"), text
    code, _, err = run(capsys, command, "--r", "3", option, "-0")
    assert (code, err) == (2, "negative encodings are not field elements: -0\n")


@pytest.mark.parametrize("command,option", HEX_OPTIONS)
def test_an_empty_hex_argument_is_refused_not_read_as_the_default(capsys, command, option):
    code, doc, err = run(capsys, command, "--r", "3", option, "")
    assert (code, doc, err) == (2, None, "'' is not a hex value\n")


def test_verify_all_bounds():
    with pytest.raises(ValueError):
        verify_all(0)
    with pytest.raises(ValueError):
        verify_all(9)


def _fits(call, *args) -> bool:
    try:
        call(*args)
    except BudgetError:
        return False
    return True


def test_verify_all_gates_plan_exactly_what_fits_the_budgets(monkeypatch):
    # both symmetric-matrix sums check their budget before the first term; skip the terms
    monkeypatch.setattr(ominus_groups, "_symmetric_matrices", lambda ctx, r: iter(()))
    plan = {name: args for name, _, args, _ in checks._build_checks(MAX_R, {})}
    # (reduced against closed, direct against reduced) by r
    sym_dims = {1: ((1, 2, 3), (1, 2)), 2: ((1, 2), (1,)), 3: ((1, 2), ())}
    for r in range(1, MAX_R + 1):
        ctx = make_field(r)
        dims, direct = plan[f"symmetric-matrix-sum-r{r}"][1:]
        assert (dims, direct) == sym_dims.get(r, ((1,), ()))
        assert all(_fits(ominus_groups.b_r_sum_reduced, ctx, d) for d in dims)
        assert set(direct) <= set(dims) and all(_fits(ominus_groups.b_r_sum, ctx, d) for d in direct)
        for n in (1, 2, 3):
            fits = _fits(lambda: [ominus_groups.bruhat_cell_lanes(ctx, n, k, False) for k in range(n)])
            for kind in ("parabolic-cells", "character-sums", "trace-distributions"):
                assert (f"{kind}-n{n}-r{r}" in plan) == fits
        # above q = 2 every coset the code check enumerates is an n = 1 cell
        fits = _fits(ominus_groups.bruhat_cell_lanes, ctx, 1, 0, False)
        assert (f"code-weights-and-duality-r{r}" in plan) == fits


def test_carlitz_check_leaves_out_the_direct_sum_over_its_budget(monkeypatch):
    ctx = make_field(14)
    with pytest.raises(BudgetError):
        checks.kloosterman_sum(ctx, 2, 1)
    # carlitz_k2 sums K_1 directly at every a, O(q^2) in all; read the K_1 spectrum
    k1 = kloosterman.kloosterman_spectrum(ctx, 1)
    monkeypatch.setattr(checks, "carlitz_k2", lambda c, a: k1[a] * k1[a] - c.q)
    checks._check_carlitz(ctx)


def test_every_nonzero_element_refusal_is_the_one_gate(capsys):
    ctx = make_field(3)
    spec = double_cosets.DoubleCosetSpec(1, "-", 1, ctx)
    refusals = [
        (kloosterman.kloosterman_sum, (ctx, 1, 0)), (kloosterman.carlitz_k2, (ctx, 8)),
        (kloosterman.kgl_closed, (ctx, 2, 0)), (double_cosets.exp_sum_dc, (spec, 0)),
        (coset_codes.codeword_weight_closed, (spec, 8)),
    ]
    for func, args in refusals:
        with pytest.raises(ValueError) as refused:
            func(*args)
        assert str(refused.value) == f"a must be a nonzero element of GF(8), got {args[-1]}"
    with pytest.raises(ValueError) as refused:
        ominus_groups.b_r_sum(make_field(1), 1, 2)
    assert str(refused.value) == "twist must be a nonzero element of GF(2), got 2"
    for argv, a in ((["--a", "0x0"], 0), (["--m", "2", "--a", "0x10"], 16)):
        assert run(capsys, "kloos", "--r", "3", *argv) == (
            2, None, f"a must be a nonzero element of GF(8), got {a}\n")


def test_each_input_gate_has_one_raise_site():
    source = "".join(path.read_text(encoding="utf-8")
                     for path in sorted(Path(cosetmoments.__file__).parent.glob("*.py")))
    for text in ("must be a nonzero element of GF(", "covers m in {{1, 2}}"):
        assert source.count(text) == 1, text
    assert "for w in dual_weights" not in source


def test_the_trace_classes_and_the_point_sums_share_one_closed_vector():
    spec = double_cosets.DoubleCosetSpec(2, "+", 2, make_field(2))
    caches = [obj for obj in vars(double_cosets).values()
              if hasattr(obj, "cache_info") and obj.__module__ == double_cosets.__name__]
    for cache in caches:
        cache.cache_clear()
    double_cosets.exp_sum_dc(spec, 1)
    classes = double_cosets.trace_distribution(spec)
    assert double_cosets.trace_distribution(spec, "closed_form") == classes
    assert sum(classes.values()) == double_cosets.dc_cardinality(spec)[2]
    assert [cache.cache_info().currsize for cache in caches] == [
        int(cache is double_cosets.exp_sums_dc) for cache in caches]


def test_cli_names_no_budget_of_its_own():
    # each budget is compared once, in its owning module's *_fits predicate
    assert [name for name in vars(cli) if name.endswith("_BUDGET")] == []


def test_readme_lists_every_memoised_result_by_name():
    # README's "Memoised results" list names each lru_cache site of the package, and no other
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("Memoised results", 1)[1].split("\n\n", 2)[1]
    listed = re.findall(r"^- `(\w+)`:", section, re.MULTILINE)
    modules = [import_module(f"cosetmoments.{info.name}") for info in pkgutil.iter_modules(
        cosetmoments.__path__)]
    cached = [name for mod in modules for name, obj in vars(mod).items()
              if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__]
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(cached)


@pytest.mark.parametrize(
    "argv",
    (
        ["field", "--r", "2"],
        ["kloos", "--r", "3", "--a", "0x5", "--hmax", "2"],
        ["enumerate", "--r", "1", "--family", "2", "--sign", "plus", "--n", "2"],
        ["weights", "--r", "1", "--family", "1", "--sign", "plus", "--n", "2"],
        ["moments", "--r", "2", "--family", "4", "--sign", "minus", "--n", "3",
         "--hmax", "3", "--verify"],
        ["verify-all", "--max-r", "1"],
    ),
)
def test_no_bare_numbers_anywhere(capsys, argv):
    code, doc, _ = run(capsys, *argv)
    assert code == 0
    assert_no_bare_numbers(doc)
    assert set(doc) == {"command", "version", "params", "result"}


def test_output_is_stable_under_reruns(capsys):
    main(["enumerate", "--r", "1", "--family", "3", "--sign", "plus", "--n", "2"])
    first = capsys.readouterr().out
    main(["enumerate", "--r", "1", "--family", "3", "--sign", "plus", "--n", "2"])
    assert capsys.readouterr().out == first


def test_argparse_rejections():
    with pytest.raises(SystemExit):
        main(["unknown-command"])
    with pytest.raises(SystemExit):
        main(["enumerate", "--r", "1", "--family", "1", "--sign", "+", "--n", "2"])
    with pytest.raises(SystemExit):
        main(["moments", "--r", "2", "--family", "1", "--sign", "minus", "--n", "1"])


def test_out_flag_writes_the_document_to_a_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["field", "--r", "2", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    main(["field", "--r", "2"])
    assert target.read_text() == capsys.readouterr().out


def test_out_flag_write_failure_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "doc.json"
    code = main(["field", "--r", "2", "--out", str(target)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert str(target) in err


def test_an_empty_out_path_is_refused_not_read_as_stdout(capsys):
    code, doc, err = run(capsys, "field", "--r", "2", "--out", "")
    assert (code, doc) == (2, None)
    assert err.endswith("''\n")


@pytest.mark.parametrize("where, reason", [
    ("missing/doc.json", "[Errno 2] No such file or directory"),
    ("", "[Errno 21] Is a directory"),
])
def test_an_unwritable_out_path_is_refused_before_the_command_runs(tmp_path, capsys, monkeypatch,
                                                                   where, reason):
    monkeypatch.setattr(cli, "_cmd_verify_all", lambda args: pytest.fail("the command ran"))
    target = str(tmp_path / where)
    code, doc, err = run(capsys, "verify-all", "--max-r", "8", "--workers", "2", "--out", target)
    assert (code, doc, err) == (2, None, f"{reason}: {target!r}\n")


def test_a_command_without_a_document_leaves_no_new_out_file_and_an_old_one_whole(
        tmp_path, capsys, monkeypatch, one_wrong_closed_weight):
    old = tmp_path / "old.json"
    old.write_text("an older document, longer than the one that replaces it at the end\n" * 9)
    kept = old.read_bytes()
    for argv, code in ((["kloos", "--r", "3", "--a", "zz"], 2), (ASSERTING_MOMENTS, 3)):
        for target in (tmp_path / "new.json", old):
            assert main([*argv, "--out", str(target)]) == code
    def crash(args):
        raise LookupError("an exception that escapes main")
    monkeypatch.setattr(cli, "_cmd_field", crash)
    with pytest.raises(LookupError):
        main(["field", "--r", "2", "--out", str(tmp_path / "new.json")])
    monkeypatch.undo()
    assert (sorted(tmp_path.iterdir()), old.read_bytes()) == ([old], kept)
    assert capsys.readouterr().out == ""
    assert main(["field", "--r", "2", "--out", str(old)]) == 0
    main(["field", "--r", "2"])
    assert old.read_text() == capsys.readouterr().out


def test_cold_start_loads_neither_the_process_pool_nor_dataclasses():
    forbidden = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect")
    probe = (
        "import sys, contextlib, io\n"
        "import cosetmoments.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['kloos', '--r', '3', '--a', '0x2']) == 0\n"
        "    assert cli.main(['verify-all', '--max-r', '1', '--workers', '2']) == 0\n"
        f"print(sorted(m for m in {forbidden!r} if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, check=True
    )
    assert proc.stdout.strip() == "[]"


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("command", ["field", "kloos", "enumerate", "weights", "moments",
                                     "verify-all"])
def test_a_parser_built_for_one_command_formats_as_the_full_one(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    full, own = cli._build_parser([]), cli._build_parser([command, "--r", "3"])
    assert (own.format_help(), own.format_usage()) == (full.format_help(), full.format_usage())
    mine, theirs = _subcommands(own)[command], _subcommands(full)[command]
    assert (mine.format_help(), mine.format_usage()) == (theirs.format_help(), theirs.format_usage())


def test_a_parser_built_for_kloos_gives_every_other_command_only_help():
    commands = _subcommands(cli._build_parser(["kloos", "--r", "12", "--a", "0x3"]))
    options = {name: [o for a in p._actions for o in a.option_strings] for name, p in commands.items()}
    assert options.pop("kloos") == ["-h", "--help", "--r", "--modulus", "--a-param", "--m", "--a",
                                    "--hmax", "--out"]
    assert options == dict.fromkeys(["field", "enumerate", "weights", "moments", "verify-all"],
                                    ["-h", "--help"])


def test_moments_under_dash_m_runs_the_cli_module_once():
    # spec_commands imports cli by name, while the -m run executes cli.py as __main__
    probe = (
        "import os, runpy, sys\n"
        "def hook(event, args):\n"
        "    if event == 'exec' and getattr(args[0], 'co_name', '') == '<module>':\n"
        "        os.write(2, os.path.basename(args[0].co_filename).encode() + b'\\n')\n"
        "sys.addaudithook(hook)\n"
        "sys.argv[1:] = ['moments', '--r', '3', '--family', '2', '--sign', 'plus', '--n', '2',\n"
        "                '--hmax', '4', '--verify']\n"
        "runpy.run_module('cosetmoments.cli', run_name='__main__', alter_sys=True)\n"
    )
    proc = fresh_python("-c", probe)
    bodies = proc.stderr.decode().split()
    assert proc.returncode == 0 and json.loads(proc.stdout)["command"] == "moments"
    assert (bodies.count("cli.py"), bodies.count("spec_commands.py")) == (1, 1)


def test_only_the_spec_commands_load_their_module():
    probe = (
        "import contextlib, io, sys\n"
        "import cosetmoments.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
        "    cli.main(['--help'])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['field', '--r', '3'], ['kloos', '--r', '3', '--a', '0x2'],\n"
        "                 ['verify-all', '--max-r', '1'], ['enumerate', '--r', '1', '--family', '1',\n"
        "                                                 '--sign', 'plus', '--n', '2']):\n"
        "        print(argv[0], cli.main(argv), 'cosetmoments.spec_commands' in sys.modules,\n"
        "              file=sys.stderr)\n"
    )
    proc = fresh_python("-c", probe)
    assert proc.stderr.decode().splitlines() == [
        "field 0 False", "kloos 0 False", "verify-all 0 False", "enumerate 0 True"]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cosetmoments.cli", "field", "--r", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["params"]["modulus"] == "0x2"


@pytest.mark.parametrize("argv, code, stream, tail", [
    (["field", "--r", "2"], 0, "stdout", b'"version": "%s"\n}\n' % __version__.encode()),
    (["verify-all", "--max-r", "2", "--modulus-override", "2:0x5"], 1, "stdout",
     b'"version": "%s"\n}\n' % __version__.encode()),
    (["kloos", "--r", "3", "--a", "zz"], 2, "stderr", b"'zz' is not a hex value\n"),
    (["moments", "--r", "3"], 2, "stderr",
     b"the following arguments are required: --family, --sign, --n, --hmax\n"),
    (["--help"], 0, "stdout", b"show this help message and exit\n"),
])
def test_the_module_entry_point_leaves_with_the_status_and_output_of_main(
        capsys, monkeypatch, argv, code, stream, tail):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to it, in this process and the child
    try:
        status = main(argv)
    except SystemExit as exc:  # --help and the usage error
        status = exc.code
    out, err = capsys.readouterr()
    proc = fresh_python("-m", "cosetmoments.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (status, out.encode(), err.encode())
    assert status == code
    assert getattr(proc, stream).endswith(tail)


def test_a_document_past_the_pipe_buffer_arrives_whole(capsys):
    argv = ["weights", "--r", "16", "--family", "1", "--sign", "minus", "--n", "1", "--jmax", "32"]
    assert main(argv) == 0
    document = capsys.readouterr().out.encode()
    assert len(document) > 1 << 16
    proc = fresh_python("-m", "cosetmoments.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, document, b"")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["field", "--r", "3"],
    ["weights", "--r", "12", "--family", "1", "--sign", "minus", "--n", "1"],
], ids=["small", "past-the-pipe-buffer"])
def test_a_closed_stdout_exits_120_without_a_traceback(argv, unbuffered):
    # the 94 KB weights document fails in its write, as an unbuffered stdout does; the buffered
    # field document fails in the flush, which leaves as the failed write does: nothing on stderr
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = fresh_python("-m", "cosetmoments.cli", *argv, stdout=write_end, unbuffered=unbuffered)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (120, b"")


def test_an_internal_assertion_leaves_the_process_with_exit_3():
    probe = (
        "import sys\n"
        "from cosetmoments import cli, moment_recursion\n"
        "real = moment_recursion.closed_weights\n"
        "moment_recursion.closed_weights = lambda spec: tuple(\n"
        "    w + (a == 0x5) for a, w in enumerate(real(spec)))\n"
        f"sys.argv[1:] = {ASSERTING_MOMENTS!r}\n"
        "cli.cli()\n"
    )
    proc = fresh_python("-c", probe)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, b"", ASSERTION_TEXT.encode())


@pytest.mark.parametrize("hook, teardown", [
    ("", False), ("sys.settrace(lambda *event: None)", True), ("sys.setprofile(lambda *event: None)", True),
], ids=["untraced", "tracer", "profiler"])
def test_the_exit_skips_teardown_unless_a_tracer_or_profiler_is_active(hook, teardown):
    probe = (
        "import atexit, sys\n"
        "from cosetmoments import cli\n"
        "atexit.register(print, 'teardown ran')\n"
        f"{hook}\n"
        "sys.argv[1:] = ['field', '--r', '2']\n"
        "raise SystemExit(cli.cli())\n"
    )
    proc = fresh_python("-c", probe)
    assert (proc.returncode, proc.stdout.startswith(b'{\n  "command": "field"')) == (0, True)
    assert proc.stdout.endswith(b"teardown ran\n") is teardown


def test_the_profiler_still_prints_its_report():
    proc = fresh_python("-m", "cProfile", "-m", "cosetmoments.cli", "field", "--r", "2")
    assert proc.returncode == 0
    assert proc.stdout.startswith(b'{\n  "command": "field"')
    assert b" function calls " in proc.stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that refuses every write")
def test_a_failed_flush_keeps_the_ordinary_exit():
    # stdout refuses the flush with ENOSPC, not a closed pipe: the interpreter's exit reports it as ever
    with open("/dev/full", "wb") as full:
        proc = fresh_python("-m", "cosetmoments.cli", "field", "--r", "2", stdout=full.fileno())
    assert proc.returncode == 120
    assert proc.stderr.startswith(b"Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
    assert proc.stderr.endswith(b">\nOSError: [Errno 28] No space left on device\n")


def test_a_flush_that_meets_a_closed_pipe_leaves_without_the_final_flush():
    # the closed pipe's flush exits 120 at once: no atexit handler runs and nothing reaches stderr
    probe = (
        "import atexit, sys\n"
        "from cosetmoments import cli\n"
        "atexit.register(print, 'teardown ran', file=sys.stderr)\n"
        "sys.argv[1:] = ['field', '--r', '2']\n"
        "raise SystemExit(cli.cli())\n"
    )
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = fresh_python("-c", probe, stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (120, b"")


def test_the_console_script_is_the_function_the_main_block_calls():
    tomllib = pytest.importorskip("tomllib")
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    module, _, name = tomllib.loads(text)["project"]["scripts"]["cosetmoments"].partition(":")
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    (block,) = [node for node in tree.body
                if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    called = {node.func.id for node in ast.walk(block) if isinstance(node, ast.Call)}
    assert (module, called) == ("cosetmoments.cli", {"SystemExit", name})
    assert callable(getattr(cli, name))
