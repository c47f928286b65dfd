"""Deadline accounting and the correctness gate of single operations."""

import json
import time

import instances
import workloads
from workloads import Op, Outcome, run_op


def test_a_missed_deadline_is_charged_the_full_deadline():
    attempt = run_op(Op("sleeper", lambda: time.sleep(5)), 0.05)
    assert attempt.missed and attempt.seconds == 0.05 and attempt.outcome is None
    assert attempt.problems == ["missed its 0.05 s deadline"]


def test_an_exception_is_a_failed_operation():
    def boom():
        raise ValueError("bad input")

    attempt = run_op(Op("boom", boom), 1.0)
    assert not attempt.missed
    assert attempt.problems == ["raised ValueError: bad input"]


def test_a_finished_operation_keeps_its_outcome():
    attempt = run_op(Op("ok", lambda: Outcome("out", [])), 1.0)
    assert attempt.outcome.text == "out" and attempt.problems == []


def test_analyze_is_checked_against_the_closed_form(tmp_path):
    data = instances.generic_arrangement(instances.stream("gate", 0), 2, 4)
    path = tmp_path / "a.json"
    path.write_text(json.dumps(data))
    good = workloads.cli_op("good", ["analyze", str(path)],
                            workloads._check_analyze(4, [1, 4, 6], 3))
    assert run_op(good, 30.0).problems == []
    wrong = workloads.cli_op("wrong", ["analyze", str(path)],
                             workloads._check_analyze(4, [1, 4, 5], 2))
    assert run_op(wrong, 30.0).problems == ["dims [1, 4, 6] != [1, 4, 5]", "chi 3 != 2"]


def test_a_failing_exit_code_is_reported(tmp_path):
    op = workloads.cli_op("missing", ["analyze", str(tmp_path / "none.json")],
                          lambda report: ([], 0))
    problems = run_op(op, 30.0).problems
    assert problems[0] == "exit code 2"


def test_only_a_miss_of_the_hanging_rung_keeps_the_run_correct():
    hang = Op("hang", lambda: time.sleep(5), deadline=workloads.HANG_DEADLINE_S)
    slow = Op("slow", lambda: time.sleep(5))
    missed = run_op(hang, 0.05)
    assert workloads.known_hang(hang, missed)
    assert not workloads.known_hang(slow, run_op(slow, 0.05))
    assert not workloads.known_hang(hang, run_op(Op("boom", lambda: 1 / 0), 1.0))
