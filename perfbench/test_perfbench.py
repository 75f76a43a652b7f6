"""Self-tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

They take a few minutes: `test_one_command_prints_every_metric` runs every
workload once.
"""

import json
import os
import signal
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import refclock  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

END_TO_END = ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "setup_s",
              "peak_rss_mb", "error_rate")


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc.returncode, proc.stdout.splitlines()


@pytest.fixture(autouse=True)
def deadline_signal():
    old = signal.signal(signal.SIGALRM, run._alarm)
    yield
    signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("workload", ["z-filtration", "loc-poset"])
def test_traced_counts_repeat(workload):
    runs = []
    for _ in range(2):
        code, lines = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                            "--trace", "1")
        assert code == 0, lines[-5:]
        metrics = json.loads(lines[-1])["metrics"]
        runs.append({k: m["value"] for k, m in metrics.items() if m["unit"] == "count"})
    assert runs[0] == runs[1]
    assert runs[0]["matrices.calls"] > 0


def test_traced_and_untraced_outputs_agree():
    plain, traced = run.library_trace("loc-poset", 2)
    assert not plain.failures and not traced.failures
    assert plain.digests == traced.digests
    assert len(plain.digests) == workloads.round_length("loc-poset")


def _digests(workload, seed, groups):
    runner = run.Runner(workload, seed, None)
    for g in groups:
        runner.run_group("timed", g)
    assert not runner.failures
    return runner.digests


def test_seed_changes_inputs():
    cheap = range(1, 9)  # loc_c and factorize groups of loc-poset
    a = _digests("loc-poset", 1, cheap)
    assert a == _digests("loc-poset", 1, cheap)
    b = _digests("loc-poset", 2, cheap)
    assert sum(a[g] != b[g] for g in cheap) >= 6


def test_frozen_digests_catch_a_changed_answer():
    runner = run.Runner("loc-poset", run.DIGEST_SEED, ["000000000000"])
    runner.run_round("timed", 0)
    assert runner.ok == 0 and "frozen" in runner.failures[-1]


def test_rounds_past_the_frozen_digests_are_counted():
    runner = run.Runner("loc-poset", run.DIGEST_SEED, [])
    runner.run_round("timed", 0)
    assert runner.unchecked_rounds == 1 and not runner.failures


def test_group_failing_before_its_first_op_is_counted():
    def broken(*args):
        raise ValueError("no inputs")
        yield  # a generator, like every group

    runner = run.Runner("loc-poset", 1, None)
    runner.group = broken
    runner.run_group("timed", 0)
    assert runner.ok == 0 and "at its start" in runner.failures[-1]


def test_rescale_divides_out_the_machine_speed():
    refs = [2 * refclock.NOMINAL_S] * 5  # a machine at half the reference speed
    assert refclock.rescale([1.0, 3.0], [0, 4], refs, 2) == [0.5, 1.5]


def test_one_command_prints_every_metric():
    code, lines = bench("--workload", "all", "--seed", "1", "--seconds", "1")
    assert code == 0, lines[-5:]
    doc = json.loads(lines[-1])
    assert doc["correct"] and doc["failed"] == 0
    table = {}
    workload = None
    for line in lines[:-1]:
        if line.startswith("== "):
            workload = line[3:]
        elif workload and line.split() and line.split()[0] in END_TO_END:
            name, value, unit = line.split()[:3]
            table[workload, name] = (float(value), unit)
    for w in run.WORKLOADS:
        for name in END_TO_END:
            assert (w, name) in table, (w, name)
        assert table[w, "error_rate"][0] == 0
        assert table[w, "latency_p50_ms"][1] == "ms"


def test_refuses_without_the_program():
    # the benchmark's own directory holds no src/latred
    code, lines = bench("--workload", "loc-poset", "--seed", "1", "--seconds", "1",
                        cwd=HERE)
    assert code != 0 and not lines
