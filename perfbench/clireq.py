"""cli-requests: frozen CLI requests, one `python -m latred.cli` child each.

The request set and its expected stdout bytes and exit codes live in
data/cli_corpus.json (written by freeze.py).  The seed sets the order of
the requests in each round; every answer is compared byte for byte.
"""

import json
import os
import random
import subprocess
import sys
import time

import refclock
from run import DATA, HERE, OP_DEADLINE_S, child_env
from tracing import merge


def load_corpus():
    with open(os.path.join(DATA, "cli_corpus.json")) as fh:
        return json.load(fh)["requests"]


def run_request(req, prefix):
    """(seconds, stdout bytes, exit code) of one child, spawn to exit."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(prefix + req["args"], input=req["stdin"].encode(),
                              capture_output=True, env=child_env(),
                              timeout=OP_DEADLINE_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, None, None
    return time.perf_counter() - t0, proc.stdout, proc.returncode


def mismatch(req, out, code):
    if out is None:
        return f"{req['name']}: no exit within {OP_DEADLINE_S} s"
    if code != req["exit"] or out.decode() != req["stdout"]:
        return f"{req['name']}: exit {code}, stdout differs from the corpus"
    return None


CLI = [sys.executable, "-m", "latred.cli"]


def closed_loop(seed, seconds, min_ops, probes):
    """Seeded rounds over the corpus until `seconds` and `min_ops` are reached.

    A run stops only at the end of a round, so every run sends each request
    the same number of times.  Returns the request times, the reference-clock
    readings (one taken before each request) and the failures.  The set-up
    probes are taken between requests, spread over the run.
    """
    corpus = load_corpus()
    run_request(corpus[0], CLI)  # compiles .pyc files; not timed
    latencies, refs, failures = [], [], []
    t0 = time.perf_counter()
    rnd = 0
    while True:
        order = list(corpus)
        random.Random(f"cli-requests/{seed}/{rnd}").shuffle(order)
        for req in order:
            refs.append(refclock.sample(5))
            dt, out, code = run_request(req, CLI)
            latencies.append(dt)
            bad = mismatch(req, out, code)
            if bad:
                failures.append(bad)
            probes.step((time.perf_counter() - t0) / seconds)
        rnd += 1
        if time.perf_counter() - t0 >= seconds and len(latencies) >= min_ops:
            return latencies, list(range(len(refs))), refs, failures


def traced_pass(seed, out_dir):
    """One seeded round untraced, then the same round with traced children."""
    corpus = load_corpus()
    order = list(corpus)
    random.Random(f"cli-requests/{seed}/0").shuffle(order)
    run_request(order[0], CLI)
    plain, traced, aggs, failures = [], [], [], []
    nonzero = 0
    for req in order:
        dt, out, code = run_request(req, CLI)
        plain.append(dt)
        bad = mismatch(req, out, code)
        if bad:
            failures.append(bad)
    trace_dir = os.path.join(out_dir, f"trace-cli-requests-seed{seed}")
    for k, req in enumerate(order):
        span_dir = os.path.join(trace_dir, f"{k:03d}-{req['name']}")
        shim = [sys.executable, os.path.join(HERE, "cli_child.py"), span_dir, str(k)]
        dt, out, code = run_request(req, shim)
        traced.append(dt)
        nonzero += code != 0
        bad = mismatch(req, out, code)
        if bad:
            failures.append("traced " + bad)
            continue
        with open(os.path.join(span_dir, "index.json")) as fh:
            aggs.append(json.load(fh)["aggregate"])
    return plain, merge(aggs), traced, nonzero, failures

