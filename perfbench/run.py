"""latred benchmark: seeded closed-loop workloads with checked answers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload z-filtration --seed 1 --seconds 20 --trace 0

Workloads: z-filtration, ff-orbit, loc-poset (library calls in this
process) and cli-requests (one `python -m latred.cli` child per request).
`--workload all` runs each in its own process and prints one table.

One client, closed loop: the next op starts when the previous one returns.
With `--trace 0` the last stdout line is a JSON object with the end-to-end
metrics; with `--trace 1` a fixed number of ops runs once untraced and once
traced, and the object carries the per-layer metrics.  The exit code is 0
only if every op was answered correctly within its deadline.

Times are reported at a fixed reference machine speed (see refclock.py);
the table above the JSON line also shows the raw wall-clock figures.
"""

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

import refclock

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
OUT = ".bench_out"

LIBRARY_WORKLOADS = ("z-filtration", "ff-orbit", "loc-poset")
WORKLOADS = LIBRARY_WORKLOADS + ("cli-requests",)

DIGEST_SEED = 0        # the seed whose op outputs are frozen in data/
OP_DEADLINE_S = 20.0   # per op; its check gets the same again
MIN_OPS = 100          # so that >= 10 latency samples lie beyond the p90
SETUP_SAMPLES = 15     # fresh interpreters timed for setup_s, spread over the run
WARM_SECONDS = 1.0     # untimed warm-up, from the "warm" seed stream
REF_HALF_WINDOW = {"library": 25, "cli": 10}  # chunk readings either side of an op


class Deadline(Exception):
    pass


FAILED = object()  # stands for the result of an op that raised


def _alarm(signum, frame):
    raise Deadline()


def under_deadline(fn, *args):
    signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def digest(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def load_digests(workload):
    path = os.path.join(DATA, f"digests-{workload}.json")
    with open(path) as fh:
        doc = json.load(fh)
    return doc["round_digests"]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"]
                                 if env.get("PYTHONPATH") else "")
    return env


def spawn_seconds(argv):
    """Wall time of one child process, spawn to exit."""
    t0 = time.perf_counter()
    subprocess.run(argv, env=child_env(), check=True, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - t0


class SetupProbes:
    """setup_s: import + context building, timed in fresh interpreters.

    `SETUP_SAMPLES` probes are spread over the run (`step`), each rescaled
    by chunk readings taken just before and after it, and `value` is their
    median.  Input generation is not part of set-up.
    """

    def __init__(self, workload):
        self.argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload]
        self.raw, self.scaled = [], []
        self._probe()  # compiles .pyc files on a fresh checkout; not kept

    def _probe(self):
        before = refclock.sample()
        t = float(subprocess.run(self.argv, env=child_env(), check=True,
                                 capture_output=True, timeout=60).stdout)
        ref = statistics.median([before, refclock.sample()])
        return t, t * refclock.NOMINAL_S / ref

    def step(self, progress):
        """Take the probes due by `progress` (0 to 1) of the run."""
        while len(self.raw) < min(1.0, progress) * SETUP_SAMPLES:
            raw, scaled = self._probe()
            self.raw.append(raw)
            self.scaled.append(scaled)

    def value(self):
        self.step(1.0)
        return statistics.median(self.scaled), statistics.median(self.raw)


def measure_startup():
    """(interp_ms, import_ms): bare interpreter, and `import latred.cli` on top."""
    interp = statistics.median(spawn_seconds([sys.executable, "-c", "pass"])
                               for _ in range(5))
    full = statistics.median(spawn_seconds([sys.executable, "-c", "import latred.cli"])
                             for _ in range(5))
    return 1000 * interp, 1000 * (full - interp)


# ---------------------------------------------------------------------------
# library workloads
# ---------------------------------------------------------------------------

class Runner:
    """Runs groups of ops, timing each op and checking each answer.

    Each op's answer gets its independent check.  Each group's outputs are
    digested, each round's group digests digested again, and for the digest
    seed a round's digest must equal the frozen one.  Before each group one
    reference-clock reading is taken, for rescaling the op times.
    """

    def __init__(self, workload, seed, frozen):
        from workloads import group, round_length
        self.workload, self.seed, self.group = workload, seed, group
        self.round_length = round_length(workload)
        self.frozen = frozen if seed == DIGEST_SEED else None  # round digests
        self.unchecked_rounds = 0  # digest-seed rounds past the frozen ones
        self.latencies = []
        self.refs, self.op_ref = [], []  # chunk readings; reading index per op
        self.ok = 0
        self.failures = []
        self.digests = {}  # group -> digest of its ops' JSON outputs
        self.tracer = None

    def run_round(self, stream, r):
        ok_before = self.ok
        groups = range(r * self.round_length, (r + 1) * self.round_length)
        for g in groups:
            self.run_group(stream, g)
        if self.frozen is None:
            return
        if r >= len(self.frozen):
            self.unchecked_rounds += 1
            return
        d = self.round_digest(r)
        if d != self.frozen[r]:
            self.failures.append(f"round {r}: output digest {d} != frozen {self.frozen[r]}")
            self.ok = ok_before

    def round_digest(self, r):
        n = self.round_length
        return digest([self.digests[g] for g in range(r * n, (r + 1) * n)])

    def run_group(self, stream, g):
        self.refs.append(refclock.chunk())
        gen = self.group(self.workload, self.seed, stream, g)
        outputs, ok = [], 0
        op, result = None, None
        while True:
            try:  # building inputs and group-level checks happen when resumed
                op = under_deadline(next, gen) if op is None \
                    else under_deadline(gen.send, result)
            except StopIteration:
                break
            except Exception as exc:
                where = f"after {op.name}" if op else "at its start"
                self.failures.append(f"group {g} {where}: {exc!r}")
                ok -= 1 if op else 0  # a failed group check voids the last answer
                break
            result = self._timed(op, g, len(outputs))
            if result is FAILED:
                gen.close()
                break
            try:
                under_deadline(op.check, result)
                outputs.append(op.encode(result))
                ok += 1
            except Exception as exc:
                self.failures.append(f"group {g} {op.name}: {exc!r}")
                outputs.append(None)
        self.digests[g] = digest(outputs)
        self.ok += max(ok, 0)

    def _timed(self, op, g, k):
        """The op's result, or FAILED if it raised or ran out of time."""
        if self.tracer is not None:
            self.tracer.op_id = g * 1000 + k
            self.tracer.active = True
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
            try:
                return op.fn(*op.args)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Exception as exc:  # a failed op is counted; the run goes on
            self.failures.append(f"group {g} {op.name}: raised {exc!r}")
            return FAILED
        finally:
            self.latencies.append(time.perf_counter() - t0)
            self.op_ref.append(len(self.refs) - 1)
            if self.tracer is not None:
                self.tracer.active = False

    def scaled_latencies(self):
        return refclock.rescale(self.latencies, self.op_ref, self.refs,
                                REF_HALF_WINDOW["library"])


def warm_up(workload, seed):
    """Untimed ops from the warm-up seed stream."""
    warm = Runner(workload, seed, None)
    g = 0
    while sum(warm.latencies) < WARM_SECONDS:
        warm.run_group("warm", g)
        g += 1


def library_run(workload, seed, seconds, probes):
    """Timed closed loop over whole rounds for about `seconds` of wall time.

    The run stops at the round boundary nearest to `seconds` (and not before
    MIN_OPS ops), so every run times the same mix of instance families.
    The set-up probes are taken between rounds, spread over the run.
    """
    from workloads import contexts
    contexts(workload)
    warm_up(workload, seed)
    runner = Runner(workload, seed, load_digests(workload))
    t0 = time.perf_counter()
    r = 0
    while True:
        t_round = time.perf_counter()
        runner.run_round("timed", r)
        r += 1
        now = time.perf_counter()
        if now - t0 + (now - t_round) / 2 >= seconds and len(runner.latencies) >= MIN_OPS:
            return runner
        probes.step((now - t0) / seconds)


def library_trace(workload, seed):
    """One round once untraced, then traced; returns both runners.

    The op list is fixed, not timed, so two runs of a seed count the same work.
    """
    from workloads import contexts
    from tracing import Tracer
    contexts(workload)
    warm_up(workload, seed)
    plain = Runner(workload, seed, load_digests(workload))
    plain.run_round("timed", 0)
    traced = Runner(workload, seed, load_digests(workload))
    traced.tracer = Tracer()
    traced.tracer.install()
    traced.run_round("timed", 0)
    if traced.digests != plain.digests:
        traced.failures.append("traced and untraced op outputs differ")
        traced.ok = 0
    traced.tracer.write(os.path.join(OUT, f"trace-{workload}-seed{seed}"))
    return plain, traced


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(latencies, ok, setup_s, peak_rss_kib):
    ms = sorted(1000 * x for x in latencies)
    return {
        "ops_per_s": (ok / sum(latencies), "ops/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_kib / 1024, "MiB"),
    }


def per_layer(agg, traced_wall, untraced_wall, startup, compute_ms=0.0,
              nonzero_exit=0):
    from tracing import LAYERS
    calls, sums, self_s = agg["calls"], agg["sums"], agg["self_s"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (sum(v for k, v in calls.items()
                                     if k.split(".", 1)[0] == layer), "count")
        out[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
        out[f"{layer}.busy_frac"] = (self_s.get(layer, 0.0) / traced_wall, "fraction")
    c = lambda *names: sum(calls.get(n, 0) for n in names)  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    filtrations = c("filtration.canonical_filtration")
    out.update({
        "fq.ratfunc_new": (c("fq.FqRationalFunction.__post_init__"), "count"),
        "fq.poly_divmod": (c("fq.FqPolynomial.__divmod__"), "count"),
        "fq.poly_mul": (c("fq.FqPolynomial.__mul__"), "count"),
        "logs.compare": (c("logs.ExactLog.sign"), "count"),
        "rings.valuation": (c("rings.valuation"), "count"),
        "rings.prime_part": (c("rings.prime_part", "rings.fraction_prime_part"), "count"),
        "matrices.hnf": (c("matrices.hnf"), "count"),
        "matrices.snf": (c("matrices.snf"), "count"),
        "matrices.saturate": (c("matrices.saturate"), "count"),
        "matrices.minors": (c("matrices.minors"), "count"),
        "matrices.det": (c("matrices.det_ring", "matrices.det_field"), "count"),
        "filtration.enum_per_filtration": (ratio(
            c("latz.ZOracle.summands_of_rank_below",
              "latff.FFOracle.summands_of_rank_below"), filtrations), "ratio"),
        "latz.vectors_enumerated": (sums.get("latz.vectors_enumerated", 0), "count"),
        "latz.summands_enumerated": (sums.get("latz.summands_enumerated", 0), "count"),
        "latz.summand_yield": (ratio(sums.get("latz.summands_enumerated", 0),
                                     sums.get("latz.saturate_calls", 0)), "ratio"),
        "latff.diagonal_basis": (c("latff.diagonal_basis"), "count"),
        "latff.ff_logvol": (c("latff.ff_logvol"), "count"),
        "latff.svs_dim": (c("latff.short_vector_space_dim"), "count"),
        "sarith.t_part": (c("sarith.LocalizedContext.t_part"), "count"),
        "sarith.intersect": (c("sarith.intersect_integral"), "count"),
        "building.neighbors": (c("building.neighbors"), "count"),
        "covers.membership": (c("covers.cover_membership"), "count"),
        "cli.interp_ms": (startup[0], "ms"),
        "cli.import_ms": (startup[1], "ms"),
        "cli.compute_ms": (compute_ms, "ms"),
        "cli.nonzero_exit": (nonzero_exit, "count"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1, "fraction"),
    })
    return out


def report(metrics, attempted, failed, failures, extra=""):
    """Print the table and the result line; the exit code is 0 if all passed."""
    failed = max(failed, 1) if failures else failed
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g}  {unit}")
    print(f"{'error_rate':<{width}}  {failed / attempted:>14.6g}  fraction"
          f"  ({failed} of {attempted} ops){extra}")
    for f in failures[:20]:
        print(f"FAILED {f}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, sort_keys=False))
    sys.stdout.flush()
    return 0 if not failed else 1


def wall_clock(latencies, ok, setup_raw, scaled):
    """The table line with the raw wall-clock figures and the speed factor."""
    ms = sorted(1000 * x for x in latencies)
    return (f"\nwall clock, not rescaled: ops_per_s {ok / sum(latencies):.6g}, "
            f"latency_p50_ms {statistics.median(ms):.6g}, "
            f"latency_p90_ms {statistics.quantiles(ms, n=10)[8]:.6g}, "
            f"setup_s {setup_raw:.6g}; machine speed / reference speed "
            f"{sum(scaled) / sum(latencies):.4g}")


def run_library(workload, seed, seconds, trace):
    if not trace:
        probes = SetupProbes(workload)
        runner = library_run(workload, seed, seconds, probes)
        setup_s, setup_raw = probes.value()
        scaled = runner.scaled_latencies()
        metrics = end_to_end(scaled, runner.ok, setup_s,
                             resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        n = len(runner.latencies)
        extra = f"; {n} latency samples" + wall_clock(runner.latencies, runner.ok,
                                                       setup_raw, scaled)
        if runner.unchecked_rounds:
            extra += (f"\nNOTE {runner.unchecked_rounds} rounds ran past the frozen "
                      f"digests and were checked by their per-op checks only; "
                      f"freeze more rounds with perfbench/freeze.py")
        return report(metrics, n, n - runner.ok, runner.failures, extra)
    plain, traced = library_trace(workload, seed)
    metrics = per_layer(traced.tracer.aggregate(), sum(traced.latencies),
                        sum(plain.latencies), measure_startup())
    n = len(plain.latencies) + len(traced.latencies)
    return report(metrics, n, n - plain.ok - traced.ok, plain.failures + traced.failures)


def run_cli(seed, seconds, trace):
    import clireq
    if not trace:
        probes = SetupProbes("cli-requests")
        lat, keys, refs, failures = clireq.closed_loop(seed, seconds, MIN_OPS, probes)
        setup_s, setup_raw = probes.value()
        scaled = refclock.rescale(lat, keys, refs, REF_HALF_WINDOW["cli"])
        ok = len(lat) - len(failures)
        metrics = end_to_end(scaled, ok, setup_s,
                             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        return report(metrics, len(lat), len(failures), failures,
                      f"; {len(lat)} latency samples" + wall_clock(lat, ok, setup_raw,
                                                                   scaled))
    plain_lat, agg, traced_lat, nonzero, failures = clireq.traced_pass(seed, OUT)
    startup = measure_startup()
    compute_ms = 1000 * statistics.median(plain_lat) - startup[0] - startup[1]
    metrics = per_layer(agg, sum(traced_lat), sum(plain_lat), startup,
                        compute_ms, nonzero)
    n = len(plain_lat) + len(traced_lat)
    return report(metrics, n, len(failures), failures)


def run_all(seed, seconds, trace):
    """Every workload in its own process; one table, one combined JSON line."""
    combined, attempted, failed = {}, 0, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            sys.stderr.write(proc.stderr)
            return 2
        doc = json.loads(lines[-1])
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        attempted += doc["attempted"]
        failed += doc["failed"]
        for name, m in doc["metrics"].items():
            combined[f"{workload}.{name}"] = m
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0 if failed == 0 else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "latred", "__init__.py")):
        sys.stderr.write("run from the root of a latred checkout (src/latred missing)\n")
        return 2
    sys.path[:0] = [os.path.abspath("src"), HERE]
    signal.signal(signal.SIGALRM, _alarm)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload == "cli-requests":
        return run_cli(args.seed, args.seconds, args.trace)
    return run_library(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
