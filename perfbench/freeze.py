"""Freeze the benchmark's reference answers from the current code.

    python3 perfbench/freeze.py            # everything
    python3 perfbench/freeze.py --only cli-requests

Writes data/cli_corpus.json (each request with its stdout bytes and exit
code) and data/digests-<workload>.json (for the digest seed, one digest per
round of the digests of its groups' JSON outputs, over more rounds than one
run reaches).  Every op is checked before its digest is frozen; a failed
check aborts.

Left out of the CLI corpus on purpose, because their correct output is not
defined yet: `chamber-count --r 6` (a residue field that does not exist),
`chamber-count --r 1` and `apartment {"m": []}` (both surface a
ZeroDivisionError).
"""

import argparse
import json
import os
import signal
import sys

DIAG14 = {"n": 2, "gram": [["1", "0"], ["0", "4"]]}
VS_T2 = {"q": 2, "n": 2, "S_basis": [["1", "0"], ["0", "t^2"]]}
VS_3 = {"q": 3, "n": 3, "S_basis": [["1", "t", "0"], ["0", "t^2+1", "1/t"],
                                    ["2", "0", "t/(t+1)"]]}
FORM_3 = {"n": 3, "gram": [["2", "1", "0"], ["1", "3", "1"], ["0", "1", "5"]]}
STD_VERTEX = {"matrix": [["1", "0"], ["0", "1"]]}
LOC = {"ring": "z", "T": [2, 3],
       "B": {"n": 2, "basis": [["1/2", "1/3"], ["0", "5/4"]]},
       "summand": {"basis": [["1", "2"]]}}

# (name, argv after `latred`, stdin payload: JSON value, or raw text)
REQUESTS = [
    ("canfilt-z", ["canfilt", "--ring", "z"], DIAG14),
    ("canfilt-z-n3", ["canfilt", "--ring", "z"], FORM_3),
    ("canfilt-ff", ["canfilt", "--ring", "ff"], VS_T2),
    ("volume-z", ["volume", "--ring", "z"], {"x": FORM_3, "summand": {"basis": [[1, 1, 0]]}}),
    ("volume-ff", ["volume", "--ring", "ff"], {"x": VS_T2, "summand": {"basis": [[[], [1]]]}}),
    ("cvalue-z", ["cvalue", "--ring", "z"], {"x": DIAG14, "summand": {"basis": [[1, 0]]}}),
    ("cvalue-ff", ["cvalue", "--ring", "ff"], {"x": VS_T2, "summand": {"basis": [[[1], []]]}}),
    ("ff-invariants", ["ff-invariants"], VS_3),
    ("diagonal-basis", ["diagonal-basis"], VS_3),
    ("intersect", ["intersect"], LOC),
    ("loc-volume", ["loc-volume"], dict(LOC, x=DIAG14)),
    ("factorize-gl", ["factorize"], {"ring": "z", "T": [2, 3], "mode": "GL",
                                     "A": [["1", "1/6", "0"], ["2/5", "1", "3"], ["0", "1/4", "7"]]}),
    ("factorize-sl", ["factorize"], {"ring": "z", "T": [2, 3], "mode": "SL",
                                     "A": [["2", "1/3"], ["3", "1"]]}),
    ("building-neighbors", ["building-neighbors", "--p", "2", "--n", "2"], STD_VERTEX),
    ("building-neighbors-ff", ["building", "neighbors", "--q", "2", "--n", "3"],
     {"matrix": [["1", "0", "0"], ["0", "t", "0"], ["0", "0", "1"]]}),
    ("label-diff", ["label-diff", "--p", "2", "--n", "2"],
     {"v1": STD_VERTEX, "v2": {"matrix": [["1", "0"], ["0", "1/2"]]}}),
    ("chamber-count", ["chamber-count", "--n", "3", "--r", "2", "--k", "1"], ""),
    ("apartment", ["apartment"], {"m": [1, 0, -1]}),
    ("triangulate", ["triangulate"], {"x": ["1/2", "1/4", "-2/3"]}),
    ("cover-membership-z", ["cover-membership"], {"side": "z", "x": DIAG14, "threshold": 0}),
    ("cover-membership-ff", ["cover-membership"],
     {"side": "ff", "q": 2, "n": 2, "threshold": 8,
      "x": {"matrix": [["t^5", "0"], ["0", "1/t^5"]]}}),
    ("core-test", ["core-test"], {"side": "z", "x": FORM_3, "threshold": 0}),
    ("core-reps", ["core-reps", "--n", "3", "--theta", "2"], ""),
    ("selfcheck", ["selfcheck", "--seed", "3", "--scale", "2"], ""),
    ("exit2-malformed-json", ["canfilt", "--ring", "z"], "{not json"),
    ("exit2-missing-key", ["intersect"], {"T": [2]}),
    ("exit3-indefinite", ["canfilt", "--ring", "z"], {"n": 2, "gram": [["1", "2"], ["2", "1"]]}),
    ("exit3-sl-determinant", ["factorize"], {"ring": "z", "T": [2], "mode": "SL",
                                             "A": [["2", "0"], ["0", "1"]]}),
]

# Rounds frozen per workload: at least five times what one run reaches on a
# 2-core host at --seconds 30 (fifteen times for loc-poset), so that a faster
# program still finds its rounds here.  A run past the last one says so in
# its table.
DIGEST_ROUNDS = {"z-filtration": 60, "ff-orbit": 20, "loc-poset": 1200}


def freeze_cli():
    import clireq
    reqs = []
    for name, args, payload in REQUESTS:
        stdin = payload if isinstance(payload, str) else json.dumps(payload)
        req = {"name": name, "args": args, "stdin": stdin}
        _, out, code = clireq.run_request(req, clireq.CLI)
        req.update(stdout=out.decode(), exit=code)
        reqs.append(req)
        print(f"cli {name}: exit {code}, {len(out)} bytes")
    write("cli_corpus.json", {"requests": reqs})


def freeze_digests(workload, rounds):
    import run
    runner = run.Runner(workload, run.DIGEST_SEED, [])
    frozen = []
    for r in range(rounds):
        runner.run_round("timed", r)
        frozen.append(runner.round_digest(r))
    if runner.failures:
        sys.exit(f"{workload}: refusing to freeze failed ops: {runner.failures[:5]}")
    print(f"{workload}: {len(runner.latencies)} ops in {rounds} rounds, "
          f"{sum(runner.latencies):.1f} s")
    write(f"digests-{workload}.json", {"seed": run.DIGEST_SEED, "round_digests": frozen})


def write(name, doc):
    import run
    with open(os.path.join(run.DATA, name), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", choices=["cli-requests", *DIGEST_ROUNDS])
    args = ap.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.abspath("src"), here]
    import run
    signal.signal(signal.SIGALRM, run._alarm)
    if args.only in (None, "cli-requests"):
        freeze_cli()
    for workload, rounds in DIGEST_ROUNDS.items():
        if args.only in (None, workload):
            freeze_digests(workload, rounds)


if __name__ == "__main__":
    main()
