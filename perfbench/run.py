"""layerspec benchmark: time CLI workloads end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every measured run is one
``layerspec <subcommand>`` in a fresh child interpreter (perfbench/child.py),
one at a time, on a configuration file generated from the seed.  Runs repeat
until the time budget is spent; each output is checked.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (medians over the run):

* ``wall_s``: ``layerspec.cli.main`` call to return, after import;
* ``setup_s``: fresh interpreter to ``layerspec.cli`` imported;
* ``peak_rss_mb``: peak resident memory of the child process.

With ``--trace 1`` untraced and traced children alternate; the JSON holds
the per-layer metrics of the traced children (see tracer.py) and
``trace.overhead_s``, the median of traced minus untraced ``wall_s`` over
neighbouring pairs.  The traced
``<cmd>.json`` must be byte-identical to the untraced one.

Everything is written under ``.bench_out/`` in the checkout, including a
``result.json`` per run with the configuration, the environment and every
sample.  Exit status is 0 only when every output check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join(HERE, "child.py")

sys.path.insert(0, HERE)
from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
MIN_RUNS = {0: 3, 1: 2}  # measured children of each kind per run, whatever the budget
CHILD_TIMEOUT_S = 150


def spawn(result_path, args):
    """Run one child; return its record (None on failure) and an error text."""
    if os.path.exists(result_path):
        os.remove(result_path)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, result_path, SRC] + args, cwd=ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"child timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    with open(result_path, encoding="utf-8") as fh:
        record = json.load(fh)
    record["setup_s"] = record.pop("imported_at") - started
    return record, ""


def run_workload(workload, picked, config_path, out_dir, trace_id=None):
    """One measured child: (record or None, output bytes or None, failures)."""
    args = [] if trace_id is None else ["--trace", str(trace_id)]
    args += ["--", workload.command, "--config", config_path, "--out", out_dir]
    record, error = spawn(out_dir + ".child.json", args)
    if record is None:
        return None, None, [error]
    if record["exit_code"] != 0:
        return record, None, [f"layerspec exited {record['exit_code']}"]
    try:
        with open(os.path.join(out_dir, workload.command + ".json"), "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        return record, None, [f"no {workload.command}.json: {exc}"]
    try:
        return record, raw, workload.check(json.loads(raw)["results"], picked)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return record, raw, [f"malformed {workload.command}.json: {exc!r}"]


def source_identity():
    """The git commit of the checkout, when it is a repository, and a digest of src/."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "layerspec")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def summary(values):
    """(median, q1, q3) of a non-empty sample."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "layerspec", "cli.py")):
        print(f"no layerspec sources under {SRC}: run from a source checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    picked, config_text = workload.config(args.seed)
    config_path = os.path.join(run_dir, "run.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(config_text)

    setup = []
    kinds = [None] if args.trace == 0 else [None, "traced"]
    samples = {kind: [] for kind in kinds}
    failures = []
    reference_output = None
    attempted = 0
    began = time.monotonic()
    while True:
        kind = kinds[attempted % len(kinds)]
        done = samples[kind]
        took = [s["took_s"] for s in done]
        if len(done) >= MIN_RUNS[args.trace] and (
                time.monotonic() - began + statistics.median(took) > args.seconds):
            break
        out_dir = os.path.join(run_dir, f"run{attempted}")
        start = time.monotonic()
        record, raw, fails = run_workload(
            workload, picked, config_path, out_dir, None if kind is None else attempted)
        attempted += 1
        if raw is not None:
            if reference_output is None:
                reference_output = raw
            elif raw != reference_output:
                fails = fails + ["<cmd>.json differs from the run's first output"]
        if fails:
            failures.append({"run": attempted - 1, "kind": kind or "untraced", "failures": fails})
        if record is None:
            record = {}
        record["took_s"] = time.monotonic() - start
        done.append(record)
        if "setup_s" in record:
            setup.append(record["setup_s"])

    plain = [r for r in samples[None] if "wall_s" in r]
    failed = len(failures)
    metrics = {}
    lines = []
    if plain:
        stats = {
            "wall_s": [r["wall_s"] for r in plain],
            "setup_s": setup,
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        for name, unit in END_TO_END:
            med, q1, q3 = summary(stats[name])
            lines.append(f"{name:<13} {med:10.4f} {unit:<3} (q1 {q1:.4f}, q3 {q3:.4f}, n = {len(stats[name])})")
            metrics[name] = {"value": med, "unit": unit}
    lines.append(f"failed_frac   {failed / attempted:10.4f}     ({failed} of {attempted} runs)")

    per_layer = {}
    traced = [r for r in samples.get("traced", []) if "per_layer" in r]
    if traced and plain:
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                # children alternate untraced, traced: pair neighbours so
                # both sides of a difference see the same load on the machine
                value = statistics.median(
                    t["wall_s"] - u["wall_s"] for u, t in zip(plain, traced))
            else:
                value = statistics.median(r["per_layer"][name] for r in traced)
            per_layer[name] = {"value": value, "unit": unit}

    environment = next((r["environment"] for done in samples.values() for r in done
                        if "environment" in r), {})
    environment.update(source_identity())
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({
            "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "picked": {workload.key: picked}, "config": config_text,
            "environment": environment, "setup_s": setup,
            "runs": {kind or "untraced": [{k: v for k, v in r.items() if k != "spans"}
                                          for r in done] for kind, done in samples.items()},
            "failures": failures, "metrics": metrics, "per_layer": per_layer,
        }, fh, indent=1)
        fh.write("\n")

    print(f"workload {workload.name} (layerspec {workload.command}), seed {args.seed}: "
          f"{workload.key} = {picked!r}")
    print("config:\n  " + config_text.strip().replace("\n", "\n  "))
    print("environment: " + json.dumps(environment))
    print("\n".join(lines))
    for fail in failures:
        print(f"FAILED run {fail['run']} ({fail['kind']}): " + "; ".join(fail["failures"]))
    if args.trace:
        for name, item in per_layer.items():
            print(f"  {name:<56} {item['value']:.6g} {item['unit']}")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics) and (not args.trace or bool(per_layer)),
        "attempted": attempted,
        "failed": failed,
        "metrics": per_layer if args.trace else metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
