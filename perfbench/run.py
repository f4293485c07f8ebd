"""Benchmark of the classifier: one workload, one seed, one run.

    python3 perfbench/run.py --workload one-face --seed 1 --seconds 20 --trace 0

Run from the repository root.  Builds the workload's inputs from the
seed with sympy, certifies them apart from the program, starts
`worker.py` to classify them through the `classify --json` path for
about `--seconds` seconds, checks every answer, and prints one JSON
line: whether all answers were right, the operations attempted and
failed, and the end-to-end metrics (`--trace 0`) or the per-layer
metrics of a traced run (`--trace 1`).  See README.md.
"""

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "milnor_oracle.py"
OUT = HERE / "out"

SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 170


PER_LAYER_TIMES = [
    "transform.absorb_above",
    "poly.mul_trunc",
    "localalg.milnor_number",
    "transform.split_germ",
    "poly.substitute",
    "transform.straighten_jet",
    "transform.graded_ladder",
    "localalg.layer_decompose",
    "transform.normalize_double_core",
    "transform.kill_face_middle",
    "transform.clear_level",
    "scalars.inverted",
    "scalars.adjoin_root",
    "transform.even_quartic_form",
    "transform.rescale_to_unit",
    "cli.result_payload",
    "scalars.approximate",
    "poly.parse_poly",
]
PER_LAYER_CALLS = [
    "transform.absorb_above",
    "poly.mul_trunc",
    "localalg.milnor_number",
    "transform.split_germ",
    "poly.substitute",
    "scalars.inverted",
    "scalars.adjoin_root",
]


def _load_oracle():
    spec = importlib.util.spec_from_file_location("milnor_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.brute_milnor


def _python(script, stdin, timeout):
    """Run a script of this directory in a fresh interpreter that finds
    the package under src/; return its standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(HERE / script)],
        input=stdin,
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{script} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return proc.stdout


def time_setup():
    """Import times of the package at reference speed, one fresh
    interpreter each."""
    times = []
    for _ in range(SETUP_REPEATS):
        elapsed, before, after = map(float, _python("setup_probe.py", "", 60).split())
        times.append(clock.scaled(elapsed, before, after))
    return times


def _run_worker(polys, seconds, trace):
    request = {"polys": polys, "seconds": seconds, "trace": trace}
    return json.loads(_python("worker.py", json.dumps(request), WORKER_TIMEOUT_S))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def tail_percentile(count):
    """Highest whole percentile leaving at least ten of `count` samples
    beyond it."""
    return (100 * count - 1000) // count


def end_to_end(result, setup):
    # one time per germ: the median of its scaled times over the rounds
    times = [statistics.median(per_op) for per_op in result["scaled_latencies"]]
    cuts = statistics.quantiles(times, n=100, method="inclusive")
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "germs_per_s": _metric(len(times) / sum(times), "1/s"),
        "latency_p50_ms": _metric(statistics.median(times) * 1e3, "ms"),
        "latency_tail_ms": _metric(cuts[tail_percentile(len(times)) - 1] * 1e3, "ms"),
        "peak_rss_mb": _metric(result["peak_rss_kb"] / 1024, "MB"),
    }


def per_layer(result):
    trace = result["trace"]
    rounds = len(result["rounds"])
    # span times scale by the run's ratio of scaled to measured time
    measured = sum(map(sum, result["latencies"]))
    speed = sum(map(sum, result["scaled_latencies"])) / measured
    self_s = {k: v * speed for k, v in trace["self_s"].items()}
    calls = trace["calls"]
    metrics = {}
    for name in PER_LAYER_TIMES:
        metrics[f"{name}.s"] = _metric(self_s.get(name, 0.0) / rounds, "s")
    for name in PER_LAYER_CALLS:
        metrics[f"{name}.calls"] = _metric(calls.get(name, 0) / rounds, "count")
    metrics["newton.s"] = _metric(
        sum(v for k, v in self_s.items() if k.startswith("newton.")) / rounds, "s"
    )
    metrics["classify.self_s"] = _metric(self_s.get("classify.classify", 0.0) / rounds, "s")
    splits = calls.get("transform.split_germ", 0)
    metrics["localalg.milnor_per_split"] = _metric(
        calls.get("localalg.milnor_number", 0) / splits if splits else 0.0, "ratio"
    )
    metrics["scalars.tower_mul.calls"] = _metric(trace["tower_mul"] / rounds, "count")
    metrics["scalars.tower_degree_max"] = _metric(trace["tower_degree_max"], "degree")
    metrics["trace.round_s"] = _metric(measured * speed / rounds, "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "arnoldnf").is_dir() or not ORACLE.is_file():
        print(f"missing {SRC / 'arnoldnf'} or {ORACLE}: run from a checkout", file=sys.stderr)
        return 2
    # these import sympy, which takes a while: only once the checkout is known
    import checks
    import corpus

    if args.workload not in corpus.WORKLOADS:
        parser.error(f"unknown workload {args.workload}; one of {sorted(corpus.WORKLOADS)}")
    ops = corpus.build(args.workload, args.seed)
    checks.certify(ops, _load_oracle())

    setup = None if args.trace else time_setup()
    result = _run_worker([op["poly"] for op in ops], args.seconds, bool(args.trace))

    errors = []
    failed_per_round = 0
    for op, (code, text) in zip(ops, result["answers"]):
        problem = checks.check_answer(op, code, text)
        if problem is None:
            continue
        if op.get("known_fault"):
            failed_per_round += 1
        else:
            errors.append(f"{op['id']}: {problem} [{op['poly']}]")
    errors += [f"{ops[i]['id']}: answer changed between rounds" for i in result["changed"]]
    leaks = checks.self_test(ops, result["answers"])
    if leaks:
        print("self-test failed: " + "; ".join(leaks), file=sys.stderr)
        return 3
    for line in errors:
        print(f"wrong answer: {line}", file=sys.stderr)

    rounds = len(result["rounds"])
    metrics = per_layer(result) if args.trace else end_to_end(result, setup)
    report = {
        "correct": not errors,
        "attempted": rounds * len(ops),
        "failed": rounds * failed_per_round,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": result["rounds"],
        "errors": errors,
        "ops": [
            {
                "id": op["id"],
                "poly": op["poly"],
                "answer": answer[1],
                "latency_s": lat,
                "scaled_latency_s": scaled,
                **({"trace": result["trace"]["per_op"][i]} if args.trace else {}),
            }
            for i, (op, answer, lat, scaled) in enumerate(
                zip(ops, result["answers"], result["latencies"], result["scaled_latencies"])
            )
        ],
        "report": report,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
