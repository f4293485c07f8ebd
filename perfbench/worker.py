"""Runs one corpus through the `classify --json` path, in one thread.

Reads a JSON request on standard input: the polynomial strings, the run
length and whether to trace.  Writes one JSON object on standard output.
The benchmark starts this as its own process so that peak resident
memory counts the classifier alone, not the sympy side that builds and
checks the inputs.

A round classifies every string once, in order.  Rounds repeat while
the mean round so far still fits in the time left, and at least one
round runs, so each run attempts whole rounds of the same operations.
The speed probe of `clock.py` runs between operations; each latency
comes back both as measured and scaled to reference speed.
"""

import contextlib
import importlib
import io
import json
import resource
import sys
import time

from clock import calibrate, scaled


def peak_rss_kb():
    """High-water resident memory of this process image.  VmHWM starts
    afresh at exec; ru_maxrss on Linux also keeps the peak of the
    parent image this process was forked from."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run(request):
    cli = importlib.import_module("arnoldnf.cli")
    tracer = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    polys = request["polys"]
    seconds = request["seconds"]
    latencies = [[] for _ in polys]
    scaled_latencies = [[] for _ in polys]
    answers = []
    changed = set()
    per_op = []
    rounds = []
    now = time.perf_counter
    begin = now()
    speed = calibrate()
    while True:
        round_start = now()
        for i, text in enumerate(polys):
            before = tracer.snapshot() if tracer and not rounds else None
            out = io.StringIO()
            start = now()
            with contextlib.redirect_stdout(out):
                code = cli.main(["--json", "--", text])
            elapsed = now() - start
            speed_after = calibrate()
            latencies[i].append(elapsed)
            scaled_latencies[i].append(scaled(elapsed, speed, speed_after))
            speed = speed_after
            answer = (code, out.getvalue().strip())
            if not rounds:
                answers.append(answer)
                if before is not None:
                    per_op.append(_delta(before, tracer.snapshot()))
            elif answer != answers[i]:
                changed.add(i)
        rounds.append(now() - round_start)
        spent = now() - begin
        if spent + spent / len(rounds) > seconds:
            break

    result = {
        "rounds": rounds,
        "latencies": latencies,
        "scaled_latencies": scaled_latencies,
        "answers": answers,
        "changed": sorted(changed),
        "peak_rss_kb": peak_rss_kb(),
    }
    if tracer:
        result["trace"] = {
            "self_s": dict(tracer.self_s),
            "calls": dict(tracer.calls),
            "tower_mul": tracer.tower_mul,
            "tower_degree_max": tracer.tower_degree_max,
            "per_op": per_op,
        }
    return result


def _delta(before, after):
    s0, c0, m0 = before
    s1, c1, m1 = after
    return {
        "self_s": {k: v - s0.get(k, 0.0) for k, v in s1.items() if v != s0.get(k, 0.0)},
        "calls": {k: v - c0.get(k, 0) for k, v in c1.items() if v != c0.get(k, 0)},
        "tower_mul": m1 - m0,
    }


if __name__ == "__main__":
    json.dump(run(json.load(sys.stdin)), sys.stdout)
