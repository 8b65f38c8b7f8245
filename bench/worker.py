"""One benchmark process: times requests and prints one JSON object to stdout.

Reads a JSON spec from stdin, either
  {"requests": [ids...], "workload": name, "seed": n, "first_round": k,
   "until": t, "trace": bool}         in-process requests, in rounds;
  {"cli": [args...]}                    one traced `singzeta` CLI command.

In-process requests: this process imports what a `singzeta` CLI process has
loaded, then runs rounds until time.monotonic() reaches `until`, at least one
(exactly one with "trace").  A round runs every request once, in the order
`workloads.order` draws for it, each in a child forked from this process, so
every request starts with this process's empty memo caches; the child runs on
the round's CPU (`workloads.pin`).  The child times
its request, under the span tracer with "trace", hashes the output after the
clock stops, and writes one JSON object to a pipe.  run.py starts this file
with PYTHONPATH pointing at the checkout's `src`.
"""

import contextlib
import io
import json
import os
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def _measure(rid, trace):
    """Run one request in this (forked) process; returns its sample."""
    sample = {"id": rid, "error": None}
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer().install()
    clock = time.perf_counter
    start = clock()
    try:
        if tracer is None:
            result = workloads.execute(rid)
        else:
            result = tracer.span("request", workloads.execute, rid)
    except Exception:
        sample["error"] = traceback.format_exc(limit=-1).strip().splitlines()[-1]
    sample["latency_s"] = clock() - start
    if tracer is not None:
        tracer.uninstall()
        sample["trace"] = tracer.summary()
    if sample["error"] is None:
        sample["digest"] = workloads.digest(workloads.canonical(rid, result))
        sample["failed_reports"] = workloads.failed_reports(rid, result)
    return sample


def run_forked(rid, trace, round_index):
    """Run one request in a child forked from this process; returns its sample."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            # this process's stdout carries the worker's result; a request's
            # own output goes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            workloads.pin(round_index)
            with os.fdopen(write_fd, "w") as out:
                json.dump(_measure(rid, trace), out)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        return {"id": rid, "error": "request process ended with status %d" % status,
                "latency_s": None}
    return json.loads(data)


def run_rounds(spec):
    import singzeta.acceptance  # noqa: F401  (what `singzeta suite` has loaded)
    import singzeta.cli  # noqa: F401
    if spec["trace"]:
        import tracer  # noqa: F401  (imported once, not in every child)
    samples, rounds = [], 0
    while True:
        index = spec["first_round"] + rounds
        ids = workloads.order(spec["workload"], spec["seed"], index, spec["requests"])
        samples += [run_forked(rid, spec["trace"], index) for rid in ids]
        rounds += 1
        if spec["trace"] or time.monotonic() >= spec["until"]:
            break
    return {"samples": samples, "rounds": rounds}


def run_cli(args):
    from tracer import Tracer
    from singzeta import cli
    tracer = Tracer().install()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tracer.span("cli.dispatch", cli.dispatch, args)
    tracer.uninstall()
    return {"exit": code, "stdout": buf.getvalue(), "trace": tracer.summary()}


def main():
    spec = json.load(sys.stdin)
    out = run_cli(spec["cli"]) if "cli" in spec else run_rounds(spec)
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
