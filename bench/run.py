"""The singzeta benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every request runs from a fresh start with PYTHONPATH=src: an in-process
request in a child forked from a worker that has only imported singzeta, a CLI
command in its own interpreter.  So every memo cache starts empty, as in each
`singzeta` invocation.  A run makes rounds for S seconds, each running every
request of the workload once in an order drawn from the seed.  Every request's
output is checked against `reference.json`; a request that raises, exits
non-zero, reports 'fail' or differs from the reference is failed.

--trace 0 prints the end-to-end metrics, --trace 1 runs one untraced and one
traced round and prints the per-layer metrics.  The last line of stdout is one
JSON object; README.md says what each metric means.
"""

import argparse
import functools
import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 3  # imports timed before the first part of a run and after each part
PARTS = 3  # a run is split into parts with set-up timed between
SETUP_CODE = "import singzeta.cli, singzeta.acceptance"
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a request failing)."""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # bytecode is cached as in a normal install, whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _child(argv, stdin=None, round_index=None):
    """Run a child process to completion; returns (exit code, stdout, stderr).

    With `round_index` the child runs on that round's CPU.  The child leads
    its own process group, so that on a timeout or an interrupt the request
    processes a worker forked end with it.
    """
    pin = None if round_index is None else functools.partial(workloads.pin, round_index)
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=ROOT, env=_env(),
                            start_new_session=True, preexec_fn=pin)
    try:
        out, err = proc.communicate(stdin, timeout=CHILD_TIMEOUT_S)
    except BaseException as exc:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError("%s ran longer than %d s" % (argv[1:3], CHILD_TIMEOUT_S))
        raise
    return proc.returncode, out, err


def _worker(spec, round_index=None):
    code, out, err = _child([sys.executable, str(BENCH / "worker.py")],
                            json.dumps(spec).encode(), round_index)
    if code != 0:
        raise BenchError("worker failed:\n" + err.decode(errors="replace")[-2000:])
    return json.loads(out)


def time_setup(index=0):
    """Seconds from a fresh interpreter until the CLI and the battery are imported.

    `index` picks the CPU, as a round's index does."""
    start = time.perf_counter()
    code, _, err = _child([sys.executable, "-c", SETUP_CODE], round_index=index)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise BenchError("cannot import singzeta from %s:\n%s"
                         % (SRC, err.decode(errors="replace")[-2000:]))
    return elapsed


def cli_request(rid, trace, round_index):
    """One CLI process on the round's CPU; a traced command runs inside worker.py."""
    argv = workloads.CLI_ARGV[rid]
    clock = time.perf_counter
    start = clock()
    if trace:
        data = _worker({"cli": argv}, round_index)
        code, stdout = data["exit"], data["stdout"].encode()
    else:
        code, stdout, _ = _child([sys.executable, "-m", "singzeta.cli"] + argv,
                                 round_index=round_index)
    latency = clock() - start
    sample = {"id": rid, "latency_s": latency,
              "error": None if code == 0 else "exit code %d" % code,
              "digest": workloads.cli_digest(code, stdout), "failed_reports": 0}
    if trace:
        # the request span covers the whole process; the worker's spans are its children
        summary = data["trace"]
        summary["edges"] = [["request" if e[0] is None else e[0]] + e[1:]
                            for e in summary["edges"]]
        summary["edges"].append([None, "request", 1, latency,
                                 latency - summary["top_total_s"]])
        sample["trace"] = summary
    return sample


def run_rounds(workload, ids, seed, first_round, until, trace):
    """Rounds of every request in `ids` until time.monotonic() reaches `until`.

    At least one round runs, and with `trace` exactly one.  Returns
    {"samples": [one per request run], "rounds": count}.
    """
    if workload != workloads.CLI_TOUR:
        return _worker({"requests": ids, "workload": workload, "seed": seed,
                        "first_round": first_round, "until": until, "trace": trace})
    samples, rounds = [], 0
    while True:
        index = first_round + rounds
        samples += [cli_request(rid, trace, index)
                    for rid in workloads.order(workload, seed, index, ids)]
        rounds += 1
        if trace or time.monotonic() >= until:
            break
    return {"samples": samples, "rounds": rounds}


def check(samples, references):
    """(attempted, failures): failures is a list of (request id, reason)."""
    failures = []
    for r in samples:
        if r["error"]:
            reason = r["error"]
        elif r["failed_reports"]:
            reason = "%d report(s) with status fail" % r["failed_reports"]
        elif r["digest"] != references.get(r["id"]):
            reason = "output differs from the reference"
        else:
            continue
        failures.append((r["id"], reason))
    return len(samples), failures


def load_references():
    with open(BENCH / "reference.json") as f:
        return json.load(f)["digests"]


def src_lines():
    return {path.stem: len(path.read_text().splitlines())
            for path in sorted((SRC / "singzeta").glob("*.py"))}


def run(workload, seed, seconds, trace, requests=None, references=None):
    """Run one benchmark invocation and return its result object.

    `requests` restricts the workload to those request ids and `references`
    replaces reference.json; both exist for the benchmark's tests.
    """
    if references is None:
        references = load_references()
    if not (SRC / "singzeta").is_dir():
        raise BenchError("no singzeta package under %s" % SRC)
    ids = list(workloads.REQUESTS[workload] if requests is None else requests)
    if trace:
        untraced = run_rounds(workload, ids, seed, 0, 0, False)["samples"]
        traced = run_rounds(workload, ids, seed, 0, 0, True)["samples"]
        attempted, failures = check(untraced + traced, references)
        summary = metrics.merge_summaries([s["trace"] for s in traced if "trace" in s])
        values = metrics.per_layer(summary, traced, untraced, src_lines())
        printed = [(name, values[name], unit, "")
                   for name, unit, _ in metrics.per_layer_spec()]
    else:
        start = time.monotonic()
        time_setup()  # compiles bytecode on a fresh checkout; not measured
        # set-up is timed before the first part and after each, so its median
        # spans the whole run rather than one moment of it
        setup_times = [time_setup(i) for i in range(SETUP_RUNS)]
        samples, rounds = [], 0
        for i in range(PARTS):
            # a part that overruns its share shortens the next one
            until = start + seconds * (i + 1) / PARTS
            part = run_rounds(workload, ids, seed, rounds, until, False)
            samples += part["samples"]
            rounds += part["rounds"]
            setup_times += [time_setup(len(setup_times) + k) for k in range(SETUP_RUNS)]
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        attempted, failures = check(samples, references)
        values = metrics.end_to_end(setup_times, samples, rounds, peak_kb, len(failures))
        units = dict(metrics.END_TO_END, **metrics.PRINTED_ONLY)
        printed = [(name, value, units[name], note) for name, (value, note) in values.items()]
        summary = None
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in printed if name not in metrics.PRINTED_ONLY},
        "printed": printed,
        "failures": failures,
        "trace": summary,
    }


def report(workload, result, trace):
    """Human-readable lines printed before the JSON result."""
    lines = ["%s %-44s %14.6g %-6s%s" % (workload, name, value, unit,
                                         "  (%s)" % note if note else "")
             for name, value, unit, note in result["printed"]]
    for rid, reason in result["failures"][:20]:
        lines.append("FAILED %s: %s" % (rid, reason))
    if trace:
        edges = result["trace"]["edges"]
        lines.append("top spans by self time (parent > name, calls, total s, self s):")
        for (parent, name), (calls, total, self_s) in sorted(
                edges.items(), key=lambda kv: -kv[1][2])[:20]:
            lines.append("  %-56s %10d %10.4f %10.4f"
                         % ("%s > %s" % (parent, name), calls, total, self_s))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 2
    for line in report(args.workload, result, args.trace):
        print(line)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def _terminate(signum, frame):
    # SystemExit unwinds through _child, which ends the running child's group
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
