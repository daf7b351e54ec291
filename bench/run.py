"""braidscope benchmark: one workload through the CLI, checked and timed.

    python3 bench/run.py --workload homology|classify|build --seed N \
        --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src``.
Inputs are generated from the seed into ``.bench_run/``.  Each job is a
fresh ``python -m braidscope.cli`` process, run one at a time.

``--trace 0`` repeats the workload's job list in whole rounds, at least
two, and starts another round only if, by the last one's length, it
would end nearer to ``--seconds`` than stopping now.  It reports the
end-to-end metrics:

* ``wall_s``: the job list's time, spawn to exit of each job, each job
  taken as the median of its rounds and summed over the list;
* ``setup_s``: median start-up cost of one CLI invocation (interpreter,
  ``import braidscope.cli``, argument parsing, graph-file parsing),
  probed five times before every round;
* ``peak_rss_mb``: the largest per-job peak resident set, from each
  child's own rusage, each job taken as the median of its rounds.

``wall_s`` and ``setup_s`` are given at a fixed machine speed.
bench/calibrate.py runs after every second or so of timed processes, and
each job's or probe's time is multiplied by ``calibrate.REFERENCE_S``
over the mean of the two calibration runs that bracket it
(:class:`Calibrated`).  The raw job times and the calibration times go
to stderr.

``--trace 1`` runs the job list once untraced, then replays it traced in
one fresh process per replay (bench/tracer.py) until ``--seconds`` have
passed.  It reports the per-layer metrics: self times as the median over
the replays, counts from the first one.  Replayed stdout must match the
untraced processes' stdout byte for byte.

Every output is checked against references made apart from the program
(bench/checks.py) outside the timed spans; a job that exits non-zero,
fails a check, or prints other bytes than in its first round counts as
failed.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import checks  # noqa: E402
import graphs  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK_DIR = ".bench_run"
PROBES_PER_ROUND = 5
MIN_ROUNDS = 2
CALIBRATE_EVERY_S = 1.0
RUN_LIMIT_S = 170          # children still running by then are killed
SETUP_PROBE = ("import sys\n"
               "from braidscope import cli\n"
               "args = cli.make_parser().parse_args(sys.argv[1:])\n"
               "cli.load_graph(args.graph)\n")


class Runner:
    """Spawns jobs from the repository root with ``src`` on the path."""

    def __init__(self, root: str):
        self.root = root
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def spawn(self, argv: list, stdout_path: str, stderr_path: str) -> tuple:
        """(exit code, wall seconds, peak RSS in MB) of one child."""
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, cwd=self.root,
                                    env=self.env, stdout=out, stderr=err)
            watchdog = threading.Timer(max(0.0, self.deadline - start), proc.kill)
            watchdog.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.perf_counter() > self.deadline:
            raise RuntimeError(f"run exceeded {RUN_LIMIT_S} s; {argv[:3]} was killed")
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def cli(self, argv, stdout_path, stderr_path):
        return self.spawn(["-m", "braidscope.cli"] + argv, stdout_path, stderr_path)

    def probe(self, argv: list) -> float:
        code, wall, _ = self.spawn(argv, os.devnull, os.devnull)
        if code != 0:
            raise RuntimeError(f"probe {argv[:2]} exited {code}")
        return wall


def write_inputs(jobs, seed: int, work: str) -> list:
    """Graph files for the seed; the argv of each job."""
    os.makedirs(os.path.join(work, "inputs"), exist_ok=True)
    argvs = []
    for job in jobs:
        path = None
        if job.graph is not None:
            path = os.path.join(work, "inputs", job.graph.name + ".txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(graphs.graph_text(job.graph, seed))
        argvs.append(job.argv(path))
    return argvs


def run_round(runner, argvs, work: str, tag: str, after=None) -> list:
    """One pass over the job list: (code, wall, rss, stdout path) per job.

    ``after(wall)`` runs after each job.  Outputs go to files and are read
    only after the round."""
    results = []
    for i, argv in enumerate(argvs):
        out = os.path.join(work, f"job{i}.{tag}.out")
        code, wall, rss = runner.cli(argv, out, os.path.join(work, f"job{i}.{tag}.err"))
        if after is not None:
            after(wall)
        results.append((code, wall, rss, out))
    return results


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def bfs_hyperplanes(root: str, job, path: str) -> int:
    """Hyperplane count by square-parallelism classes, the second route."""
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from braidscope.cli import load_graph
    from braidscope.complex import build
    from braidscope.graph import normalize, subdivide_for
    from braidscope.hyperplanes import hyperplanes_by_bfs
    g = subdivide_for(normalize(load_graph(path)), job.n)
    return len(hyperplanes_by_bfs(build(g, job.n)))


def check_outputs(root, jobs, argvs, rounds) -> tuple:
    """(failed executions, failure messages) over every round.

    Rounds repeat the same inputs, so each job is checked once against
    the references and every later round must print the same bytes."""
    failed, messages = 0, []
    for i, job in enumerate(jobs):
        first = read_bytes(rounds[0][i][3])
        problems = []
        if rounds[0][i][0] == 0:
            try:
                payload = json.loads(first)
                bfs = (bfs_hyperplanes(root, job, argvs[i][2])
                       if job.command == "build" else None)
                problems = checks.check(job, payload, bfs)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        for r, results in enumerate(rounds):
            code, _, _, out = results[i]
            bad = list(problems)
            if code != 0:
                bad.append(f"exit code {code}")
            elif read_bytes(out) != first:
                bad.append(f"round {r} printed other bytes than round 0")
            if bad:
                failed += 1
                messages.append(f"{job.label}: " + "; ".join(bad))
    return failed, messages


class Calibrated:
    """Wall times at the reference speed of bench/calibrate.py.

    The calibration kernel runs after every stretch of at least
    CALIBRATE_EVERY_S of timed processes.  Each time in a stretch is
    multiplied by ``calibrate.REFERENCE_S`` over the mean of the
    calibration runs just before and just after the stretch."""

    def __init__(self, runner):
        self.runner = runner
        self.argv = [os.path.join(HERE, "calibrate.py")]
        self.speed = [runner.probe(self.argv)]
        self.pending = []

    def add(self, into: list, wall: float) -> None:
        self.pending.append((into, wall))
        if sum(w for _, w in self.pending) >= CALIBRATE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if self.pending:
            self.speed.append(self.runner.probe(self.argv))
            k = 2 * calibrate.REFERENCE_S / (self.speed[-2] + self.speed[-1])
            for into, wall in self.pending:
                into.append(wall * k)
            self.pending.clear()


def measure(runner, jobs, argvs, work, seconds) -> dict:
    setup_argv = ["-c", SETUP_PROBE] + next(a for a in argvs if "--graph" in a)
    runner.probe(setup_argv)   # warm the bytecode cache
    cal = Calibrated(runner)
    raw_setup, setup, scaled, rounds = [], [], [], []
    start = time.perf_counter()
    last = 0.0
    # whole rounds, at least MIN_ROUNDS, ending as near to `seconds` as they can
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start + last / 2 <= seconds:
        began = time.perf_counter()
        for _ in range(PROBES_PER_ROUND):
            raw_setup.append(runner.probe(setup_argv))
            cal.add(setup, raw_setup[-1])
        cal.flush()
        scaled.append([])
        rounds.append(run_round(runner, argvs, work, f"r{len(rounds)}",
                                lambda wall: cal.add(scaled[-1], wall)))
        cal.flush()
        last = time.perf_counter() - began
    failed, messages = check_outputs(runner.root, jobs, argvs, rounds)
    per_job_wall = [statistics.median(r[i] for r in scaled) for i in range(len(jobs))]
    per_job_rss = [statistics.median(r[i][2] for r in rounds) for i in range(len(jobs))]
    for i, job in enumerate(jobs):
        print(f"  {job.label:32s} " + " ".join(f"{r[i][1]:7.3f}" for r in rounds),
              file=sys.stderr)
    print("  set-up probes " + " ".join(f"{x:.3f}" for x in raw_setup), file=sys.stderr)
    print("  calibration runs " + " ".join(f"{x:.3f}" for x in cal.speed), file=sys.stderr)
    metrics = {
        "wall_s": {"value": sum(per_job_wall), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": max(per_job_rss), "unit": "MB"},
    }
    return dict(attempted=len(rounds) * len(jobs), failed=failed,
                messages=messages, metrics=metrics)


def trace(runner, jobs, argvs, work, seconds) -> dict:
    """Untraced round, then traced in-process replays."""
    start = time.perf_counter()
    untraced = run_round(runner, argvs, work, "plain")
    jobs_path = os.path.join(work, "trace-jobs.json")
    with open(jobs_path, "w", encoding="utf-8") as fh:
        json.dump(argvs, fh)
    replays = []
    while not replays or time.perf_counter() - start < seconds:
        out_path = os.path.join(work, f"replay{len(replays)}.json")
        t0 = time.perf_counter()
        code, _, _ = runner.spawn([os.path.join(HERE, "tracer.py"), jobs_path, out_path],
                                  os.devnull, os.path.join(work, "replay.err"))
        wall = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"traced replay exited {code}")
        with open(out_path, encoding="utf-8") as fh:
            replays.append((json.load(fh), wall))
    failed, messages = check_outputs(runner.root, jobs, argvs, [untraced])
    for data, _ in replays:
        for i, job in enumerate(jobs):
            code, text = data["results"][i]
            if [code, text.encode("utf-8")] != [untraced[i][0], read_bytes(untraced[i][3])]:
                failed += 1
                messages.append(f"{job.label}: replayed stdout or exit code differs")
    per_replay = [tracer.layer_metrics(d["spans"], d["counts"]) for d, _ in replays]
    metrics = {}
    for name in tracer.PER_LAYER:
        if name.endswith(".s"):
            metrics[name] = {"value": statistics.median(m[name] for m in per_replay),
                             "unit": "s"}
        else:
            metrics[name] = {"value": per_replay[0][name], "unit": "count"}
    print(f"  untraced round {sum(r[1] for r in untraced):.2f} s in fresh processes; "
          f"traced replay {statistics.median(w for _, w in replays):.2f} s in one "
          f"process (median of {len(replays)})", file=sys.stderr)
    return dict(attempted=len(jobs) * (1 + len(replays)), failed=failed,
                messages=messages, metrics=metrics)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "braidscope", "cli.py")):
        print("bench: src/braidscope not found; run from the repository root",
              file=sys.stderr)
        return 2
    work = os.path.join(root, WORK_DIR)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    jobs = WORKLOADS[args.workload]
    argvs = write_inputs(jobs, args.seed, work)
    runner = Runner(root)
    step = trace if args.trace else measure
    result = step(runner, jobs, argvs, work, args.seconds)
    for message in result["messages"]:
        print("FAILED " + message, file=sys.stderr)
    print(json.dumps({"correct": not result["messages"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
