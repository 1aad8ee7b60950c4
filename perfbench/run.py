#!/usr/bin/env python3
"""bagrowth benchmark: one closed-loop client running CLI jobs as a user would.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke] [--save FILE]

Run it from the root of a source tree; the package is imported from
``src/`` of that tree. Each job is a fresh interpreter (``job.py``); the
next job starts when the previous one has exited. ``--trace 0`` repeats
the job for about S seconds (at least three times) and reports end-to-end
metrics over its jobs (see ``END_TO_END``); the first job's outputs get
every check, later jobs must write byte-identical outputs. ``--trace 1``
runs the job once untraced and once traced and reports per-layer metrics.
The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--save`` also merges
the full record (environment, samples, checks) into FILE under the key
``WORKLOAD/traceN``; ``compare.py`` compares two such files.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, job_spec  # noqa: E402

ROOT = os.path.dirname(HERE)
MIN_JOBS = 3
JOB_TIMEOUT_S = 150

# name -> (unit, value over a run's jobs, definition). Job times are averaged,
# not taken as medians: the shared host switches between speed states lasting
# seconds to minutes, and a run's median jumps to whichever state held most of
# its jobs.
END_TO_END = {
    "wall_s": ("s", "mean", "process start to the job's last output written"),
    "setup_s": ("s", "median", "process start to bagrowth.cli imported"),
    "work_s": ("s", "mean", "wall_s minus setup_s"),
    "peak_rss_mb": ("MB", "median", "peak RSS of the job plus workers x largest worker peak"),
    "items_per_s": ("1/s", "rate", "the workload's unit of work divided by work_s"),
}


def run_value(name, samples, items):
    """One end-to-end metric over a run; a rate is items over mean work_s."""
    how = END_TO_END[name][1]
    if how == "mean":
        return statistics.fmean(samples[name])
    if how == "median":
        return statistics.median(samples[name])
    return items / statistics.fmean(samples["work_s"])


class Runner:
    def __init__(self, workload, seed, smoke, workdir):
        self.workload, self.seed, self.smoke, self.workdir = workload, seed, smoke, workdir
        self.count = 0

    def job(self, trace=False, setup_only=False, full_checks=True):
        """Run one job process; return its result dict with derived timings."""
        self.count += 1
        tag = os.path.join(self.workdir, f"job{self.count}")
        spool = tag + "-spool"  # traced runs' forked workers leave their spans here
        if trace:
            os.makedirs(spool)
        spec = job_spec(self.workload, self.seed, tag, smoke=self.smoke)
        spec.update(trace=trace, setup_only=setup_only, full_checks=full_checks, spool=spool,
                    result=tag + ".json")
        with open(tag + "-spec.json", "w") as fh:
            json.dump(spec, fh)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
        t_spawn = time.monotonic()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "job.py"),
                               tag + "-spec.json", repr(t_spawn)],
                              env=env, cwd=self.workdir, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
        try:
            with open(spec["result"]) as fh:
                res = json.load(fh)
        except (OSError, ValueError):
            res = {"ok": False, "checks": []}
        if proc.returncode != 0:
            res["ok"] = False
            res["checks"].append(("job_exit_code", False, proc.stderr.strip()[-500:]))
        if "t_setup" in res:
            res["setup_s"] = res["t_setup"] - t_spawn
        if "t_done" in res:
            res["wall_s"] = res["t_done"] - t_spawn
            res["work_s"] = res["wall_s"] - res["setup_s"]
            res["items_per_s"] = spec["items"] / res["work_s"]
        res["items"], res["items_unit"] = spec["items"], spec["items_unit"]
        res.pop("spans", None)  # kept out of saved records; per_layer holds what they gave
        return res


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    p = 100.0 * (n - 10) / n
    return p, sorted(values)[n - 11]


def summarize(name, value, values, unit):
    tail = tail_percentile(values)
    tail_txt = f"p{tail[0]:.0f}={tail[1]:.6g}" if tail else "tail=n/a (n<11)"
    how = END_TO_END[name][1]
    median = "" if how == "median" else f"  median={statistics.median(values):.6g}"
    return f"{name:34s} {how}={value:.6g}{median} {unit}  {tail_txt}  n={len(values)}"


def environment(results):
    env = dict(next((r["env"] for r in results if "env" in r), {}))
    env["nproc"] = len(os.sched_getaffinity(0))
    env["git_sha"] = env["git_dirty"] = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        env["git_sha"] = git("rev-parse", "HEAD")
        env["git_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
    return env


def run_untraced(runner, seconds):
    """Repeat the job; start another only if it should end within ``seconds``."""
    t0 = time.monotonic()
    runner.job(setup_only=True)  # warm-up: fills the page cache, writes bytecode if enabled
    jobs, spans = [], []
    while len(jobs) < MIN_JOBS or (
            time.monotonic() - t0 + statistics.median(spans) <= seconds):
        t_job = time.monotonic()
        job = runner.job(full_checks=not jobs)
        if jobs:  # the same inputs must give the outputs the first job was checked on
            same = job.get("hashes") == jobs[0].get("hashes")
            job["checks"].append(("same_outputs_as_first_job", same, ""))
            job["ok"] = job["ok"] and same
        jobs.append(job)
        spans.append(time.monotonic() - t_job)
    good = [j for j in jobs if j["ok"]]
    samples = {name: [j[name] for j in good] for name in END_TO_END}
    samples["setup_s"] = [j["setup_s"] for j in jobs if "setup_s" in j]
    return jobs, samples


def run_traced(runner):
    runner.job(setup_only=True)
    plain = runner.job()
    traced = runner.job(trace=True)
    jobs = [plain, traced]
    values = {}
    if plain["ok"] and traced["ok"]:
        values = dict(traced["per_layer"])
        values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return jobs, values


def save(path, key, record):
    data = {}
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
    data[key] = record
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for self-tests")
    ap.add_argument("--save", help="merge the full record into this JSON file")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "bagrowth", "cli.py")):
        print(f"error: no bagrowth source tree at {ROOT}/src", file=sys.stderr)
        return 2

    workdir = os.path.join(HERE, ".work", f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = Runner(args.workload, args.seed, args.smoke, workdir)
        if args.trace:
            jobs, values = run_traced(runner)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, (unit, _) in PER_LAYER.items() if name in values}
            samples = {}
        else:
            jobs, samples = run_untraced(runner, args.seconds)
            metrics = {name: {"value": run_value(name, samples, jobs[0]["items"]),
                              "unit": unit}
                       for name, (unit, _, _) in END_TO_END.items() if samples[name]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not j["ok"] for j in jobs)
    env = environment(jobs)
    env["seed"] = args.seed
    print("env " + json.dumps(env, sort_keys=True))
    for j in jobs:
        for name, ok, detail in j["checks"]:
            if not ok:
                print(f"check failed: {name} {detail}")
    if args.trace:
        for name, m in metrics.items():
            label = " (computed)" if PER_LAYER[name][1] else ""
            value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
            print(f"{name:34s} {value} {m['unit']}{label}")
    else:
        for name, (unit, _, _) in END_TO_END.items():
            if samples[name]:
                print(summarize(name, metrics[name]["value"], samples[name], unit))
    print(f"{'items per job':34s} {jobs[0]['items']} {jobs[0]['items_unit']}")
    print(f"{'error_rate':34s} {failed}/{len(jobs)} = {failed / len(jobs):.3g}")
    if args.save:
        save(args.save, f"{args.workload}/trace{args.trace}",
             {"env": env, "metrics": metrics, "samples": samples,
              "attempted": len(jobs), "failed": failed,
              "computed": sorted(n for n, (_, c) in PER_LAYER.items() if c),
              "checks": [c for j in jobs for c in j["checks"]]})
    want = PER_LAYER if args.trace else END_TO_END
    if not set(want) <= set(metrics):
        print("error: no successful job to take metrics from", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
