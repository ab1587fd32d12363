#!/usr/bin/env python3
"""Closed-loop benchmark of the spinchain CLI, one workload per run.

    python3 perfbench/run.py --workload quench-n16 --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout: the program is imported from ./src,
and configs, outputs and run records go under ./.perfbench_work.  The
seed generates the workload's config (workloads.py); the program
receives only that file.

One client, closed loop: fresh child processes (child.py) each run one
CLI-equivalent invocation, back to back, for --seconds; an invocation is
started only if the median invocation so far would end within them.
Children run with BLAS pinned to one thread and SPINCHAIN_THREADS=1.
After the loop the first output is recomputed independently (check.py)
and every later output must be byte-identical to it.  An invocation
fails on a nonzero exit, an exception, or a failed or differing output.

With --trace 0 the last line of output carries the end-to-end metrics.
With --trace 1 invocations alternate untraced and traced (spans.py) and
the last line carries the per-layer metrics.
"""

import os

# Pinned before numpy is imported, here or in a child.
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1", "SPINCHAIN_THREADS": "1"}
os.environ.update(PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, make_params  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench_work"
DEADLINE_S = 150  # no child outlives this point of the run

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("states_per_s", "1/s"),
              ("peak_rss_mb", "MB"))
# Per-layer values printed but left out of the result line: a sample
# count, and a ratio the span check already holds at 1.
_PRINT_ONLY = {"entropy.eval_samples", "trace.coverage"}


class Run:
    """One benchmark run: its inputs, its work directory and its children."""

    def __init__(self, args):
        self.args = args
        self.params = make_params(WORKLOADS[args.workload], args.seed)
        self.src_module = os.path.abspath(os.path.join("src", "spinchain"))
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        self.dir = os.path.join(os.path.abspath(WORK_DIR), name)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.out_dir = os.path.join(self.dir, "out")
        self.first_out = os.path.join(self.dir, "out-first")
        self.config_path = os.path.join(self.dir, "config.cfg")
        with open(self.config_path, "w") as fh:
            fh.write(self.params.config_text(self.out_dir))
        self.deadline = time.monotonic() + DEADLINE_S
        self.n_children = 0

    def spawn(self, traced=False) -> dict:
        """Run one child to completion and collect its marks."""
        self.n_children += 1
        result_path = os.path.join(self.dir, f"child-{self.n_children}.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--command", self.params.workload.command,
               "--config", self.config_path, "--result", result_path]
        cmd += ["--trace"] * traced
        shutil.rmtree(self.out_dir, ignore_errors=True)
        inv = {"traced": traced, "error": None}
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=max(1.0, self.deadline - start))
        except subprocess.TimeoutExpired:
            inv["error"] = "timed out"
            return inv
        if proc.returncode != 0 or not os.path.exists(result_path):
            tail = proc.stderr.strip().splitlines()[-1:] or ["no result"]
            inv["error"] = f"exit code {proc.returncode}: {tail[0]}"
            return inv
        with open(result_path) as fh:
            res = json.load(fh)
        os.remove(result_path)
        marks = res["marks"]
        if "config_loaded" not in marks:
            inv["error"] = "spinchain.cli.main did not load its config through load_config"
        elif res["module"] != self.src_module:
            inv["error"] = f"spinchain was imported from {res['module']}"
        else:
            inv["setup_s"] = marks["config_loaded"] - start
            inv["run_s"] = marks["end"] - marks["config_loaded"]
            inv["run_cpu_s"] = marks["end_cpu"] - marks["config_loaded_cpu"]
            inv["rss_mb"] = res["maxrss_kb"] / 1024
        if traced:
            inv.update(marks=marks, spans=res["spans"], missing=res["missing"],
                       wrapper_cost_s=res["wrapper_cost_s"])
        if inv["error"] is None and not os.path.isdir(self.out_dir):
            inv["error"] = f"no output written to {self.out_dir}"
        if inv["error"] is None:
            inv["digest"] = _digest(self.out_dir)
            if not os.path.exists(self.first_out):
                os.rename(self.out_dir, self.first_out)
        return inv

    def cleanup(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        shutil.rmtree(self.first_out, ignore_errors=True)


def _digest(directory) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode())
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=10, env={**os.environ, "GIT_DIR": ".git"})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_record(run) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    p = run.params
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "seed": run.args.seed,
        "workload": p.workload.name,
        "why": p.workload.why,
        "alphas": list(p.alphas),
        "site": p.site,
        "child_thread_pins": PINS,
        "loop": "closed, one client, one fresh child process per invocation",
        "seconds": run.args.seconds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "spinchain", "__init__.py")):
        print("error: run from the root of a spinchain checkout "
              "(no src/spinchain here)", file=sys.stderr)
        return 2
    run = Run(args)
    trace = bool(args.trace)

    invs, walls = [], []
    loop_start = time.monotonic()
    while True:
        start = time.monotonic()
        invs.append(run.spawn(traced=trace and len(invs) % 2 == 1))
        walls.append(time.monotonic() - start)
        elapsed = time.monotonic() - loop_start
        if time.monotonic() >= run.deadline:
            break
        # start another invocation only if it should end within --seconds
        if (not trace or len(invs) >= 2) and elapsed + statistics.median(walls) > args.seconds:
            break
    loop_s = time.monotonic() - loop_start

    check, check_start = None, time.monotonic()
    if os.path.exists(run.first_out):
        sys.path.insert(0, os.path.abspath("src"))
        from check import CHECKS, Check
        try:
            check = CHECKS[args.workload](run.params, run.first_out,
                                          random.Random(f"check:{args.seed}"))
        except (OSError, KeyError, ValueError, IndexError) as exc:
            check = Check()  # outputs missing a file, column or row count as failed
            check.expect(False, f"output unreadable: {exc!r}")
    first = next((inv["digest"] for inv in invs if "digest" in inv), None)
    for inv in invs:
        if inv["error"] is None and inv.get("digest") != first:
            inv["error"] = "output differs from the first invocation's"
        elif inv["error"] is None and (check is None or not check.ok):
            inv["error"] = "output check failed"
        if inv["error"] is None and inv["traced"]:
            problems = spans.check_spans(inv["spans"], inv["marks"])
            if problems:
                inv["error"] = f"span tree: {problems[0]}"
    check_s = time.monotonic() - check_start
    failed = sum(inv["error"] is not None for inv in invs)
    ok = [inv for inv in invs if inv["error"] is None]
    untraced = [inv for inv in ok if not inv["traced"]]
    traced = [inv for inv in ok if inv["traced"]]

    record = run_record(run)
    print(f"spinchain benchmark  workload={args.workload} seed={args.seed} "
          f"alphas={','.join(run.params.alphas)} site={run.params.site} trace={args.trace}")
    print(f"  {len(invs)} invocations in {loop_s:.1f} s, closed loop, one client; "
          f"output check took {check_s:.1f} s")
    print(f"  record: sha={record['git_sha']} python={record['python']} "
          f"numpy={record['numpy']} scipy={record['scipy']} blas={record['blas']} "
          f"nproc={record['nproc']} pins={','.join(f'{k}={v}' for k, v in PINS.items())}")
    for inv in invs:
        if inv["error"] is not None:
            print(f"  FAILED invocation: {inv['error']}")
    if check is not None:
        status = "PASS" if check.ok else "FAIL"
        print(f"  output check {status}: {check.values} values recomputed, worst deviation "
              f"{check.worst:.3g} (tolerance 1e-9); {len(invs)} outputs compared byte for byte")
        for problem in check.problems[:5]:
            print(f"    {problem}")
    if not untraced or (trace and not traced):
        print("error: no invocation completed", file=sys.stderr)
        return 1

    run_s = statistics.median([inv["run_s"] for inv in untraced])
    e2e = {
        "run_s": run_s,
        "setup_s": statistics.median([inv["setup_s"] for inv in untraced]),
        "states_per_s": run.params.n_states / run_s,
        "peak_rss_mb": statistics.median([inv["rss_mb"] for inv in untraced]),
    }
    notes = {"run_s": f"median of {len(untraced)}", "setup_s": f"median of {len(untraced)}",
             "states_per_s": f"{run.params.n_states} states / run_s",
             "peak_rss_mb": f"median of {len(untraced)}"}
    for name, unit in END_TO_END:
        print(f"  {name:<14} {e2e[name]:>12.4f} {unit:<4} {notes[name]}")
    print(f"  {'failed_frac':<14} {failed / len(invs):>12.4f} {'1':<4} "
          f"{failed} of {len(invs)} invocations")
    record["invocations"] = [{k: inv.get(k) for k in ("traced", "error", "setup_s", "run_s",
                                                      "run_cpu_s", "rss_mb")} for inv in invs]
    record.update(end_to_end=e2e, failed=failed, attempted=len(invs),
                  check=None if check is None else {"ok": check.ok, "values": check.values,
                                                    "worst": check.worst,
                                                    "problems": check.problems})

    if trace:
        per = [spans.invocation_metrics(inv["spans"], inv["marks"], inv["missing"],
                                        inv["wrapper_cost_s"]) for inv in traced]
        layer = {name: statistics.median(p[name] for p in per)
                 for name in per[0]}
        layer["trace.overhead_s"] = statistics.median([inv["run_s"] for inv in traced]) - run_s
        table = spans.layer_table(traced[0]["spans"])
        run_traced = traced[0]["run_s"]
        print(f"  traced invocation: run_s {run_traced:.4f} s, self time by span "
              f"(coverage {layer['trace.coverage']:.6f}):")
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"    {name:<36} {row['calls']:>6} calls  self {row['self_s']:9.4f} s "
                  f"({100 * row['self_s'] / run_traced:5.1f}%)  total {row['total_s']:9.4f} s")
        for name in traced[0]["missing"]:
            print(f"    missing: {name}")
        for name, unit in spans.PER_LAYER:
            print(f"  {name:<32} {layer[name]:>14.6g} {unit}")
        n_evals = int(layer["entropy.eval_samples"])
        if n_evals > 10:
            print(f"  entropy.eval_ms_per_state_tail is p{spans.tail_rank(n_evals)} "
                  f"of {n_evals} samples per traced invocation")
        record.update(per_layer=layer, layer_table=table)
        with open(os.path.join(run.dir, "trace.json"), "w") as fh:
            json.dump([{"run_id": i, "spans": inv["spans"]} for i, inv in enumerate(traced)], fh)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in spans.PER_LAYER if name not in _PRINT_ONLY}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    with open(os.path.join(run.dir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    run.cleanup()
    print(json.dumps({"correct": failed == 0 and check is not None and check.ok,
                      "attempted": len(invs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
