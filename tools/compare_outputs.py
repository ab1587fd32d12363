#!/usr/bin/env python3
"""Check that this checkout writes the same bytes as a git revision.

Usage, from anywhere inside the repository:

    python3 tools/compare_outputs.py REF

REF is checked out into a temporary directory with ``git worktree``.  A
fixed list of CLI invocations then runs on REF and on this checkout
(uncommitted edits included), each with ``SPINCHAIN_THREADS`` 1 and 2,
with BLAS pinned to one thread; the runners write ``--format csv,json``,
and ``validate`` writes no dataset.  Every run is compared with REF's run
at one worker: exit status, each dataset file, stdout and stderr.  A
nonzero status equal to REF's (a refusal, say) is compared like any
other; a status that differs from REF's is a difference.  Every
difference is printed; a differing dataset file also gets the largest
absolute difference between its numbers, the largest in units of the
last printed digit (a rounding flip reads 1; see ``deviation``), and a differing CSV file
the count of differing cells in each column.  The exit status is 1 if
there is any difference, else 0.
"""

import csv
import filecmp
import json
import math
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# a single-excitation quench on N=12 (the onebody-all-n12 benchmark config, seed 3)
ONEBODY_CFG = """\
[model]
n_sites = 12
alphas = 0.314, 2.544
[initial]
state = single:5
[time]
t_max = 5.0
n_points = 17
kac_rescaled = true
"""

# an explicit triple at N=8 whose sites come out of order: the runner sorts
# its masks ascending, which shows in partition_a/b/c and lightcone_onset
TRIPLE_CFG = """\
[model]
n_sites = 8
alphas = 0.5, 2.0
[time]
t_max = 2.0
n_points = 21
[partitions]
a = 6, 7
b = 0
c = 3, 4
"""
CONFIGS = {"onebody.cfg": ONEBODY_CFG, "triple.cfg": TRIPLE_CFG}

# (name, argv); the CONFIGS files are written next to each run
INVOCATIONS = (
    ("onebody-all", ["onebody-scan", "--config", "onebody.cfg", "--partitions", "all"]),
    ("onebody-contiguous", ["onebody-scan", "--config", "onebody.cfg",
                            "--partitions", "contiguous"]),
    ("onebody-fixed", ["onebody-scan", "--config", "onebody.cfg",
                       "--partitions", "fixed:2,2,2"]),
    # a tiny fixed family on a longer chain: B and C deposited from two
    # half-chain tables of the rest's submasks
    ("onebody-fixed-n16", ["onebody-scan", "--config", "onebody.cfg", "--n-sites", "16",
                           "--partitions", "fixed:1,1,1"]),
    # single:5 is the centre of an odd chain: mirror triples tie exactly
    ("onebody-all-n11", ["onebody-scan", "--config", "onebody.cfg", "--n-sites", "11",
                         "--partitions", "all"]),
    # every runner runs with Kac units on and off
    ("onebody-plain", ["onebody-scan", "--config", "onebody.cfg", "--partitions", "contiguous",
                       "--kac", "false"]),
    ("fig4-all", ["minmax-scan", "--config", "fig4", "--partitions", "all",
                  "--n-points", "5"]),
    ("fig4", ["minmax-scan", "--config", "fig4", "--n-points", "11"]),
    ("smoke-grid", ["tmi-grid", "--config", "smoke"]),
    ("smoke-entropy", ["tmi-vs-entropy", "--config", "smoke"]),
    ("smoke-minmax", ["minmax-scan", "--config", "smoke"]),
    # a Neel scan of every triple at N=8, with the proper-split minimum
    ("smoke-all", ["minmax-scan", "--config", "smoke", "--partitions", "all"]),
    # N=7, the widest chain whose masks are int8
    ("smoke-all-n7", ["minmax-scan", "--config", "smoke", "--partitions", "all",
                      "--n-sites", "7"]),
    # at odd N, with n_proper_partitions counted from the orbit representatives
    ("smoke-all-n9", ["minmax-scan", "--config", "smoke", "--partitions", "all",
                      "--n-sites", "9"]),
    ("smoke-fixed-nn", ["minmax-scan", "--config", "smoke", "--partitions", "fixed:2,2,2",
                        "--alpha", "0.5,2.0,nn"]),
    # unequal sizes: A takes each of them
    ("smoke-fixed-unequal", ["minmax-scan", "--config", "smoke", "--partitions",
                             "fixed:1,2,3"]),
    ("fig2", ["tmi-grid", "--config", "fig2", "--n-points", "9"]),
    ("fig2-kac", ["tmi-grid", "--config", "fig2", "--n-points", "9", "--kac"]),
    ("fig3", ["tmi-vs-entropy", "--config", "fig3", "--n-points", "9"]),
    # refused (exit 3) before the first product: the N=24 trajectory's estimate
    ("fig3-paper-nn", ["tmi-vs-entropy", "--config", "fig3", "--paper-scale",
                       "--alpha", "nn"]),
    ("triple-grid", ["tmi-grid", "--config", "triple.cfg"]),
    # the oracle cross-checks print their deviations; they write no dataset
    ("validate", ["validate"]),
)
WORKERS = (1, 2)


def run_all(tree, label, scratch):
    """Run every invocation on ``tree``; returns {(name, workers): run directory}."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    runs = {}
    for workers in WORKERS:
        env["SPINCHAIN_THREADS"] = str(workers)
        for name, argv in INVOCATIONS:
            cwd = os.path.join(scratch, "runs", label, str(workers), name)
            os.makedirs(cwd)
            for config, text in CONFIGS.items():
                with open(os.path.join(cwd, config), "w") as fh:
                    fh.write(text)
            print(f"{label} workers={workers} {name}", file=sys.stderr, flush=True)
            output = [] if argv[0] == "validate" else ["--out", "out", "--format", "csv,json"]
            done = subprocess.run([sys.executable, "-m", "spinchain.cli", *argv, *output],
                                  cwd=cwd, env=env, capture_output=True)
            for stream in ("stdout", "stderr"):
                with open(os.path.join(cwd, stream), "wb") as fh:
                    fh.write(getattr(done, stream))
            with open(os.path.join(cwd, "status"), "w") as fh:
                fh.write(f"{done.returncode}\n")
            runs[name, workers] = cwd
    return runs


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def column_counts(ref, run):
    """Differing cells of two CSV datasets, in total and per column, e.g.
    "24 of 578 cells differ: p0 3, p4 21"; None if their headers differ."""
    ref_rows, run_rows = ([row for row in csv.reader(text.splitlines())
                           if row and not row[0].startswith("# ")] for text in (ref, run))
    if ref_rows[:1] != run_rows[:1]:
        return None
    header, counts = ref_rows[0], [0] * len(ref_rows[0])
    for ref_row, run_row in zip(ref_rows[1:], run_rows[1:]):
        for i, (x, y) in enumerate(zip(ref_row, run_row)):
            counts[i] += x != y
    columns = ", ".join(f"{name} {n}" for name, n in zip(header, counts) if n)
    return f"{sum(counts)} of {len(header) * (len(ref_rows) - 1)} cells differ: {columns}"


def last_digit(number):
    """One unit in the last printed digit of a number, e.g. 1e-12 for "0.109645606677"."""
    mantissa, _, exponent = number.lower().partition("e")
    return 10.0 ** (int(exponent or 0) - len(mantissa.partition(".")[2]))


# significant digits the runners print (the dataset writers' default)
PRECISION = 12


def resolution(tokens):
    """The largest finite number of ``tokens`` in absolute value, and one unit
    in its last digit when printed with PRECISION significant digits: the
    absolute print resolution of the numbers (0.0 if none is nonzero)."""
    top = max((v for v in (abs(float(x)) for x in tokens) if v < float("inf")), default=0.0)
    return top, 10.0 ** (math.floor(math.log10(top)) - PRECISION + 1) if top else 0.0


def number_columns(path, text):
    """The numbers of a dataset file as printed, by column: {name: [token, ...]}.

    Metadata entries are columns of their own.  JSON files hold floats
    normalised to the print precision, so their repr is the printed text.
    """
    columns = {}
    if path.endswith(".json"):
        payload = json.loads(text)
        for section in ("meta", "columns"):
            for key, value in payload[section].items():
                columns[f"{section}.{key}"] = [
                    repr(v) for v in (value if isinstance(value, list) else [value])
                    if isinstance(v, (int, float)) and not isinstance(v, bool)]
        return columns
    lines = text.splitlines()
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            columns[f"meta.{key}"] = _NUMBER.findall(value)
    rows = list(csv.reader(line for line in lines if line and not line.startswith("# ")))
    for i, name in enumerate(rows[0] if rows else []):
        columns[name] = [row[i] for row in rows[1:] if _NUMBER.fullmatch(row[i])]
    return columns


def deviation(ref_path, run_path):
    """How two dataset files differ: the largest absolute difference of
    their numbers and the largest in units of the last printed digit, with
    column_counts for a CSV file, or a note that the text around the
    numbers differs.

    A pair's unit is the coarser of the two cells' last digits, floored at
    the column's absolute print resolution (see ``resolution``), so a
    rounding flip in a column reads 1 and roundoff around an exact zero in
    it reads far less.  A column of roundoff alone, whose largest number
    is below the print resolution of the whole file's non-integer numbers,
    is floored at that resolution instead.
    """
    with open(ref_path) as fh:
        ref = fh.read()
    with open(run_path) as fh:
        run = fh.read()
    if _NUMBER.sub("#", ref) != _NUMBER.sub("#", run):
        return "text differs"
    ref_cols, run_cols = number_columns(ref_path, ref), number_columns(run_path, run)
    _, whole = resolution(x for tokens in (*ref_cols.values(), *run_cols.values())
                          for x in tokens if not x.lstrip("-").isdigit())
    largest = digits = 0.0
    for name, ref_tokens in ref_cols.items():
        run_tokens = run_cols[name]
        top, floor = resolution(ref_tokens + run_tokens)
        if top < whole:
            floor = whole
        for x, y in zip(ref_tokens, run_tokens):
            if x != y:
                diff = abs(float(x) - float(y))
                largest = max(largest, diff)
                digits = max(digits, diff / max(last_digit(x), last_digit(y), floor))
    counts = column_counts(ref, run) if ref_path.endswith(".csv") else None
    return (f"max |diff| {largest:.3g}, {digits:.3g} in the last digit"
            + (f"; {counts}" if counts else ""))


def differences(ref_dir, run_dir):
    """The files that differ between two run directories, dataset files
    with their deviation."""
    found = []
    for name in ("status", "stdout", "stderr"):
        if not filecmp.cmp(os.path.join(ref_dir, name), os.path.join(run_dir, name),
                           shallow=False):
            found.append(name)
    ref_out, run_out = os.path.join(ref_dir, "out"), os.path.join(run_dir, "out")
    ref_files = set(os.listdir(ref_out)) if os.path.isdir(ref_out) else set()
    run_files = set(os.listdir(run_out)) if os.path.isdir(run_out) else set()
    for name in sorted(ref_files | run_files):
        if name not in ref_files or name not in run_files:
            found.append(f"out/{name} (in one run only)")
            continue
        ref_path, run_path = os.path.join(ref_out, name), os.path.join(run_out, name)
        if not filecmp.cmp(ref_path, run_path, shallow=False):
            found.append(f"out/{name} ({deviation(ref_path, run_path)})")
    return found


def main(argv):
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    ref = argv[0]
    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as scratch:
        ref_tree = os.path.join(scratch, "tree")
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach", "--quiet",
                        ref_tree, ref], check=True)
        try:
            ref_runs = run_all(ref_tree, "ref", scratch)
        finally:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", ref_tree],
                           check=True)
        head_runs = run_all(ROOT, "head", scratch)
        problems = 0
        for label, runs in (("ref", ref_runs), ("head", head_runs)):
            for (name, workers), run_dir in runs.items():
                if (label, workers) == ("ref", 1):
                    continue
                for item in differences(ref_runs[name, 1], run_dir):
                    problems += 1
                    print(f"DIFF {name} {label} workers={workers}: {item}")
        n_files = sum(len(os.listdir(out)) for out in
                      (os.path.join(ref_runs[name, 1], "out") for name, _ in INVOCATIONS)
                      if os.path.isdir(out))
    print(f"{problems} problem(s) in {len(INVOCATIONS)} invocations x {len(WORKERS)} "
          f"worker counts; {n_files} dataset files per run set, compared with {ref} "
          f"at 1 worker")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
