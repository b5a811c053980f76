#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, keep its record, compare.

Run from the root of a checkout:

  python3 perfbench/run.py --workload global_sweep --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py compare BASE_DIR NEW_DIR

A run builds perfbench/perfbench.exe and bin/mmap.exe with dune (into
$CARGO_TARGET_DIR, default .bench_build), runs the workload, prints its
report with the one-line JSON result last, and writes the full record
to .bench_results/runs/. `compare` reads two directories of such
records (for example from two commits) and prints, per workload and
end-to-end metric, each side's median and quartiles, the share of pairs
each side won and a verdict; it exits 1 if any verdict is "worse".
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("global_sweep", "complete_tree", "serve_mixed")
RESULTS = ".bench_results"
TIME_LIMIT_S = 175

# serve_mixed metrics kept in the record beside BENCHMARK.json's
# end_to_end list (which every workload reports): the per-rate latencies
# and the rates. name -> (better, bound)
SERVE_METRICS = {
    **{f"latency_p{p}_ms.{r}": ("lower", 0.25) for p in (50, 90) for r in ("low", "mid", "high")},
    "max_rate_rps": ("higher", 0.25),
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """Digest of the program's sources: checkouts the benchmark runs in
    are not git repositories, so this identifies the code measured."""
    h = hashlib.sha256()
    files = ["dune-project"]
    for d in ("lib", "bin"):
        for dirpath, _, names in os.walk(os.path.join(root, d)):
            files += [os.path.relpath(os.path.join(dirpath, n), root) for n in names]
    for rel in sorted(files):
        path = os.path.join(root, rel)
        if os.path.isfile(path):
            h.update(rel.encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_rev(root):
    if not os.path.isdir(os.path.join(root, ".git")) or not shutil.which("git"):
        return None
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return r.stdout.strip() or None


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "dune-project")):
        fail("no dune-project here: run from the root of a repository checkout")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [dune, "build", "--root", ".", "--build-dir", build_dir, "--display", "quiet",
           "perfbench/perfbench.exe", "bin/mmap.exe"]
    r = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    return (os.path.join(build_dir, "default", "perfbench", "perfbench.exe"),
            os.path.join(build_dir, "default", "bin", "mmap.exe"))


def run(args):
    t0 = time.monotonic()
    root = os.getcwd()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe, mmap = build(root, build_dir)
    os.makedirs(os.path.join(RESULTS, "runs"), exist_ok=True)
    record = os.path.join(RESULTS, f"record-{os.getpid()}.json")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", os.path.join("perfbench", "expected.json"),
           "--record", record, "--mmap", mmap, "--workdir", RESULTS]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(10, TIME_LIMIT_S - (time.monotonic() - t0)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded its time limit")
    finally:
        # perfbench.exe and any daemon it spawned share a process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if os.path.isfile(record):
        with open(record) as f:
            rec = json.load(f)
        os.remove(record)
        rec["rev"] = git_rev(root)
        rec["source_digest"] = source_digest(root)
        name = f"{args.workload}-t{args.trace}-s{args.seed}-{time.time_ns()}.json"
        with open(os.path.join(RESULTS, "runs", name), "w") as f:
            json.dump(rec, f)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    sys.exit(proc.returncode)


# ---- compare -----------------------------------------------------------------


def load_records(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    recs = []
    for fn in files:
        with open(fn) as f:
            r = json.load(f)
        if r.get("trace"):
            continue
        if r.get("correct"):
            recs.append(r)
        else:
            print(f"skipping incorrect run {fn}", file=sys.stderr)
    return recs


def quartiles(vs):
    if len(vs) < 2:
        return vs[0], vs[0], vs[0]
    q1, q2, q3 = statistics.quantiles(vs, n=4)
    return q1, q2, q3


def verdict(base, new, better, bound):
    """choosing-metrics section 8: a gain needs nine tenths of the pairs
    and a median difference beyond the parent's own quartile spread; a
    loss is a median worse by more than the bound; a spread wider than
    the bound leaves the metric unresolved unless every run of the
    change beats every run of the parent."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(base, new))
    new_wins = sum(1 for b, n in pairs if sign * (b - n) > 0)
    base_wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    spread = max((bq3 - bq1) / bmed, (nq3 - nq1) / nmed) if bmed and nmed else 0.0
    gain = sign * (bmed - nmed)
    all_better = all(sign * (b - n) > 0 for b in base for n in new)
    if pairs and new_wins >= 0.9 * len(pairs) and gain > (bq3 - bq1):
        v = "improved"
    elif spread > bound:
        v = "unchanged" if all_better else "unresolved"
    elif -gain > bound * abs(bmed):
        v = "worse"
    else:
        v = "unchanged"
    share = (lambda w: w / len(pairs) if pairs else 0.0)
    return v, (bq1, bmed, bq3), (nq1, nmed, nq3), share(base_wins), share(new_wins)


def compare(args):
    with open(args.benchmark) as f:
        bench = json.load(f)
    metrics = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]}
    base, new = load_records(args.base), load_records(args.new)
    worse = False
    print(f"{'workload':<14} {'metric':<22} {'base q1/med/q3':>30} {'new q1/med/q3':>30}"
          f" {'won b/n':>9}  verdict")
    for w in WORKLOADS:
        b = sorted((r for r in base if r["workload"] == w), key=lambda r: r["seed"])
        n = sorted((r for r in new if r["workload"] == w), key=lambda r: r["seed"])
        if not b or not n:
            continue
        names = dict(metrics)
        if w == "serve_mixed":
            names.update({k: ("", better, bound) for k, (better, bound) in SERVE_METRICS.items()})
        for name, (_, better, bound) in names.items():
            section = "end_to_end" if name in metrics else "extra"
            bv = [r[section][name]["value"] for r in b if name in r[section]]
            nv = [r[section][name]["value"] for r in n if name in r[section]]
            if not bv or not nv:
                continue
            v, bq, nq, bw, nw = verdict(bv, nv, better, bound)
            worse |= v == "worse"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{w:<14} {name:<22} {fmt(bq):>30} {fmt(nq):>30} {bw:>4.0%}/{nw:<4.0%}  {v}"
                  f"  (n={len(bv)}/{len(nv)}, bound {bound:.0%})")
    sys.exit(1 if worse else 0)


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base", help="directory (or file) of records from the parent")
        p.add_argument("new", help="directory (or file) of records from the change")
        p.add_argument("--benchmark", default="BENCHMARK.json")
        compare(p.parse_args(sys.argv[2:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run(p.parse_args())


if __name__ == "__main__":
    main()
