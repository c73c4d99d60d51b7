#!/usr/bin/env python3
"""Records the benchmark's pins and baseline.

    python3 perfbench/record.py pins       # rewrite perfbench/pins.json
    python3 perfbench/record.py baseline   # rewrite perfbench/baseline.json

`pins` regenerates the values the correctness gate compares against: the
trained model's sha256 and, for every recorded seed of every corpus, the f64
`scan --json` digest and the deterministic counters (gadgets, gadget tokens,
distinct streams, and for the tree the store's entries and bytes).

`baseline` runs every workload once per mode at its baseline seed and writes
the metrics together with the host record (core count, CPU model, SIMD
level, the cache directory's filesystem, rustc version, git commit).

Run from the repository root, after `python3 perfbench/run.py` has built
the binaries once.
"""

import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

import run

# Baseline seed and a second seed per workload; later claims are checked on
# the second one too.
SEEDS = {
    "cold-sard": [1, 101],
    "incremental-tree": [2, 102],
    "unchanged-tree": [3, 103],
}


def sh(argv, cwd=None):
    return subprocess.run(argv, cwd=cwd, check=True, capture_output=True, text=True).stdout


def record_pins():
    sevuldet, helper, _ = run.build()
    pins = {"model_sha256": None, "corpora": {}}
    scratch = os.path.join(run.ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch, prefix="pins-") as d:
        sh([sevuldet, "train", "--out", "model.svd"] + run.TRAIN, cwd=d)
        with open(os.path.join(d, "model.svd"), "rb") as f:
            pins["model_sha256"] = run.sha(f.read())
        for workload, seeds in SEEDS.items():
            corpus = run.WORKLOADS[workload]
            for seed in seeds:
                out = os.path.join(d, f"{corpus}-{seed}")
                os.makedirs(out)
                sh([helper, "gen", corpus, "--seed", str(seed), "--out", corpus], cwd=out)
                shutil.copy(os.path.join(d, "model.svd"), out)
                doc = subprocess.run(
                    [sevuldet, "scan", corpus, "--model", "model.svd", "--json", "--no-cache"],
                    cwd=out, check=True, capture_output=True).stdout
                ref = json.loads(sh([helper, "reference", "--corpus", corpus,
                                     "--model", "model.svd"], cwd=out))
                if run.sha(doc) != ref["digest"]:
                    sys.exit(f"{corpus} seed {seed}: CLI and in-process reference differ")
                pin = {"digest": ref["digest"], "gadgets": int(ref["gadgets"]),
                       "tokens": int(ref["tokens"]),
                       "distinct_streams": int(ref["distinct_streams"])}
                if corpus == "tree":
                    sh([sevuldet, "scan", corpus, "--model", "model.svd", "--json",
                        "--cache-dir", "cache"], cwd=out)
                    pin.update(run.store_stats(os.path.join(out, "cache")))
                pins["corpora"].setdefault(corpus, {})[str(seed)] = pin
    with open(os.path.join(run.HERE, "pins.json"), "w") as f:
        json.dump(pins, f, indent=2, sort_keys=True)
        f.write("\n")


def fs_type(path):
    """The filesystem type of the mount holding `path`, from /proc/mounts."""
    best = ("", "unknown")
    path = os.path.realpath(path)
    with open("/proc/mounts") as f:
        for line in f:
            _, mnt, fstype = line.split()[:3]
            if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) and len(mnt) > len(best[0]):
                best = (mnt, fstype)
    return best[1]


def host_record(helper):
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        commit = sh(["git", "rev-parse", "HEAD"], cwd=run.ROOT).strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "simd_level": json.loads(sh([helper, "host"]))["simd_level"],
        "cache_dir_fs": fs_type(run.ROOT),
        "rustc": sh(["rustc", "--version"]).strip(),
        "git_commit": commit,
        "os": platform.platform(),
    }


def record_baseline():
    _, helper, _ = run.build()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    results = {}
    for workload, seeds in SEEDS.items():
        results[workload] = {"seed": seeds[0], "second_seed": seeds[1]}
        for trace in (0, 1):
            p = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
                 "--seed", str(seeds[0]), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True)
            if p.returncode != 0:
                sys.exit(f"{workload} --trace {trace} failed:\n{p.stderr[-3000:]}")
            r = json.loads(p.stdout.strip().splitlines()[-1])
            results[workload]["per_layer" if trace else "end_to_end"] = {
                k: [round(v["value"], 6), v["unit"]] for k, v in r["metrics"].items()}
    baseline = {"host": host_record(helper), "run_seconds": seconds, "workloads": results}
    with open(os.path.join(run.HERE, "baseline.json"), "w") as f:
        json.dump(baseline, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    if what == "pins":
        record_pins()
    elif what == "baseline":
        record_baseline()
    else:
        sys.exit(__doc__)
