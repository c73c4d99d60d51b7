#!/usr/bin/env python3
"""The repository's benchmark: scan and serve, end to end and layer by layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the root of a checkout. It builds the release `sevuldet` binary and
the helper in `perfbench/` (into `$CARGO_TARGET_DIR`, default `.bench_build`),
generates the workload's inputs from the seed, trains the model, measures for
`--seconds`, checks every output, and prints one JSON object as the last line
of stdout. `--trace 0` reports the end-to-end metrics, measured on the
`sevuldet` binary as a subprocess; `--trace 1` reports the per-layer metrics
of a separate traced run. `--smoke` shrinks every input so that all the
checks run in seconds. See perfbench/README.md.
"""

import argparse
import hashlib
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIERS = ("f64", "f32", "int8")
# Documented score envelopes of the fast tiers against f64.
ENVELOPE = {"f32": 1e-3, "int8": 1e-1}
# The model: fixed training seed, small enough to train in about a second.
TRAIN = ["--per-category", "4", "--epochs", "6", "--seed", "3", "--jobs", "1"]
SMOKE_TRAIN = ["--per-category", "2", "--epochs", "2", "--seed", "3", "--jobs", "1"]
# Open-loop request rate (requests/s) of the traced run's serve pass,
# below the saturation point of the default two-worker server on a
# two-core host.
SERVE_RATE = 40
MIN_COVERAGE = 0.95
SETUPS = 3
# The host-speed probe: its repetitions, and the wall time one probe is
# taken to stand for. A scan's end-to-end time is reported in probe units
# times PROBE_MS, so it reads as milliseconds on a host where one probe
# takes PROBE_MS (on the two-core Xeon VM the benchmark was defined on, it
# took 120-250 ms, depending on the load of the shared host).
PROBE_REPS = 32
PROBE_MS = 200.0

# Workload -> the generated corpus it runs on.
WORKLOADS = {
    "cold-sard": "sard",
    "incremental-tree": "tree",
    "unchanged-tree": "tree",
}


class Fail(Exception):
    """A failed build, operation or check: the run reports no result."""


T0 = time.perf_counter()


def log(msg):
    print(f"[{time.perf_counter() - T0:7.2f}s] {msg}", file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Building and running the programs


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "sevuldet-serve", "--bin", "sevuldet"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise Fail("build failed: " + " ".join(cmd))
    rel = os.path.join(target_dir(), "release")
    return tuple(os.path.join(rel, name) for name in
                 ("sevuldet", "sevuldet-perfbench", "sevuldet-calibrate"))


class Ctx:
    """Paths and counters shared by one run."""

    def __init__(self, work, sevuldet, helper, probe, smoke):
        self.work = work
        self.sevuldet = sevuldet
        self.helper = helper
        self.probe = probe
        self.smoke = smoke
        self.attempted = 0
        self.failed = 0
        self.children = []


def execute(ctx, argv, cwd, tag):
    """Runs one program to completion. Returns (wall seconds, peak RSS in MB,
    stdout bytes); a non-zero exit counts as a failed operation."""
    out_path = os.path.join(ctx.work, tag + ".out")
    err_path = os.path.join(ctx.work, tag + ".err")
    ctx.attempted += 1
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # A terminated run takes its running child down with it.
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        ctx.failed += 1
        with open(err_path, "rb") as f:
            detail = f.read().decode(errors="replace")[-2000:]
        raise Fail(f"{' '.join(argv[:2])} exited {proc.returncode}: {detail}")
    with open(out_path, "rb") as f:
        stdout = f.read()
    return wall, usage.ru_maxrss / 1024.0, stdout


def helper(ctx, args, cwd):
    _, _, out = execute(ctx, [ctx.helper] + args, cwd, "helper")
    return json.loads(out)


def scan(ctx, cwd, corpus, tier, cache_dir=None):
    argv = [ctx.sevuldet, "scan", corpus, "--model", "model.svd", "--json",
            "--precision", tier]
    argv += ["--cache-dir", cache_dir] if cache_dir else ["--no-cache"]
    return execute(ctx, argv, cwd, "scan")


class Paced:
    """Times work between host-speed probes. The benchmark's host is a
    shared VM whose speed steps by a third within minutes, in CPU time as
    much as in wall time, so the wall of each piece of work is divided by
    the mean wall of the probe just before it and the one just after it.
    A slower or faster stretch of the host then cancels out, while a slower
    program does not: the probe shares no code with it."""

    def __init__(self, ctx, what):
        self.ctx = ctx
        self.what = what
        self.probes = [self.probe()]
        self.walls = []

    def probe(self):
        wall, _, _ = execute(self.ctx, [self.ctx.probe, str(PROBE_REPS)], self.ctx.work,
                             "probe")
        return wall

    def normalise(self, wall):
        """The wall time of work that has just ended, in ms at the probe's
        reference speed."""
        self.probes.append(self.probe())
        self.walls.append(wall)
        return wall / statistics.fmean(self.probes[-2:]) * PROBE_MS

    def scan(self, *args, **kw):
        """Runs `scan(ctx, *args, **kw)`; returns its time in ms at the
        probe's reference speed, its peak RSS and its stdout."""
        wall, mb, out = scan(self.ctx, *args, **kw)
        return self.normalise(wall), mb, out

    def log(self):
        log(f"{len(self.walls)} {self.what}, median wall "
            f"{statistics.median(self.walls) * 1e3:.1f} ms; {len(self.probes)} probes, "
            f"median {statistics.median(self.probes) * 1e3:.1f} ms")


# --------------------------------------------------------------------------
# Set-up: inputs, model, server


def setup(ctx, corpus, seed, i):
    """One set-up in a fresh directory: the inputs and the trained model."""
    d = os.path.join(ctx.work, f"setup{i}")
    os.makedirs(d)
    gen = ["gen", corpus, "--seed", str(seed), "--out", corpus]
    info = helper(ctx, gen + (["--smoke"] if ctx.smoke else []), d)
    execute(ctx, [ctx.sevuldet, "train", "--out", "model.svd"]
            + (SMOKE_TRAIN if ctx.smoke else TRAIN), d, "train")
    return d, info


def start_server(ctx, cwd):
    """Starts `sevuldet serve` (f64, default tunables) and waits until
    `/healthz` answers 200."""
    log_path = os.path.join(cwd, "serve.log")
    logf = open(log_path, "wb")
    proc = subprocess.Popen(
        [ctx.sevuldet, "serve", "--model", "model.svd", "--addr", "127.0.0.1:0"],
        cwd=cwd, stdout=logf, stderr=subprocess.STDOUT)
    logf.close()
    ctx.children.append(proc)
    deadline = time.monotonic() + 60
    addr = None
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise Fail(f"server exited {proc.returncode} during start-up")
        if addr is None:
            with open(log_path, "rb") as f:
                m = re.search(rb"listening on http://([0-9.]+:[0-9]+)", f.read())
            if m:
                addr = m.group(1).decode()
        if addr is not None:
            try:
                if http_get(addr, "/healthz")[0] == 200:
                    return proc, addr
            except OSError:
                pass
        time.sleep(0.002)
    raise Fail("server did not become ready")


def stop(ctx, proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc in ctx.children:
        ctx.children.remove(proc)


def http_get(addr, path):
    host, port = addr.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        conn.request("GET", path)
        r = conn.getresponse()
        return r.status, r.read().decode()
    finally:
        conn.close()


def scrape(addr):
    """`GET /metrics` as a {series: value} map."""
    status, text = http_get(addr, "/metrics")
    if status != 200:
        raise Fail(f"/metrics answered {status}")
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            out[name] = float(value)
    return out


def load(ctx, cwd, addr, cli_json, rate, seconds):
    """One open-loop phase; every request is an attempted operation."""
    _, _, out = execute(
        ctx, [ctx.helper, "load", "--addr", addr, "--cli-json", cli_json,
              "--rate", str(rate), "--seconds", str(seconds),
              "--conns", str(min(os.cpu_count() or 1, 2))],
        cwd, "load")
    ctx.attempted -= 1  # the helper process itself is not a request
    r = json.loads(out)
    ctx.attempted += int(r["attempted"])
    ctx.failed += int(r["failed"])
    if r["failed"]:
        raise Fail(f"{int(r['failed'])} of {int(r['attempted'])} requests failed "
                   f"({int(r['mismatched'])} bodies differ from the CLI): {r['statuses']}")
    return r


# --------------------------------------------------------------------------
# Correctness gate


def load_pins():
    with open(os.path.join(HERE, "pins.json")) as f:
        return json.load(f)


def check_pins(ctx, corpus, seed, observed):
    """Compares observed values with the ones pinned for this corpus and
    seed; seeds without pins are checked against the in-process reference
    only."""
    if ctx.smoke:
        return
    pins = load_pins()
    pinned = pins["corpora"].get(corpus, {}).get(str(seed))
    if pinned is None:
        return
    for key, value in observed.items():
        if key in pinned and pinned[key] != value:
            raise Fail(f"{corpus} seed {seed}: {key} is {value}, pinned {pinned[key]}")


def check_model(ctx, cwd):
    if ctx.smoke:
        return
    with open(os.path.join(cwd, "model.svd"), "rb") as f:
        sha = hashlib.sha256(f.read()).hexdigest()
    if sha != load_pins()["model_sha256"]:
        raise Fail(f"trained model sha256 {sha} differs from the pinned one")


def sha(data):
    return hashlib.sha256(data).hexdigest()


def check_reference(ctx, cwd, corpus, seed, f64_out):
    """The CLI's f64 document equals the one assembled in-process from the
    library calls, and its digest and counters match the pins."""
    ref = helper(ctx, ["reference", "--corpus", corpus, "--model", "model.svd"], cwd)
    digest = sha(f64_out)
    if digest != ref["digest"]:
        raise Fail(f"CLI f64 output {digest} differs from the in-process reference "
                   f"{ref['digest']}")
    check_pins(ctx, corpus, seed, {"digest": digest, "gadgets": int(ref["gadgets"]),
                                   "tokens": int(ref["tokens"]),
                                   "distinct_streams": int(ref["distinct_streams"])})
    return ref


def scores(doc):
    """Every finding's (file, line, name) key and score, in order."""
    out = []
    for f in json.loads(doc):
        if f.get("status") != "scanned":
            raise Fail(f"{f.get('name')}: {f.get('status')}: {f.get('error')}")
        for g in f["findings"]:
            out.append(((f["name"], g["line"], g["name"]), g["score"]))
    return out


def check_envelopes(outputs):
    """The f32 and int8 scores stay within their envelopes of f64."""
    base = scores(outputs["f64"])
    for tier, eps in ENVELOPE.items():
        other = scores(outputs[tier])
        if [k for k, _ in other] != [k for k, _ in base]:
            raise Fail(f"{tier} findings differ from f64 findings")
        worst = max((abs(a - b) for (_, a), (_, b) in zip(base, other)), default=0.0)
        if worst > eps:
            raise Fail(f"{tier} scores differ from f64 by {worst:.3g} > {eps}")


def store_stats(cache_dir):
    entries = [os.path.join(cache_dir, n) for n in os.listdir(cache_dir) if n.endswith(".svdc")]
    return {"store_entries": len(entries),
            "store_bytes": sum(os.path.getsize(p) for p in entries)}


# --------------------------------------------------------------------------
# Workloads (end to end, `--trace 0`)


def timed_rounds(seconds, body, at_least=2):
    """Calls `body()` at least `at_least` times, and again while another
    round would end, on average, no more than half a round past `seconds`."""
    start = time.perf_counter()
    n = 0
    while True:
        body()
        n += 1
        elapsed = time.perf_counter() - start
        if n >= at_least and elapsed + 0.5 * elapsed / n > seconds:
            return


def cold_sard(ctx, cwd, info, seed, seconds):
    walls = {t: [] for t in TIERS}
    rss = []
    outs = {t: set() for t in TIERS}
    paced = Paced(ctx, "scans")

    def round_():
        # The tiers take turns, so drift on a shared host hits them alike.
        for t in TIERS:
            ms, mb, out = paced.scan(cwd, "sard", t)
            walls[t].append(ms)
            outs[t].add(out)
            if t == "f64":
                rss.append(mb)

    timed_rounds(seconds, round_)
    paced.log()
    log(f"measured {len(walls['f64'])} rounds; checking")
    for t in TIERS:
        if len(outs[t]) != 1:
            raise Fail(f"{t} scans of the same tree disagree")
    final = {t: next(iter(outs[t])) for t in TIERS}
    check_reference(ctx, cwd, "sard", seed, final["f64"])
    check_envelopes(final)
    return walls, rss


def edit_victim(cwd, victim, generation):
    """Rewrites the victim file with one function body edited; every
    generation is a never-before-seen body."""
    path = os.path.join(cwd, "tree", victim)
    with open(path) as f:
        src = f.read()
    src = re.sub(r"int y = (\d+ \+ )?x \*", f"int y = {generation} + x *", src)
    with open(path, "w") as f:
        f.write(src)


def tree(ctx, cwd, info, seed, seconds, edit):
    """Warm rescans of the tree through one on-disk store, after a
    one-function edit (`edit`) or with nothing changed."""
    cache = "cache"
    # Populate the store; the cold cached scan must equal --no-cache.
    _, _, cold = scan(ctx, cwd, "tree", "f64", cache)
    _, _, plain = scan(ctx, cwd, "tree", "f64")
    if cold != plain:
        raise Fail("cold cached scan differs from the --no-cache scan")
    check_reference(ctx, cwd, "tree", seed, plain)
    check_pins(ctx, "tree", seed, store_stats(os.path.join(cwd, cache)))

    walls = {t: [] for t in TIERS}
    rss = []
    generation = [0]
    paced = Paced(ctx, "scans")

    def round_():
        for t in TIERS:
            if edit:
                generation[0] += 1
                edit_victim(cwd, info["victim"], generation[0])
            ms, mb, _ = paced.scan(cwd, "tree", t, cache)
            walls[t].append(ms)
            if t == "f64":
                rss.append(mb)

    timed_rounds(seconds, round_)
    paced.log()
    log(f"measured {len(walls['f64'])} rounds; checking")
    # Edited (or unchanged) cached scans equal --no-cache on the same tree,
    # at every tier.
    if edit:
        edit_victim(cwd, info["victim"], generation[0] + 1)
    finals = {}
    for t in TIERS:
        _, _, warm = scan(ctx, cwd, "tree", t, cache)
        _, _, plain = scan(ctx, cwd, "tree", t)
        if warm != plain:
            raise Fail(f"warm cached {t} scan differs from the --no-cache scan")
        finals[t] = plain
    check_envelopes(finals)
    return walls, rss


def end_to_end(ctx, workload, seed, seconds):
    corpus = WORKLOADS[workload]
    # Scans and probes share one CPU, so every probe meets the contention
    # the scans around it met. Scans run with one job.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setups = []
    paced = Paced(ctx, "set-ups")
    for i in range(SETUPS):
        t0 = time.perf_counter()
        cwd, info = setup(ctx, corpus, seed, i)
        setups.append(paced.normalise(time.perf_counter() - t0) / 1e3)
    paced.log()
    check_model(ctx, cwd)

    if workload == "cold-sard":
        walls, rss = cold_sard(ctx, cwd, info, seed, seconds)
    else:
        walls, rss = tree(ctx, cwd, info, seed, seconds, workload == "incremental-tree")

    return {
        "setup_s": (statistics.median(setups), "s"),
        "f64_ms": (statistics.median(walls["f64"]), "ms"),
        "f32_ms": (statistics.median(walls["f32"]), "ms"),
        "int8_ms": (statistics.median(walls["int8"]), "ms"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


# --------------------------------------------------------------------------
# The traced run (`--trace 1`)


def serve_pass(ctx, cwd, files, seconds):
    """Serves the corpus at the fixed rate and reads the server's own
    `/metrics` deltas over the measured phase."""
    proc, addr = start_server(ctx, cwd)
    try:
        # The first pass, every file once, warms the memo.
        load(ctx, cwd, addr, "cli-f64.json", 4 * SERVE_RATE, files / (4 * SERVE_RATE))
        before = scrape(addr)
        r = load(ctx, cwd, addr, "cli-f64.json", SERVE_RATE, seconds)
        after = scrape(addr)
    finally:
        stop(ctx, proc)

    def delta(series):
        return after.get(series, 0.0) - before.get(series, 0.0)

    def mean_ms(stage):
        s = f'sevuldet_stage_duration_seconds_{{}}{{{{stage="{stage}"}}}}'
        n = delta(s.format("count"))
        return delta(s.format("sum")) / n * 1e3 if n else 0.0

    hits = sum(delta(f'sevuldet_query_cache_hits_total{{tier="{t}"}}')
               for t in ("memory", "disk", "function"))
    misses = delta("sevuldet_query_cache_misses_total")
    batches = delta("sevuldet_batch_size_count")
    return {
        "serve.queue_wait_ms": mean_ms("serve.queue_wait"),
        "serve.batch_size": delta("sevuldet_batch_size_sum") / batches if batches else 0.0,
        "serve.forward_ms": mean_ms("serve.forward"),
        "serve.respond_ms": mean_ms("serve.respond"),
        "serve.requests": delta('sevuldet_requests_total{endpoint="scan"}'),
        "serve.rejected": sum(delta(k) for k in after
                              if k.startswith("sevuldet_rejected_total")),
        "query.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "loadgen.lag_ms": r["lag_p99_ms"],
        "loadgen.p99_ms": r["p99_ms"],
    }


def traced(ctx, workload, seed, seconds):
    corpus = WORKLOADS[workload]
    cwd, info = setup(ctx, corpus, seed, 0)
    check_model(ctx, cwd)
    files = int(info["files"])
    passes = []

    def pass_():
        m = helper(ctx, ["trace", "--corpus", corpus, "--model", "model.svd",
                         "--cache-dir", "trace-cache"], cwd)
        if m["trace.coverage"] < MIN_COVERAGE:
            raise Fail(f"named layers cover {m['trace.coverage']:.3f} of the in-process "
                       f"wall, below {MIN_COVERAGE}")
        wall, _, out = scan(ctx, cwd, corpus, "f64")
        with open(os.path.join(cwd, "cli-f64.json"), "wb") as f:
            f.write(out)
        if not passes:
            ref = check_reference(ctx, cwd, corpus, seed, out)
            if int(ref["gadgets"]) != int(m["gadget.gadgets"]):
                raise Fail("traced run and reference disagree on the gadget count")
        m["cli.overhead_ms"] = wall * 1e3 - m.pop("inproc.wall_ms")
        m.update(serve_pass(ctx, cwd, files, min(4.0, max(1.0, seconds / 5))))
        passes.append(m)
        log(f"traced pass {len(passes)} done")

    timed_rounds(seconds, pass_, at_least=1)
    units = per_layer_units()
    return {k: (statistics.median([p[k] for p in passes]), units[k]) for k in units}


def per_layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


# --------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs: every workload and check in seconds")
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")

    # A terminated run still stops its servers and removes its work dir.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ctx = None
    try:
        sevuldet, helper_bin, probe = build()
        work = os.path.join(ROOT, ".bench_work", f"{a.workload}-{a.seed}-{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        ctx = Ctx(work, sevuldet, helper_bin, probe, a.smoke)
        if a.trace:
            metrics = traced(ctx, a.workload, a.seed, a.seconds)
        else:
            metrics = end_to_end(ctx, a.workload, a.seed, a.seconds)
    except Fail as e:
        log(f"perfbench: FAILED: {e}")
        return 1
    finally:
        if ctx is not None:
            for proc in list(ctx.children):
                stop(ctx, proc)
            shutil.rmtree(ctx.work, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(ctx.work))
            except OSError:
                pass  # another run still works there
    print(json.dumps({
        "correct": True,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
