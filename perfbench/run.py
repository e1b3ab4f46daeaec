#!/usr/bin/env python3
"""One seeded benchmark for diatomic: four workloads, one closed loop.

    python3 perfbench/run.py --workload {cli,scan,bigword,table} --seed N \
        --seconds S --trace {0,1}

One client in one process, no threads: each operation starts after the
previous one ends.  A pass runs the workload's fixed operation list once,
starting from a cleared ``sdi_quadruple`` cache; passes repeat until the
time is spent.  The first pass is checked by independent routes (see
workloads.py) and becomes the reference every later pass must equal.

--trace 0 prints the end-to-end metrics.  --trace 1 spends half the time
untraced and half with every layer wrapped in spans, and prints the
per-layer metrics and the tracing overhead.  The last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}; the line before
it records the environment, the output digest and derived figures.  Full
results (and, traced, the spans of the first traced pass) are written to
.perfbench_out/ at the checkout root.  The exit status is 1 if any output
is wrong, and the run stops before measuring if diatomic would be imported
from anywhere but this checkout's src/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from math import log
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# Tune and develop on other seeds; a gain claim must also hold on this one.
HELD_OUT_SEED = 2004

SETUP_REPEATS = 9
PROBE_REPEATS = 7


def import_diatomic():
    """Import diatomic from this checkout's src/ and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import diatomic
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import diatomic from {SRC}: {exc}")
    check_src(diatomic.__file__)
    return diatomic


def check_src(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: diatomic resolves to {path}, not under {SRC}")


def child_env() -> dict:
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + old if old else ""))


def commit() -> str:
    """HEAD of the checkout's git repository, or 'unknown' outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ------------------------------------------------------------------ children

SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, {bench!r})
import diatomic, workloads
workloads.build({name!r}, {seed})
print(json.dumps({{"setup_s": time.perf_counter() - t0, "file": diatomic.__file__}}))
"""


def setup_once(name: str, seed: int, env: dict) -> float:
    """In a fresh interpreter: import diatomic, build the inputs; seconds taken."""
    code = SETUP_PROBE.format(bench=str(BENCH_DIR), name=name, seed=seed)
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    rec = json.loads(out)
    check_src(rec["file"])
    return rec["setup_s"]


class ChildCli:
    """Runs `python -m diatomic.cli argv` and keeps the children's peak RSS."""

    def __init__(self, env: dict):
        self.env = env
        self.peak_kb = 0

    def __call__(self, argv: list) -> str:
        p = subprocess.Popen([sys.executable, "-m", "diatomic.cli", *argv], cwd=ROOT,
                             env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        with p.stdout, p.stderr:
            out = p.stdout.read()
            err = p.stderr.read()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        if p.returncode:
            raise RuntimeError(f"exit {p.returncode}: {err.decode().strip()}")
        return out.decode()


def wall_ms(cmd: list, env: dict) -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def cli_probe(seed: int, env: dict, workloads) -> dict:
    """Interpreter start, import on top of it, and in-process cli.main per call."""
    interp = wall_ms([sys.executable, "-c", "pass"], env)
    imported = wall_ms([sys.executable, "-c", "import diatomic"], env)
    cases = workloads.cli_cases(seed)
    times = []
    for _ in range(2):
        for argv, _expected in cases:
            t0 = perf_counter()
            workloads.cli_in_process(argv)
            times.append(perf_counter() - t0)
    return {
        "cli.interp_ms": (interp, "ms"),
        "cli.import_ms": (imported - interp, "ms"),
        "cli.main_ms": (statistics.median(times) * 1e3, "ms"),
    }


# ------------------------------------------------------------------- passes


class Reference:
    """The checked first pass: outputs, the ops that failed their check, digest."""

    def __init__(self, wl, outs, canon):
        self.outs = outs
        self.bad = {}
        ctx = wl.context(outs) if wl.context else None
        for i, (op, out) in enumerate(zip(wl.ops, outs)):
            if isinstance(out, Failure):
                self.bad[i] = out.reason
                continue
            try:
                reason = wl.check(op, out, ctx)
            except Exception as exc:  # a malformed output can trip the check itself
                reason = f"{op.kind}: check raised {exc!r}"
            if reason is not None:
                self.bad[i] = f"{op.kind}: {reason}"
        h = hashlib.sha256()
        for out in outs:
            h.update(canon(out).encode() if not isinstance(out, Failure) else b"failed")
            h.update(b"\n")
        self.digest = h.hexdigest()


class Failure:
    def __init__(self, reason: str):
        self.reason = reason

    def __eq__(self, other):
        return False


class Measurement:
    """Per-operation latency over the passes of one run, and counts.

    An operation's latency is its fastest repeat, or on a workload whose
    ``timing`` is "mean" the mean of its repeats (see README.md, "Timing").
    """

    def __init__(self, n: int, timing: str = "best"):
        self.timing = timing
        self.best = array("d", [float("inf")]) * n
        self.total = array("d", [0.0]) * n
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.first_failure = None
        self.cache = None

    def latencies(self) -> list:
        if self.timing == "mean":
            return [t / self.passes for t in self.total]
        return list(self.best)

    def ops_per_s(self) -> float:
        lat = self.latencies()
        return len(lat) / sum(lat)

    def merged(self, other: "Measurement") -> "Measurement":
        """Counts of both; latencies and cache figures of self."""
        m = Measurement(0, self.timing)
        m.best, m.total, m.cache = self.best, self.total, self.cache
        m.passes = self.passes + other.passes
        m.attempted = self.attempted + other.attempted
        m.failed = self.failed + other.failed
        m.first_failure = self.first_failure or other.first_failure
        return m


def run_passes(wl, seconds: float, ref_holder: list, canon, cache, invoke=None,
               between=None) -> Measurement:
    """Closed loop over whole passes until `seconds` would be exceeded (at least one).

    between(elapsed_s), if given, runs after each pass, outside the timing.
    """
    n = len(wl.ops)
    m = Measurement(n, wl.timing)
    start = perf_counter()
    while True:
        t_pass = perf_counter()
        cache.cache_clear()
        outs = []
        best, total = m.best, m.total
        for i, op in enumerate(wl.ops):
            t0 = perf_counter()
            try:
                out = op.call() if invoke is None else invoke(m.passes, i, op)
            except Exception as exc:  # an operation that raises is a failed operation
                out = Failure(f"{op.kind}: {exc!r}")
            dt = perf_counter() - t0
            if dt < best[i]:
                best[i] = dt
            total[i] += dt
            outs.append(out)
        info = cache.cache_info()
        m.cache = (info.hits, info.hits + info.misses, info.currsize)
        if not ref_holder:
            ref_holder.append(Reference(wl, outs, canon))
        ref = ref_holder[0]
        for i, out in enumerate(outs):
            if i in ref.bad or out != ref.outs[i]:
                m.failed += 1
                if m.first_failure is None:
                    m.first_failure = ref.bad.get(i, f"op {i} differs from the checked first pass")
        m.attempted += n
        m.passes += 1
        if between is not None:
            between(perf_counter() - start)
        now = perf_counter()
        if now - start + (now - t_pass) > seconds:
            return m


def quantiles_ms(lat) -> tuple[float, float]:
    """p50 and p90 over the operations of a pass, interpolated between neighbours."""
    q = statistics.quantiles(lat, n=20, method="inclusive")
    return q[9] * 1e3, q[17] * 1e3


def scaling_exp(wl, lat) -> float:
    """Least-squares slope of log(time) against log(input bits) over sized ops."""
    by_size: dict[int, list] = {}
    for op, t in zip(wl.ops, lat):
        if op.size:
            by_size.setdefault(op.size, []).append(t)
    if len(by_size) < 2:
        return 0.0
    xs = [log(s) for s in by_size]
    ys = [log(statistics.median(v)) for v in by_size.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


# -------------------------------------------------------------------- modes


def end_to_end(args, wl, setup: list, env: dict, child: ChildCli | None, canon, cache):
    """setup holds the first set-up time; the others are taken between passes,
    spread over the run, so their median does not rest on one moment of the
    machine."""
    refs: list = []

    def between(elapsed):
        if len(setup) < SETUP_REPEATS and elapsed >= len(setup) * args.seconds / SETUP_REPEATS:
            setup.append(setup_once(args.workload, args.seed, env))

    m = run_passes(wl, args.seconds, refs, canon, cache, between=between)
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_once(args.workload, args.seed, env))
    setup_s = statistics.median(setup)
    lat = m.latencies()
    p50, p90 = quantiles_ms(lat)
    rss_kb = child.peak_kb if child else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (m.ops_per_s(), "1/s"),
        "latency_ms_p50": (p50, "ms"),
        "latency_ms_p90": (p90, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    return m, refs[0], metrics, scaling_exp(wl, lat)


def traced(args, wl, env: dict, cache, workloads, spans):
    probe = cli_probe(args.seed, env, workloads)
    canon = workloads.canon
    refs: list = []
    half = args.seconds / 2
    plain = run_passes(wl, half, refs, canon, cache)

    tracer = spans.Tracer()
    spans.install_layers(tracer)
    root = tracer.root("bench.op")
    n = len(wl.ops)

    def invoke(pass_no, i, op):
        tracer.record = pass_no == 0
        tracer.op_id = pass_no * n + i
        return root(op.call)

    try:
        traced_m = run_passes(wl, half, refs, canon, cache, invoke)
    finally:
        tracer.restore()

    metrics = {}
    per_pass = 1 / traced_m.passes
    design_max = 0
    for name, st in zip(tracer.names, tracer.stats):
        if name == "bench.op":
            continue
        metrics[f"{name}.calls"] = (st.calls * per_pass, "count")
        metrics[f"{name}.self_s"] = (st.self_s * per_pass, "s")
        if name.startswith("kernels."):
            metrics[f"{name}.bits"] = (st.bits * per_pass, "bit")
            metrics[f"{name}.max_bits"] = (st.max_bits, "bit")
        elif name.startswith("design."):
            design_max = max(design_max, st.max_bits)
    hits, lookups, entries = plain.cache
    metrics.update({
        "design.period_bits_max": (design_max, "bit"),
        "sdi.cache_hits": (hits, "count"),
        "sdi.cache_lookups": (lookups, "count"),
        "sdi.cache_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "sdi.cache_entries": (entries, "count"),
    })
    metrics.update(probe)
    untraced_rate = plain.ops_per_s()
    traced_rate = traced_m.ops_per_s()
    both = plain.merged(traced_m)
    slope = scaling_exp(wl, plain.latencies())
    metrics.update({
        "trace.ops_per_s_untraced": (untraced_rate, "1/s"),
        "trace.ops_per_s_traced": (traced_rate, "1/s"),
        "trace.overhead_ratio": (traced_rate / untraced_rate, "ratio"),
        "trace.spans": (tracer.span_count(), "count"),
        "scaling_exp": (slope, "1"),
        "error_rate": (both.failed / both.attempted, "ratio"),
        "passes": (plain.passes, "count"),
    })
    return both, refs[0], metrics, slope, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("cli", "scan", "bigword", "table"))
    ap.add_argument("--seed", type=int, required=True,
                    help=f"input seed; {HELD_OUT_SEED} is held out for gain claims")
    ap.add_argument("--seconds", type=float, default=10.0, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    diatomic = import_diatomic()
    sys.path.insert(0, str(BENCH_DIR))
    import spans
    import workloads

    env = child_env()
    # the first set-up also checks that children import this checkout's diatomic
    setup = [setup_once(args.workload, args.seed, env)]
    child = ChildCli(env) if args.workload == "cli" and not args.trace else None
    wl = workloads.build(args.workload, args.seed, child or workloads.cli_in_process)
    cache = diatomic.sdi_quadruple

    tracer = None
    if args.trace:
        m, ref, metrics, slope, tracer = traced(args, wl, env, cache, workloads, spans)
    else:
        m, ref, metrics, slope = end_to_end(args, wl, setup, env, child, workloads.canon, cache)

    hits, lookups, entries = m.cache
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "env": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "backend": diatomic.BACKEND,
            "commit": commit(),
            "diatomic": diatomic.__file__,
        },
        "loop": "closed, 1 client, 1 process",
        "timing": wl.timing,
        "setup_s": statistics.median(setup),
        "ops_per_pass": len(wl.ops),
        "passes": m.passes,
        "digest": ref.digest,
        "error_rate": m.failed / m.attempted,
        "first_failure": m.first_failure,
        "sdi_cache": {"hits": hits, "lookups": lookups, "entries": entries},
        "scaling_exp": slope,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({**info, "result": result}, indent=1))
    if tracer is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(tracer.spans_json()))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if m.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
