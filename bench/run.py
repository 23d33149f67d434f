"""freeq benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload qword-session --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20   # each in turn

Run from the root of a source checkout; the package is imported from
``src/``.  The load is one client in a closed loop: each op is a full
``freeq --json ...`` invocation, started only when the previous one ended.

``--trace 0`` measures the end-to-end metrics: the workload's head op (the
pinned tail query of qword-session, whose latency is reported on its own),
then whole blocks of ops until ``--seconds`` of op time have passed, with
``gc.collect()`` between ops outside the timed window.  ``--trace 1`` runs the head and the first blocks
with every traced function wrapped (see tracer.py), then the same ops again
untraced; the difference is the tracing overhead.  The traced ops are fixed
by the seed, so call counts repeat exactly.

Every op's output is checked after the measured phase (see workloads.py),
and the README CLI examples are replayed once as untimed checks.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("qword-session", "vn-tables", "free-scale")
SETUP_REPS = 5
CHILD_TIMEOUT_S = 170
# blocks in a traced run (qword-session: 20 ops; vn-tables: 1; free-scale: 21)
TRACE_BLOCKS = {"qword-session": 3, "vn-tables": 1, "free-scale": 1}
# "python -m freeq.cli" does nothing: cli.py has no __main__ guard, and the
# freeq script is not installed in a source checkout.
CHILD_MAIN = "from freeq.cli import main; main()"


class Terminated(BaseException):
    """SIGTERM: unwinds past the per-op handlers, so that a running child
    is killed and waited for and the scratch directory is removed."""


def _terminate(signum, frame):
    raise Terminated()


def import_freeq():
    """A fresh import of the package, as a new CLI invocation would get."""
    for name in [n for n in sys.modules if n == "freeq" or n.startswith("freeq.")]:
        del sys.modules[name]
    import freeq.cli  # imports every other module of the package

    return freeq


def run_inprocess(freeq, argv) -> wl.Result:
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = freeq.cli.run(argv)
    except (Exception, SystemExit) as ex:  # the op failed; record it, keep running
        dt = time.perf_counter() - t0
        return wl.Result(None, buf.getvalue(), f"{type(ex).__name__}: {ex}", dt)
    return wl.Result(code, buf.getvalue(), None, time.perf_counter() - t0)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, boot=CHILD_MAIN) -> wl.Result:
    """One cold CLI invocation in a fresh interpreter."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", boot, *argv], capture_output=True, text=True,
            env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return wl.Result(None, "", f"timed out after {CHILD_TIMEOUT_S} s", time.perf_counter() - t0)
    dt = time.perf_counter() - t0
    err = proc.stderr.strip().splitlines()[-1] if proc.returncode not in (0, 1, 2, 3) and proc.stderr.strip() else None
    return wl.Result(proc.returncode, proc.stdout, err, dt)


class Harness:
    """Set-up, op execution and checks for one workload."""

    def __init__(self, workload: str, seed: int, tmpdir: Path):
        self.workload = workload
        self.seed = seed
        self.tmpdir = tmpdir

    def setup(self):
        """Import, generate the op blocks, warm up.  Timed as setup_s."""
        self.freeq = import_freeq()
        self.head = []  # run once before the window; latency reported on its own
        if self.workload == "qword-session":
            self.head = [wl.PINNED_OP]
            blocks = wl.qword_session_blocks(self.seed)
            pregen = 100
            for argv in (["--json", "qword", "equal", "(ab)^(1/2)", "(ba)^(1/2)"], ["--json", "qword", "normalize", "a^(1/2)b"]):
                run_inprocess(self.freeq, argv)
        elif self.workload == "vn-tables":
            blocks = wl.vn_blocks(self.seed)
            pregen = 1
            run_child(["--json", "vn", "list", "--n", "1"])
        else:
            blocks = wl.FreeScale(self.seed, str(self.tmpdir), self.is_basis).blocks()
            pregen = 4
            run_inprocess(self.freeq, ["--json", "word", "root", "abab"])
        self.pregen = [next(blocks) for _ in range(pregen)]
        self.rest = blocks

    def blocks(self):
        yield from self.pregen
        yield from self.rest

    def prefix(self):
        """The ops of a traced run: the head and the first blocks."""
        blocks = self.blocks()
        return self.head + [op for _ in range(TRACE_BLOCKS[self.workload]) for op in next(blocks)]

    def execute(self, op: wl.Op, boot=CHILD_MAIN) -> wl.Result:
        if self.workload == "vn-tables":
            return run_child(op.argv, boot)
        return run_inprocess(self.freeq, op.argv)

    # -- references that need the package (input validation, witness replay)

    def is_basis(self, base, gens):
        return self.freeq.stallings.build_core(self.freeq.words.Alphabet(tuple(base)), gens).betti == len(gens)

    def contains(self, base, gens, w):
        a = self.freeq.words.Alphabet(tuple(base))
        return self.freeq.stallings.contains(self.freeq.stallings.build_core(a, [a.parse(g) for g in gens]), w)

    def check(self, op: wl.Op, res: wl.Result):
        """None if the op's answer is right, else the reason it is not."""
        if res.error is not None or res.code is None:
            return f"raised {res.error}"
        if res.code not in op.expect_codes:
            return f"exit {res.code}, expected {op.expect_codes}"
        try:
            if self.workload == "qword-session":
                return wl.check_qword(op, res, lambda argv: run_inprocess(self.freeq, argv))
            if self.workload == "vn-tables":
                return wl.check_vn(op, res)
            return wl.check_free(op, res, self.contains)
        except (KeyError, TypeError, ValueError) as ex:
            return f"unreadable output: {type(ex).__name__}: {ex}"

    def readme_checks(self):
        """Replay the README CLI examples; returns (attempted, failures)."""
        failures = []
        examples = wl.readme_examples(str(self.tmpdir))
        for argv, code, ok in examples:
            res = run_inprocess(self.freeq, ["--json", *argv])
            try:
                good = res.code == code and ok(res.doc())
            except (KeyError, TypeError, ValueError):
                good = False
            if not good:
                failures.append(("readme", argv, f"exit {res.code} {res.error or ''} {res.stdout[:200]!r}"))
        return len(examples), failures


def timed_setup(h: Harness) -> float:
    times = []
    for _ in range(SETUP_REPS):
        gc.collect()
        t0 = time.perf_counter()
        h.setup()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(h: Harness, seconds: float):
    """The head, then whole blocks until `seconds` of op time have passed."""
    gc.collect()
    gc.freeze()  # set-up objects need not be scanned again between ops
    results = []

    def run(ops):
        busy = 0.0
        for op in ops:
            res = h.execute(op)
            busy += res.latency_s
            results.append((op, res))
            gc.collect()
        return busy

    run(h.head)
    head = len(results)
    window = 0.0
    for block in h.blocks():
        if window >= seconds:
            break
        window += run(block)
    gc.unfreeze()
    if h.workload == "vn-tables":
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return results[:head], results[head:], window, rss / 1024.0


def check_all(h: Harness, results):
    failures = []
    for op, res in results:
        why = h.check(op, res)
        if why is not None:
            failures.append((op.kind, op.argv, why))
    n_readme, readme_failures = h.readme_checks()
    return failures + readme_failures, len(results) + n_readme


def end_to_end(head, results, busy, rss_mb, setup_s, failures, attempted):
    """(gated metrics, full report, sample count).  Latency, throughput and
    the decided share come from the window's ops; the head op's latency is
    reported on its own.  BENCHMARK.json gates only the first dict: on the
    shared 2-vCPU reference VM the same work ran up to 1.7x slower from one
    minute to the next, and the run-to-run spread of p50 and throughput over
    10 seeds reached 0.25-0.31, above the largest bound a gate may have."""
    lat = sorted(r.latency_s * 1000.0 for _, r in results)
    n = len(lat)
    decided = sum(1 for _, r in results if r.code in (0, 1))
    gated = {
        "setup_s": (setup_s, "s"),
        "decided_ratio": (decided / n, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    report = {
        **gated,
        "query_p50_ms": (statistics.median(lat), "ms"),
        "throughput_ops_s": (n / busy, "1/s"),
    }
    if n >= 20:
        p95 = statistics.quantiles(lat, n=20)[-1]
        if sum(1 for x in lat if x > p95) >= 10:
            report["query_p95_ms"] = (p95, "ms")
    report["failed_ratio"] = (len(failures) / attempted, "ratio")
    if head:
        report["pinned_tail_ms"] = (head[0][1].latency_s * 1000.0, "ms")
    return gated, report, n


def traced_run(h: Harness):
    ops = h.prefix()
    tr = tracing.Tracer()
    traced = []
    gc.collect()
    gc.freeze()
    for i, op in enumerate(ops):
        if h.workload == "vn-tables":
            snap = h.tmpdir / f"trace-{i}.json"
            boot = f"import sys; sys.path.insert(0, {str(BENCH)!r}); import tracer; tracer.child_main({str(snap)!r})"
            res = h.execute(op, boot)
            if snap.exists():
                tr.merge(json.loads(snap.read_text()))
        else:
            tr.install()
            tr.begin_op()
            try:
                res = h.execute(op)
            finally:
                tr.end_op()
                tr.uninstall()
        traced.append((op, res))
        gc.collect()
    plain = []
    for op in ops:
        plain.append((op, h.execute(op)))
        gc.collect()
    gc.unfreeze()
    traced_wall = sum(r.latency_s for _, r in traced)
    plain_wall = sum(r.latency_s for _, r in plain)
    metrics = tr.metrics(traced_wall)
    pinned = [r.latency_s for op, r in plain if op.pinned]
    metrics["qcompletion.pinned_tail_ms"] = (pinned[0] * 1000.0 if pinned else 0.0, "ms")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    failures = []
    for (op, t), (_, p) in zip(traced, plain):
        if t.stdout != p.stdout or t.code != p.code:
            failures.append((op.kind, op.argv, "traced and untraced outputs differ"))
    return traced, metrics, failures


def fmt_argv(argv):
    text = " ".join(a if len(a) <= 60 else a[:57] + "..." for a in argv)
    return text if len(text) <= 240 else text[:237] + "..."


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all of them, each in its own process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        return max(subprocess.run([sys.executable, __file__, "--workload", w, *rest]).returncode for w in WORKLOADS)
    if not (SRC / "freeq" / "__init__.py").is_file():
        print(f"error: no freeq package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, _terminate)
    tmpdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        h = Harness(args.workload, args.seed, tmpdir)
        setup_s = timed_setup(h)
        print(f"# freeq bench  workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}  python={platform.python_version()} nproc={os.cpu_count()}")
        if args.trace:
            results, metrics, failures = traced_run(h)
            more, attempted = check_all(h, results)
            failures += more
            report = metrics
        else:
            head, results, busy, rss_mb = measure(h, args.seconds)
            failures, attempted = check_all(h, head + results)
            metrics, report, n = end_to_end(head, results, busy, rss_mb, setup_s, failures, attempted)
            print(f"# {n} timed ops in {busy:.2f} s of op time, {len(head)} head op, "
                  f"{attempted - n - len(head)} README checks")
        for name, (value, unit) in report.items():
            print(f"{name:48s} {value:14.6g} {unit}")
        for kind, op_argv, why in failures:
            print(f"FAILED {kind}: {why} :: {fmt_argv(op_argv)}")
        doc = {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(doc))
        return 0
    except Terminated:
        return 128 + signal.SIGTERM
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmpdir.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
