"""mexpart benchmark: one workload, timed from outside the package.

    python3 perfbench/run.py --workload counts --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; mexpart is imported from ./src.
Every job runs in a fresh interpreter (``child.py``), so the package's
caches start empty as they do for every CLI call.  The child signals when
its set-up (interpreter start and ``import mexpart``) is done and waits;
the job is timed from the go signal, so ``setup_s`` and ``wall_s`` do not
mix.  Outputs are checked after the timed region (``workloads.py``).
Every reported time is scaled to a reference CPU speed, measured on the
round's CPU while the round runs (``SpeedSampler``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced round, then rounds with ``layertrace`` spans, then one round with
``tracemalloc`` on, and prints the per-layer metrics.  The last stdout
line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

import workloads as W  # noqa: E402  (HERE is on sys.path: it holds this script)
from layertrace import layer_metrics  # noqa: E402

WORKLOADS = ("counts", "roundtrips", "pipeline", "series")
OPS_PER_ROUND = {"counts": 1, "roundtrips": 1, "pipeline": len(W.CHAINS) + 1, "series": len(W.SERIES)}
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("first_output_s", "s"))
SETUP_PROBES = 6
SPEED_PROBE_LOOPS = 200_000
# While a round runs, a short probe is timed on its CPU this often, and
# every reported time is scaled to a CPU on which the short probe takes
# REF_SAMPLE_S (about its median time on the build machine).
SAMPLE_LOOPS = 3_000
SAMPLE_EVERY_S = 0.05
REF_SAMPLE_S = 0.0008
# Every child still running this long after start is killed, so that a hung
# job cannot keep the benchmark past its 180 s limit.
HARD_LIMIT_S = 165.0

_T0 = time.perf_counter()
CPUS = os.sched_getaffinity(0)
_live: set = set()
_live_lock = threading.Lock()
_expired = threading.Event()


class BenchError(Exception):
    """The benchmark cannot produce a result (exit 1, nothing printed)."""


class JobFailed(Exception):
    """A job started but did not finish its work: a failed operation."""


def _kill_live() -> None:
    with _live_lock:
        for proc in _live:
            proc.kill()


def _expire() -> None:
    _expired.set()
    _kill_live()


def _stop_children() -> None:
    """Kill and wait for every child not yet reaped (main thread only)."""
    _kill_live()
    with _live_lock:
        for proc in _live:
            proc.wait()


class Job:
    """One child interpreter: set-up, then the job on the go signal."""

    def __init__(self, kind: str, stdin: bool = False, **spec):
        if _expired.is_set():
            raise BenchError(f"time limit of {HARD_LIMIT_S:.0f} s reached")
        self.ready_r, ready_w = os.pipe()
        go_r, self.go_w = os.pipe()
        spec.update(kind=kind, ready_fd=ready_w, go_fd=go_r)
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(ROOT), json.dumps(spec)],
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            pass_fds=(ready_w, go_r),
            cwd=ROOT,
        )
        os.close(ready_w)
        os.close(go_r)
        with _live_lock:
            _live.add(self.proc)
        self._stderr = Reader(self.proc.stderr)
        self.ended = 0.0
        self.peak_rss_mb = 0.0

    def _signal(self, expected: bytes) -> float:
        timeout = max(0.0, HARD_LIMIT_S - (time.perf_counter() - _T0))
        readable, _, _ = select.select([self.ready_r], [], [], timeout)
        byte = os.read(self.ready_r, 1) if readable else b""
        at = time.perf_counter()
        if byte != expected:
            raise JobFailed(f"no {expected.decode()!r} signal from the child")
        return at

    def ready(self) -> float:
        """Wait for the end of set-up; returns the set-up time."""
        try:
            return self._signal(b"R") - self.launched
        except JobFailed:
            self.reap()
            raise BenchError(f"child set-up failed: {self.stderr_tail()}") from None

    def go(self) -> float:
        started = time.perf_counter()
        os.write(self.go_w, b"G")
        return started

    def done(self) -> float:
        """When an in-process job returned."""
        return self._signal(b"D")

    def reap(self) -> int:
        """Wait for exit and read the peak memory the child reported."""
        _, status = os.waitpid(self.proc.pid, 0)
        self.ended = time.perf_counter()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        with _live_lock:
            _live.discard(self.proc)
        rest = b""
        while chunk := os.read(self.ready_r, 64):
            rest += chunk
        os.close(self.ready_r)
        os.close(self.go_w)
        if rest.startswith(b"M"):
            self.peak_rss_mb = int(rest[1:]) * 1024 / 1e6  # VmHWM is in kB
        self._stderr.join()
        return self.proc.returncode

    def stderr_tail(self) -> str:
        return self._stderr.text()[-600:].strip() or "(no stderr)"


class Reader(threading.Thread):
    """Reads a child's stream to the end, noting when the first line came."""

    def __init__(self, stream):
        super().__init__(daemon=True)
        self.stream, self.first_at, self.data = stream, 0.0, b""
        self.start()

    def run(self) -> None:
        first = self.stream.readline()
        self.first_at = time.perf_counter()
        self.data = first + self.stream.read()
        self.stream.close()

    def text(self) -> str:
        self.join()
        return self.data.decode()


def _thread(target, *args) -> threading.Thread:
    thread = threading.Thread(target=target, args=args, daemon=True)
    thread.start()
    return thread


def _relay(src, dst, seed: int, label: str, kept: list) -> None:
    """Forward lines from one child to the next, shuffled block by block."""
    index, block = 0, []
    try:
        for line in src:
            kept.append(line)
            block.append(line)
            if len(block) == W.SHUFFLE_BLOCK:
                dst.write(b"".join(W.shuffle_block(block, seed, label, index)))
                index, block = index + 1, []
        if block:
            dst.write(b"".join(W.shuffle_block(block, seed, label, index)))
        dst.close()
    except BrokenPipeError:
        pass  # the next stage exited early; its exit code reports why
    finally:
        src.close()


def _feed(dst, data: bytes) -> None:
    try:
        dst.write(data)
        dst.close()
    except BrokenPipeError:
        pass


def speed_probe(loops: int = SPEED_PROBE_LOOPS) -> float:
    """Time of a fixed pure-Python loop (integer arithmetic, dict and tuple
    building): how fast this CPU runs an interpreter right now.  It does
    not use mexpart, so a change to the program cannot move it."""
    began = time.perf_counter()
    total, table = 0, {}
    for i in range(loops):
        total += i * i
        table[i % 100_000] = (i, total)
    return time.perf_counter() - began


def fastest_cpu() -> None:
    """Pin this process, and so the children it starts next, to the CPU that
    runs the speed probe fastest now.

    Each CPU of a shared host is slowed by other tenants on its own: on the
    build machine two CPUs' probe times differed by up to 2x at the same
    moment, with a correlation of 0.09.  Starting each round on the less
    loaded CPU makes a round on a CPU twice as slow less likely.
    """
    probes = []
    for cpu in sorted(CPUS):
        os.sched_setaffinity(0, {cpu})
        probes.append((speed_probe(), cpu))
    _, cpu = min(probes)
    os.sched_setaffinity(0, {cpu})


class SpeedSampler(threading.Thread):
    """Times a short probe on this thread's CPU every SAMPLE_EVERY_S until
    stopped, while the jobs it measures run on the same CPU.

    Other tenants of a shared host slow a CPU by up to 2x and switch it
    between fast and slow within a fraction of a second, so a probe taken
    before or after a job does not see what the job met.  Samples taken
    all through the job do: in a first test, over twelve 2 s
    ``roundtrips`` jobs, their mean correlated with the job's wall time at
    0.97.  The samples take about 1% of the CPU.
    """

    def __init__(self):
        super().__init__(daemon=True)  # started on a pinned thread: same CPU
        self.samples: list[float] = []
        self._halt = threading.Event()
        self.start()

    def run(self) -> None:
        while not self._halt.wait(SAMPLE_EVERY_S):
            self.samples.append(speed_probe(SAMPLE_LOOPS))

    def scale(self) -> float:
        """Stop; returns the factor that turns a time measured meanwhile
        into one at the reference speed."""
        self._halt.set()
        self.join()
        if not self.samples:
            self.samples.append(speed_probe(SAMPLE_LOOPS))
        # Mean of the middle 80%: a sample the job or this process's other
        # threads interrupted can read over 10x the rest.
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        return REF_SAMPLE_S / statistics.mean(ordered[cut:len(ordered) - cut])


@dataclass
class Round:
    """Totals of one round, and the speed of its CPU while it ran."""

    wall_s: float = 0.0
    first_output_s: float = 0.0
    peak_rss_mb: float = 0.0
    setups: list = field(default_factory=list)
    ops: list = field(default_factory=list)  # error strings per operation; [] passed
    aggregates: dict | None = None
    sampler: SpeedSampler | None = None
    scale: float = 1.0  # see SpeedSampler.scale

    def begin(self) -> None:
        """Call before starting the round's first process."""
        fastest_cpu()
        self.sampler = SpeedSampler()

    def end(self) -> None:
        """Call when the round's last process has ended."""
        self.scale = self.sampler.scale()

    def account(self, start: float, reader: Reader, jobs: list[Job], setups: list[float]) -> None:
        """Add one command (one or two piped processes) to the round's totals."""
        end = max(job.ended for job in jobs)
        self.wall_s += end - start
        self.first_output_s += min(reader.first_at, end) - start
        self.setups += setups
        self.peak_rss_mb = max(self.peak_rss_mb, *(job.peak_rss_mb for job in jobs))


# -- one round per workload ----------------------------------------------------


def _command(rnd: Round, argv: list[str], stdin: bytes | None = None) -> dict:
    job = Job("cli", stdin=stdin is not None, argv=argv)
    setup = job.ready()
    feeder = _thread(_feed, job.proc.stdin, stdin) if stdin is not None else None
    out = Reader(job.proc.stdout)
    start = job.go()
    if feeder is not None:
        feeder.join()
    code = job.reap()
    out.join()
    rnd.account(start, out, [job], [setup])
    return {"code": code, "text": out.text()}


def pipeline_round(seed: int) -> Round:
    """Real processes: enumerate | map forward, relayed with a seeded
    shuffle, then map inverse on the shuffled middle output."""
    rnd = Round()
    rnd.begin()
    chains = {}
    for chain in W.CHAINS:
        enum = Job("cli", argv=W.enumerate_argv(chain.family, chain.r, chain.n))
        fwd = Job("cli", stdin=True, argv=W.map_argv(chain.forward, chain.r))
        setups = [enum.ready(), fwd.ready()]
        kept: list[bytes] = []
        relay = _thread(_relay, enum.proc.stdout, fwd.proc.stdin, seed, f"{chain.label}/fwd", kept)
        mid = Reader(fwd.proc.stdout)
        start = enum.go()
        fwd.go()
        relay.join()
        codes = [enum.reap(), fwd.reap()]
        mid.join()
        rnd.account(start, mid, [enum, fwd], setups)
        fed = W.block_shuffle(mid.text().splitlines(), seed, f"{chain.label}/inv")
        inv = _command(rnd, W.map_argv(chain.inverse, chain.r), "".join(f"{line}\n" for line in fed).encode())
        chains[chain.label] = {"codes": codes + [inv["code"]], "enum": b"".join(kept).decode(),
                               "mid": mid.text(), "inv": inv["text"]}
    jsonl = _command(rnd, W.enumerate_argv(*W.JSONL, fmt="jsonl"))
    rnd.end()
    rnd.ops = W.check_round("pipeline", {"chains": chains, "jsonl": jsonl}, seed)
    return rnd


def series_round(seed: int) -> Round:
    rnd = Round()
    rnd.begin()
    outputs = {"gf": [_command(rnd, W.gf_argv(r, degree)) for r, degree in W.SERIES]}
    rnd.end()
    rnd.ops = W.check_round("series", outputs, seed)
    return rnd


def inprocess_round(workload: str, seed: int, trace: str | None) -> Round:
    """counts / roundtrips, or a whole CLI round through mexpart.cli.run
    (traced runs only): one child, timed from go to its done signal."""
    rnd = Round()
    rnd.begin()
    if workload in ("counts", "roundtrips"):
        size = W.COUNTS_SIZE if workload == "counts" else W.ROUNDTRIPS_SIZE
        job = Job(workload, args=list(size), trace=trace)
    else:
        job = Job("stages", workload=workload, seed=seed, trace=trace)
    setup = job.ready()
    out = Reader(job.proc.stdout)
    start = job.go()
    try:
        finished = job.done()
    except JobFailed:
        finished = None
    code = job.reap()
    out.join()
    if finished is not None:
        job.ended = finished
    rnd.account(start, out, [job], [setup])
    rnd.end()
    lines = out.text().splitlines()
    want = (2 if workload == "roundtrips" else 1) + bool(trace)
    if finished is None or code or len(lines) != want:
        error = f"{workload} job exited {code}: {job.stderr_tail()}"
        rnd.ops = [[error]] * OPS_PER_ROUND[workload]
        return rnd
    payload = [json.loads(line) for line in lines]
    if trace:
        rnd.aggregates = payload.pop()
    outputs = {key: value for part in payload for key, value in part.items()}
    rnd.ops = W.check_round(workload, outputs, seed)
    return rnd



def one_round(workload: str, seed: int, trace: str | None = None) -> Round:
    if trace or workload in ("counts", "roundtrips"):
        return inprocess_round(workload, seed, trace)
    return pipeline_round(seed) if workload == "pipeline" else series_round(seed)


# -- runs ---------------------------------------------------------------------


def repeat(make_round, seconds: float, window_start: float) -> list[Round]:
    """Whole rounds until the next one would end more than half a round
    after the window; always at least one."""
    rounds, durations = [], []
    while True:
        began = time.perf_counter()
        rounds.append(make_round())
        durations.append(time.perf_counter() - began)
        now = time.perf_counter()
        if now - window_start + statistics.median(durations) / 2 >= seconds:
            return rounds
        if now - _T0 + 2 * max(durations) >= HARD_LIMIT_S:
            return rounds


def probe_setups() -> list[float]:
    """Set-up times of interpreters that only import mexpart, at the
    reference speed; the first, which may compile bytecode in a fresh
    checkout, is dropped."""
    fastest_cpu()
    sampler = SpeedSampler()
    times = []
    for _ in range(SETUP_PROBES + 1):
        job = Job("probe")
        times.append(job.ready())
        job.go()
        job.reap()
    scale = sampler.scale()
    return [t * scale for t in times[1:]]


def measured_run(workload: str, seed: int, seconds: int) -> tuple[list[Round], dict, str]:
    """End-to-end metrics: medians over the rounds of the run, each round's
    times scaled to the reference speed."""
    setups = probe_setups()
    rounds = repeat(lambda: one_round(workload, seed), seconds, time.perf_counter())
    samples = {
        "setup_s": setups + [s * r.scale for r in rounds for s in r.setups],
        "wall_s": [r.wall_s * r.scale for r in rounds],
        "peak_rss_mb": [r.peak_rss_mb for r in rounds],
        "first_output_s": [r.first_output_s * r.scale for r in rounds],
    }
    note = f"{len(samples['setup_s'])} set-ups"
    return rounds, {name: (statistics.median(samples[name]), unit) for name, unit in END_TO_END}, note


def traced_run(workload: str, seed: int, seconds: int) -> tuple[list[Round], dict, str]:
    window = time.perf_counter()
    base = one_round(workload, seed)
    traced = repeat(lambda: one_round(workload, seed, "spans"), seconds, window)
    memory = one_round(workload, seed, "memory")
    if any(r.aggregates is None for r in traced + [memory]):
        raise BenchError("a traced job failed; see the operation errors above")
    per_round = [layer_metrics(r.aggregates) for r in traced]
    metrics = {
        name: (statistics.median_low(m[name][0] for m in per_round), unit)
        for name, (_, unit) in per_round[0].items()
    }
    metrics["families.peak_mem_mb"] = layer_metrics(memory.aggregates)["families.peak_mem_mb"]
    trace_wall = statistics.median(r.wall_s for r in traced)
    metrics["trace.wall_s"] = (trace_wall, "s")
    metrics["trace.overhead_s"] = (trace_wall - base.wall_s, "s")
    return [base, *traced, memory], metrics, "traced"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "mexpart" / "__init__.py").is_file():
        print(f"error: no mexpart source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # so that `finally` stops the children
    watchdog = threading.Timer(HARD_LIMIT_S, _expire)
    watchdog.daemon = True
    watchdog.start()
    run = traced_run if args.trace else measured_run
    try:
        rounds, metrics, note = run(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        watchdog.cancel()
        _stop_children()

    ops = [op for rnd in rounds for op in rnd.ops]
    failed = [op for op in ops if op]
    for op in failed[:5]:
        print("failed: " + "; ".join(op[:3]), file=sys.stderr)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(rounds)} attempted={len(ops)} failed={len(failed)}; {note}")
    for i, rnd in enumerate(rounds):
        print(f"  round {i}: raw wall {rnd.wall_s:.4f} s, raw first output {rnd.first_output_s:.4f} s, "
              f"peak rss {rnd.peak_rss_mb:.1f} MB{', traced' if rnd.aggregates else ''}; "
              f"scale {rnd.scale:.4f} from {len(rnd.sampler.samples)} speed samples")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
