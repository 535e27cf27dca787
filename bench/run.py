"""Benchmark of the qbag command line and its layers.

    python3 bench/run.py --workload sweep|expansion|audit [--seed N]
                         [--seconds S] [--trace 0|1]

Run it from the repository root; it imports the library from ``src/``.
Each workload is a fixed job of ``qbag`` invocations on documents
generated from the seed.  The job runs as child processes, one at a
time, in a closed loop with one client, for about ``--seconds`` seconds
and at least three jobs; the set-up repeats between the first jobs.
Every invocation is checked against the independent reference in
``reference.py``, and the job runs once more, untimed, under another
hash seed, whose output must repeat the first byte for byte.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` the closed loop gets half the time; then the job runs once
more with spans around the library's public functions, and the run
reports per-layer metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import gen
import reference
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"
MIN_JOBS = 3
SETUP_REPEATS = 7
STARTUP_REPEATS = 5
DOUBLING_REPEATS = 3
DOUBLING_STEPS = 20
STRENGTH_SAMPLES = 10
HARD_LIMIT_S = 165.0  # no new work after this; every run ends within 180 s
# The fastest ``calibrate()`` seen on the machine the benchmark was written
# on; it only sets the scale of the speed-corrected timings.
CALIBRATION_REF_S = 0.054
# On that machine, over slow spells of up to 2.2x, a ``qbag`` call's time
# grew as the calibration's time to this power; a set-up's, which is
# in-process Python work like the calibration, grew as the calibration's
# time itself (see bench/README.md).
CALL_SPEED_EXPONENT = 0.6
SETUP_SPEED_EXPONENT = 1.0
SUBCOMMANDS = ("eval", "sweep_out", "sweep_csv", "validate", "analyze", "curve")
# Functions whose time at V is divided by their time at V / 2.
DOUBLING = (
    "graph.is_acyclic",
    "graph.topological_order",
    "semantics.evaluate",
    "chain.is_weak_expansion_chain",
    "serialize.parse_chain",
)

qbag = None  # the package under test, imported from SRC by main()
launcher: Launcher | None = None  # started by main() before any other work


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


# -- documents -------------------------------------------------------------


def build(g: gen.Graph):
    return qbag.graph.build_qbag(sorted(g.tau.items()), attacks=g.attacks, supports=g.supports)


def build_steps(inst: gen.Instance, every: int = 1):
    """The instance's chain as a library value, keeping every n-th step."""
    if inst.graph is not None:
        values = gen.sweep_values(len(inst.chain))[::every]
        return qbag.chain.sweep_chain(build(inst.graph), inst.argument, values)
    return qbag.chain.build_chain([build(g) for g in inst.chain[::every]])


def write_documents(workload: str, seed: int, work: Path) -> gen.Instance:
    """Generate the workload's documents from the seed and write them.

    The sweep workload writes its base graph, plus the chain the library
    makes for the sweep the job runs; the CLI's ``--out`` file must match
    it byte for byte.  The other workloads write their chain.
    """
    inst = gen.generate(workload, seed)
    chain = qbag.serialize.serialize_chain(build_steps(inst))
    if inst.graph is not None:
        graph = qbag.serialize.serialize_qbag(build(inst.graph))
        (work / "graph.json").write_text(graph, encoding="utf-8")
        (work / "sweep_expected.json").write_text(chain, encoding="utf-8")
    else:
        (work / "chain.json").write_text(chain, encoding="utf-8")
    return inst


# -- the job ---------------------------------------------------------------


@dataclass
class Invocation:
    """One ``qbag`` call of a job.

    ``check`` judges its standard output against the reference; ``writes``
    names a file the call produces, which must repeat byte for byte as
    standard output must.
    """

    name: str
    args: list[str]
    check: Callable[[bytes], list[str]]
    writes: str | None = None


def build_job(workload: str, inst: gen.Instance, work: Path) -> list[Invocation]:
    rows = [reference.strengths(g) for g in inst.chain]
    result = reference.analysis(rows, inst.topics, inst.threshold)
    query = ["--topics", ",".join(inst.topics), "--threshold", str(inst.threshold)]
    if workload == "sweep":
        base = reference.strengths(inst.graph)
        sweep = ["sweep", "graph.json", "--argument", inst.argument,
                 "--from", "0", "--to", "1", "--steps", str(len(inst.chain))]
        expected_doc = (work / "sweep_expected.json").read_bytes()
        csv = reference.strengths_csv(rows)

        def check_out(out: bytes) -> list[str]:
            written = (work / "sweep_out.json").read_bytes()
            problems = reference.check_bytes("sweep --out", out, b"wrote sweep_out.json\n")
            if written != expected_doc:
                problems.append("sweep --out file differs from the library's serialize_chain")
            return problems + reference.check_chain_document(written, inst.chain)

        return [
            Invocation("eval", ["eval", "graph.json"], lambda out: reference.check_eval(out, base)),
            Invocation("sweep_out", [*sweep, "--out", "sweep_out.json"], check_out,
                       writes="sweep_out.json"),
            Invocation("sweep_csv", [*sweep, "--csv"],
                       lambda out: reference.check_bytes("sweep --csv", out, csv)),
            Invocation("analyze", ["analyze", "sweep_out.json", *query,
                                   "--checks", "all", "--format", "structured"],
                       lambda out: reference.check_analyze_structured(out, result)),
        ]
    validate = Invocation(
        "validate", ["validate", "chain.json"],
        lambda out: reference.check_validate(out, len(inst.chain), inst.truth),
    )
    curve_csv = reference.curve_csv(result)
    curve = Invocation("curve", ["curve", "chain.json", *query],
                       lambda out: reference.check_bytes("curve", out, curve_csv))
    if workload == "expansion":
        return [
            validate,
            Invocation("analyze", ["analyze", "chain.json", *query, "--format", "structured"],
                       lambda out: reference.check_analyze_structured(out, result)),
            curve,
        ]
    return [
        validate,
        Invocation("analyze", ["analyze", "chain.json", *query, "--format", "text"],
                   lambda out: reference.check_analyze_text(out, result)),
        curve,
    ]


def check_library_strengths(inst: gen.Instance) -> list[str]:
    """``evaluate`` must give strengths ``==`` to the reference.

    The CLI prints strengths rounded to 12 digits, so this in-process check
    covers the last bits, on up to ``STRENGTH_SAMPLES`` steps.
    """
    graphs = inst.chain[:: -(-len(inst.chain) // STRENGTH_SAMPLES)]
    if inst.graph is not None:
        graphs = [inst.graph, *graphs]
    for g in graphs:
        if dict(qbag.semantics.evaluate(build(g)).values) != reference.strengths(g):
            return ["evaluate strengths are not == to the reference"]
    return []


# -- running the CLI -------------------------------------------------------


@dataclass
class Outcome:
    wall: float
    exit_code: int
    maxrss_mb: float
    stdout: bytes


def qbag_command(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "qbag.cli", *args]


def call(inv: Invocation, work: Path, deadline: float, hash_seed: int = 0,
         command: list[str] | None = None) -> Outcome:
    """Run one invocation, after removing the file it is to write."""
    if inv.writes:
        (work / inv.writes).unlink(missing_ok=True)
    return spawn(command or qbag_command(inv.args), work, deadline, hash_seed)


class Launcher:
    """The lean child process of ``launcher.py``, which starts every call.

    It waits for each call to end before it answers, so at most one call
    is alive at a time.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], cwd: Path, env: dict[str, str], timeout: float) -> dict:
        request = {"argv": argv, "cwd": str(cwd), "env": env, "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError("the launcher ended early")
        return json.loads(answer)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def spawn(command: list[str], work: Path, deadline: float, hash_seed: int = 0) -> Outcome:
    """Run one child to completion through the launcher; time it, read its rusage.

    Output goes to files, so waiting needs no reader; a child still
    running at the deadline is killed.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed))
    r = launcher.run(command, work, env, deadline - time.perf_counter())
    return Outcome(r["wall"], r["status"], r["maxrss_kb"] / 1024, (work / "stdout").read_bytes())


def calibrate() -> float:
    """Seconds a fixed piece of pure-Python work takes now: the machine's speed.

    The work is of the kind the calls do, on a working set of a few MB:
    it builds records, round-trips them through JSON and folds them into
    a dict.
    """
    start = time.perf_counter()
    rows = [{"id": f"a{i:05d}", "v": i * 0.5, "e": [i, i + 1]} for i in range(20_000)]
    table: dict[str, float] = {}
    for r in json.loads(json.dumps(rows)):
        k = r["id"][-3:]
        table[k] = table.get(k, 0.0) * 0.5 + r["v"]
    return time.perf_counter() - start


def speed(before: float, after: float, exponent: float = CALL_SPEED_EXPONENT) -> float:
    """The factor that scales a sample to the reference speed.

    ``CALIBRATION_REF_S`` over the mean of the calibrations around the
    sample, to the given power.
    """
    return (2 * CALIBRATION_REF_S / (before + after)) ** exponent


@dataclass
class Measured:
    """The closed loop's samples: raw wall times and speed-corrected ones."""

    times: dict[str, list[float]]
    corrected: dict[str, list[float]]
    setups: list[float] = field(default_factory=list)
    corrected_setups: list[float] = field(default_factory=list)
    speeds: list[float] = field(default_factory=list)
    jobs: list[float] = field(default_factory=list)
    peak_rss_mb: list[float] = field(default_factory=list)
    first: dict[str, bytes] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def corrected_median(self, name: str) -> float:
        return statistics.median(self.corrected[name])

    def judge(self, inv: Invocation, o: Outcome, work: Path) -> None:
        """Check one call: reference on its first run, byte-identical after."""
        produced = o.stdout
        written = work / inv.writes if inv.writes else None
        if written and written.exists():
            produced += written.read_bytes()
        digest = hashlib.sha256(produced).digest()
        if o.exit_code != 0:
            problems = [f"exit status {o.exit_code}"]
        elif written and not written.exists():
            problems = [f"{inv.writes} was not written"]
        elif inv.name in self.first:
            same = self.first[inv.name] == digest
            problems = [] if same else ["output differs from an identical earlier call"]
        else:
            self.first[inv.name] = digest
            problems = inv.check(o.stdout)
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {inv.name}: {'; '.join(problems[:3])}", file=sys.stderr)


def timed_setup(m: Measured, write: Callable[[], gen.Instance]) -> gen.Instance:
    """Generate and write the documents once, between two calibrations."""
    before = calibrate()
    start = time.perf_counter()
    inst = write()
    wall = time.perf_counter() - start
    m.setups.append(wall)
    m.corrected_setups.append(wall * speed(before, calibrate(), SETUP_SPEED_EXPONENT))
    return inst


def measure(m: Measured, job: list[Invocation], work: Path, seconds: float, deadline: float,
            setup: Callable[[], gen.Instance]) -> None:
    """Run the job in a closed loop with one client; check every call.

    The set-up repeats after each of the first jobs, until it has run
    ``SETUP_REPEATS`` times, so that its samples spread over the run as
    the calls' do.  The loop leaves about one job's time of ``seconds``
    for the hash-seed check that follows it.
    """
    stop = time.perf_counter() + seconds
    # start another job while it and the check would end, on average, by the stop
    while len(m.jobs) < MIN_JOBS or time.perf_counter() + 1.5 * statistics.median(m.jobs) < stop:
        total = peak = 0.0
        before = calibrate()
        for inv in job:
            o = call(inv, work, deadline)
            after = calibrate()
            factor = speed(before, after)
            before = after
            m.judge(inv, o, work)
            m.times[inv.name].append(o.wall)
            m.corrected[inv.name].append(o.wall * factor)
            m.speeds.append(factor)
            total += o.wall
            peak = max(peak, o.maxrss_mb)
        m.jobs.append(total)
        m.peak_rss_mb.append(peak)
        if time.perf_counter() > deadline:
            break
        if len(m.setups) < SETUP_REPEATS:
            timed_setup(m, setup)


def hash_seed_check(job: list[Invocation], m: Measured, work: Path, deadline: float,
                    hash_seed: int) -> None:
    """Run the job once more, untimed, under another ``PYTHONHASHSEED``.

    The timed calls share hash seed 0 so that their work repeats; output
    whose order depends on str hashing would repeat with them, so it shows
    only here, as a digest that differs from the first call's.
    """
    for inv in job:
        m.judge(inv, call(inv, work, deadline, hash_seed), work)


# -- the traced run --------------------------------------------------------


def traced_job(job: list[Invocation], m: Measured, work: Path, deadline: float):
    """Run the job once more with spans; its output must not change.

    Returns the spans of each call, each call's wall time, and the job's
    speed-corrected wall time.
    """
    traced: dict[str, list[spans.Span]] = {}
    walls: dict[str, float] = {}
    corrected = 0.0
    before = calibrate()
    for inv in job:
        path = work / f"spans-{inv.name}.json"
        command = [sys.executable, str(BENCH / "traced_cli.py"), str(path), *inv.args]
        o = call(inv, work, deadline, command=command)
        after = calibrate()
        corrected += o.wall * speed(before, after)
        before = after
        m.judge(inv, o, work)
        traced[inv.name] = spans.load(path) if path.exists() else []
        walls[inv.name] = o.wall
    return traced, walls, corrected


def timed(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def doubling_ratios(workload: str, seed: int, inst: gen.Instance, layers: set[str]) -> dict[str, float]:
    """Time at the workload's size over time at half the mean argument count.

    Both chains keep the same ``DOUBLING_STEPS`` evenly spaced steps.  The
    two sizes alternate ``DOUBLING_REPEATS`` times; the fastest of each
    are divided.
    """
    every = -(-len(inst.chain) // DOUBLING_STEPS)
    sizes = []
    for instance in (inst, gen.generate(workload, seed, scale=0.5)):
        chain = build_steps(instance, every)
        text = qbag.serialize.serialize_chain(chain)
        sizes.append({
            "graph.is_acyclic": lambda c=chain: [qbag.graph.is_acyclic(g) for g in c],
            "graph.topological_order": lambda c=chain: [qbag.graph.topological_order(g) for g in c],
            "semantics.evaluate": lambda c=chain: [qbag.semantics.evaluate(g) for g in c],
            "chain.is_weak_expansion_chain": lambda c=chain: qbag.chain.is_weak_expansion_chain(c),
            "serialize.parse_chain": lambda t=text: qbag.serialize.parse_chain(t),
        })
    ratios = {}
    for name in DOUBLING:
        if name not in layers:
            ratios[name] = 0.0
            continue
        full, half = [], []
        for _ in range(DOUBLING_REPEATS):
            full.append(timed(sizes[0][name]))
            half.append(timed(sizes[1][name]))
        ratios[name] = min(full) / min(half)
    return ratios


# -- metrics ---------------------------------------------------------------


def report_line(name: str, value: float, unit: str, samples: list[float] | None = None) -> None:
    extra = ""
    if samples:
        q1, q3 = quartiles(samples)
        extra = (f"  raw of {len(samples)}: min {min(samples):.4f}, q1 {q1:.4f}, "
                 f"median {statistics.median(samples):.4f}, q3 {q3:.4f}")
    print(f"{name:<44} {value:>12.6g} {unit}{extra}")


def end_to_end(m: Measured) -> dict:
    """Medians of speed-corrected timings, and of memory.

    Other tenants of a shared machine slow every call down by a share
    that changes from one second to the next, so each sample is scaled to
    the reference speed by the ``speed`` of the ``calibrate()`` times just
    before and just after it.  ``job_s`` adds up each call's corrected
    median.
    """
    q1, q3 = quartiles(m.speeds)
    print(f"{'speed factor':<44} {statistics.median(m.speeds):>12.6g}  (median of "
          f"{len(m.speeds)} samples, q1 {q1:.4f}, q3 {q3:.4f}; reference {CALIBRATION_REF_S} s)")
    medians = {name: m.corrected_median(name) for name in m.times}
    for name in SUBCOMMANDS:
        if name in medians:
            report_line(f"{name}_s", medians[name], "s", m.times[name])
    metrics = {
        "job_s": (sum(medians.values()), "s", m.jobs),
        "analyze_s": (medians["analyze"], "s", None),
        "setup_s": (statistics.median(m.corrected_setups), "s", m.setups),
        "peak_rss_mb": (statistics.median(m.peak_rss_mb), "MB", m.peak_rss_mb),
    }
    for name, (value, unit, samples) in metrics.items():
        if samples:
            report_line(name, value, unit, samples)
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


def per_layer(workload: str, seed: int, inst: gen.Instance, job: list[Invocation],
              m: Measured, work: Path, deadline: float) -> dict:
    startup = [spawn(qbag_command(["--help"]), work, deadline).wall for _ in range(STARTUP_REPEATS)]
    traced, walls, traced_total = traced_job(job, m, work, deadline)
    self_times: dict[str, float] = {}
    for calls in traced.values():
        for name, t in spans.self_times(calls).items():
            self_times[name] = self_times.get(name, 0.0) + t
    span_count = sum(len(calls) for calls in traced.values())
    (OUT / f"spans-{workload}-{seed}.json").write_text(
        json.dumps({name: [[s.name, s.start, s.end, s.parent] for s in calls]
                    for name, calls in traced.items()}) + "\n",
        encoding="utf-8",
    )
    docs = [p for p in ("graph.json", "chain.json", "sweep_expected.json") if (work / p).exists()]
    metrics: dict[str, tuple[float, str]] = {
        "input.bytes": (sum((work / p).stat().st_size for p in docs), "bytes"),
        "input.steps": (len(inst.chain), "count"),
        "input.args": (sum(len(g.tau) for g in inst.chain), "count"),
        "input.edges": (sum(len(g.attacks) + len(g.supports) for g in inst.chain), "count"),
        "input.topics": (len(inst.topics), "count"),
    }
    for name in spans.LAYER_SPANS:
        metrics[f"{name}_s"] = (self_times.get(name, 0.0), "s")
    metrics["cli.startup_s"] = (min(startup), "s")
    for name in SUBCOMMANDS:
        e2e = m.corrected_median(name) if name in m.times else 0.0
        rest = walls[name] - spans.top_level_time(traced[name]) if name in walls else 0.0
        metrics[f"cli.{name}_s"] = (e2e, "s")
        metrics[f"cli.{name}_rest_s"] = (rest, "s")
    called = {name for name, t in self_times.items() if t > 0}
    for name, ratio in doubling_ratios(workload, seed, inst, called).items():
        metrics[f"{name}.doubling_ratio"] = (ratio, "ratio")
    metrics["trace.total_s"] = (traced_total, "s")
    job_s = sum(m.corrected_median(name) for name in m.times)
    metrics["trace.job_ratio"] = (traced_total / job_s, "ratio")
    metrics["trace.spans"] = (span_count, "count")
    metrics["trace.overhead_s"] = (span_count * spans.span_cost(), "s")
    for name, (value, unit) in metrics.items():
        report_line(name, value, unit)
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# -- main ------------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(gen.SIZES))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str]) -> int:
    global launcher
    opts = parse_args(argv)
    deadline = time.perf_counter() + HARD_LIMIT_S
    if not (SRC / "qbag" / "cli.py").is_file():
        print(f"bench: no qbag package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    launcher = Launcher()
    try:
        return run(opts, deadline)
    finally:
        launcher.close()


def run(opts: argparse.Namespace, deadline: float) -> int:
    global qbag
    sys.path.insert(0, str(SRC))
    import qbag as package

    qbag = package
    problems = gen.self_check(gen.generate(opts.workload, opts.seed))
    if problems:
        print(f"bench: generator self-check failed: {problems[:3]}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"{opts.workload}-{opts.seed}-{os.getpid()}"
    work.mkdir()
    try:
        m = Measured({}, {})
        inst = timed_setup(m, lambda: write_documents(opts.workload, opts.seed, work))
        job = build_job(opts.workload, inst, work)
        m.times = {inv.name: [] for inv in job}
        m.corrected = {inv.name: [] for inv in job}
        (work / "setup").mkdir()
        again = partial(write_documents, opts.workload, opts.seed, work / "setup")
        spawn(qbag_command(["--help"]), work, deadline)  # warm the bytecode cache; not timed
        # a traced run gives the closed loop half its time, the trace the rest
        measure(m, job, work, opts.seconds / 2 if opts.trace else opts.seconds, deadline, again)
        hash_seed_check(job, m, work, deadline, 1 + opts.seed % (2**32 - 1))
        metrics = end_to_end(m)
        if opts.trace:
            metrics = per_layer(opts.workload, opts.seed, inst, job, m, work, deadline)
        problems = check_library_strengths(inst)
        m.attempted += 1
        m.failed += bool(problems)
        for p in problems:
            print(f"FAILED {p}", file=sys.stderr)
        print(f"workload {opts.workload}, seed {opts.seed}: {len(m.jobs)} jobs, "
              f"{m.attempted} checked calls, {m.failed} failed, "
              f"failed_ratio {m.failed / m.attempted:.4g} ({m.failed}/{m.attempted})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
