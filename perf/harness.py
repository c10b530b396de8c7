"""One workload, one process: set-up, timed passes, verification.

``python3 -m perf.harness --workload W ...`` runs in a fresh
subprocess (started by perf/run.py with ``REPRO_EXEC`` unset and
``PYTHONHASHSEED=0``) so memos, caches and RSS never bleed between
workloads. The last line it prints is one JSON result object.

Run shape, identical for every workload:

1. *Set-up*, ``SETUP_REPS`` times, the median reported as ``setup_s``:
   build + index the database, generate the statement list from the
   seed, open the runner (plan / start the service) and run one untimed
   warm-up pass so plan cache, ``core.memo``, kernel caches and lazy
   imports are filled.
2. *Timed passes* over the identical statement list until ``--seconds``
   have elapsed (whole passes, at least two), ``gc.collect()`` between
   passes, tracing off. Latency percentiles are over every timed
   statement; ``qps`` is the median of the per-pass rates.
3. *Verification*: every statement's row digest must repeat in every
   pass; two bindings per class are re-run under
   ``OptimizerConfig.disabled()`` + ``mode="interpreted"`` and compared
   via ``verify.oracle.normalized``; for the default seed the digests
   are also compared with perf/expected/.

With ``--trace 1`` step 2 alternates untraced and traced passes and
the per-layer metrics (:mod:`perf.layers`) are reported instead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perf import DEFAULT_SEED, layers
from perf import trace as tracing
from perf.speed import SpeedClock
from perf.workloads import WORKLOADS, statement_digest

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parent
OUT_DIR = PERF_DIR / "out"
EXPECTED_DIR = PERF_DIR / "expected"

SETUP_REPS = 3
MIN_PASSES = 2
REFERENCE_BINDINGS = 2

# (name, unit, better): what a user of the system sees.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("qps", "stmt/s", "higher"),
    ("stmt_p50_ms", "ms", "lower"),
    ("stmt_p95_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)


@dataclass
class Record:
    """One statement execution as the client saw it: ``wall`` is the
    plain wall-clock latency, ``seconds`` the same interval at reference
    machine speed (see :mod:`perf.speed`)."""

    started: float
    finished: float
    result: Any  # QueryResult; None once failed or released
    error: Optional[str] = None
    seconds: float = 0.0
    stmt_id: Optional[int] = None  # set on traced passes

    @property
    def wall(self) -> float:
        return self.finished - self.started


@dataclass
class PassResult:
    wall: float  # plain wall clock
    seconds: float  # at reference machine speed
    records: List[List[Record]]  # one list per client
    io: Any = None  # IoStats the pass accumulated
    # QueryResult.simulated_elapsed_ms per statement (one client only)
    sim_ms: List[float] = field(default_factory=list)

    @property
    def statements(self) -> int:
        return sum(len(records) for records in self.records)

    def release(self) -> None:
        """Drop the result rows once they are digested, so the
        benchmark's own bookkeeping stays out of ``peak_rss_mb``."""
        for records in self.records:
            for record in records:
                record.result = None


class State:
    """Everything one set-up produced."""

    def __init__(self, workload, seed: int, size):
        self.workload = workload
        self.size = size
        # One clock per client thread; clocks[0] also times set-up.
        self.clocks = [SpeedClock() for _ in range(workload.clients)]
        self.clocks[0].probe()
        self.database = workload.build_database(size)
        self.clocks[0].probe()
        facts = {"customers": self.database.store("customer").row_count()}
        self.lists = workload.generate(seed, size, facts)
        self.runner = workload.open(self.database)

    def close(self) -> None:
        self.runner.close()


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------


def _client_loop(state: State, client: int, tracer, first_id: int) -> List[Record]:
    workload, runner = state.workload, state.runner
    clock = state.clocks[client]
    every = workload.maintenance_every if client == 0 else 0
    records = []
    clock.probe()
    for position, statement in enumerate(state.lists[client]):
        if every and position and position % every == 0:
            workload.maintenance(state.database)
        root = None
        if tracer is not None:
            root = tracer.begin_statement(
                first_id + position,
                statement.cls,
                statement.sql if runner.via_service else None,
            )
        started = time.perf_counter()
        try:
            result, error = runner.run(statement), None
        except Exception as exc:  # a failed statement is a counted outcome
            result, error = None, f"{statement.cls}: {exc!r}"
        finished = time.perf_counter()
        if root is not None:
            tracer.end_statement(root)
        records.append(
            Record(started, finished, result, error,
                   stmt_id=first_id + position if root is not None else None)
        )
        if clock.due(finished):
            clock.probe()
    clock.probe()
    for record in records:
        record.seconds = clock.scaled(record.started, record.finished)
    return records


def run_pass(state: State, tracer=None, pass_no: int = 0) -> PassResult:
    """One pass over every client's list."""
    from repro.storage.buffer import IoStats

    clients = len(state.lists)
    total = sum(len(statements) for statements in state.lists)
    first_ids = [
        pass_no * total + sum(len(s) for s in state.lists[:client])
        for client in range(clients)
    ]
    pool = state.database.buffer_pool
    before = pool.stats.snapshot()
    if clients == 1:
        started = time.perf_counter()
        records = [_client_loop(state, 0, tracer, first_ids[0])]
        finished = time.perf_counter()
    else:
        records = [[] for _ in range(clients)]
        barrier = threading.Barrier(clients + 1)

        def client_main(client: int) -> None:
            barrier.wait()
            records[client] = _client_loop(state, client, tracer, first_ids[client])

        threads = [
            threading.Thread(target=client_main, args=(client,))
            for client in range(clients)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        finished = time.perf_counter()
    # Client 0's probes span the pass (their own time excluded).
    result = PassResult(
        finished - started, state.clocks[0].scaled(started, finished), records
    )
    if clients > 1:
        # Pool counters are shared between clients: only the pass total
        # is meaningful, and no statement has a modelled time of its own.
        result.io = pool.stats.delta_since(before)
        return result
    # One client: statement-level I/O is exact. A runner that resets the
    # pool counters per statement reports absolute numbers; a service
    # never resets them, so a statement's share is what the counters
    # gained since the previous result.
    result.io = IoStats()
    previous = before
    for record in records[0]:
        if record.result is None:
            continue
        stats = record.result.io_stats
        io, earlier_ms = stats, 0.0
        if not state.runner.resets_io:
            io, earlier_ms = stats.delta_since(previous), previous.simulated_io_ms()
        previous = stats
        result.io.hits += io.hits
        result.io.sequential_misses += io.sequential_misses
        result.io.random_misses += io.random_misses
        result.sim_ms.append(record.result.simulated_elapsed_ms - earlier_ms)
    return result


def row_digest(rows) -> str:
    """Digest of a result's row multiset."""
    return hashlib.sha256(
        "\n".join(sorted(map(repr, rows))).encode()
    ).hexdigest()[:16]


def digests_of(result: PassResult) -> List[List[Optional[str]]]:
    return [
        [
            row_digest(record.result.rows) if record.result is not None else None
            for record in records
        ]
        for records in result.records
    ]


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------


def reference_samples(state: State) -> List[Tuple[int, int]]:
    """(client, position) of the first ``REFERENCE_BINDINGS`` distinct
    bindings of every statement class."""
    chosen: Dict[str, set] = {}
    samples = []
    for client, statements in enumerate(state.lists):
        for position, statement in enumerate(statements):
            seen = chosen.setdefault(statement.cls, set())
            key = (statement.sql, repr(statement.params))
            if len(seen) < REFERENCE_BINDINGS and key not in seen:
                seen.add(key)
                samples.append((client, position))
    return samples


def check_reference(state: State, last: PassResult) -> Tuple[int, List[str]]:
    """Re-run the samples on the repo's semantic reference."""
    from repro.api import run_query
    from repro.optimizer import OptimizerConfig
    from repro.verify.oracle import normalized

    failures = []
    samples = reference_samples(state)
    for client, position in samples:
        statement = state.lists[client][position]
        record = last.records[client][position]
        if record.result is None:
            continue  # already counted as a failed statement
        reference = run_query(
            state.database,
            statement.sql,
            config=OptimizerConfig.disabled(),
            mode="interpreted",
            parameters=statement.params,
        )
        if normalized(reference.rows) != normalized(record.result.rows):
            failures.append(
                f"{statement.cls}: rows differ from the disabled/interpreted "
                f"reference ({len(record.result.rows)} vs {len(reference.rows)})"
            )
    return len(samples), failures


def check_expected(workload_name: str, list_digest: str,
                   digests: List[List[Optional[str]]],
                   regen: bool) -> Tuple[int, List[str]]:
    """Compare with (or rewrite) the committed default-seed digests."""
    path = EXPECTED_DIR / f"{workload_name}.json"
    payload = {"statement_digest": list_digest, "row_digests": digests}
    if regen:
        EXPECTED_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
        return 0, []
    if not path.exists():
        return 1, [f"no expected digests at {path.name}; run --regen-expected"]
    expected = json.loads(path.read_text(encoding="utf-8"))
    if expected["statement_digest"] != list_digest:
        return 1, ["statement list differs from perf/expected (templates changed?)"]
    failures = [
        f"client {client} statement {position}: rows differ from perf/expected"
        for client, (got, want) in enumerate(zip(digests, expected["row_digests"]))
        for position, (g, w) in enumerate(zip(got, want))
        if g != w
    ]
    return sum(len(client) for client in digests), failures


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process (and the threads it starts) to one CPU.

    The two CPUs of the sandbox change speed independently, so a probe
    (:mod:`perf.speed`) only describes the statements around it when both
    ran on the same CPU - and a ``QueryService`` runs statements on
    worker threads the OS places freely. The program is one GIL-bound
    process: a second core adds no throughput (``service_mixed`` passes
    take 1.5-1.9 s on two CPUs, 1.1-1.2 s on one, because every GIL
    hand-off then crosses cores). Thread placement is the sandbox's,
    not the program's, so it is fixed like ``PYTHONHASHSEED``.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def _commit() -> str:
    if not (REPO_ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


class Ledger:
    """Checks made and checks failed: the run's ``fail_ratio``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, count: int, failures: List[str]) -> None:
        self.attempted += count
        self.failures.extend(failures)

    def check_pass(self, state: State, result: PassResult, baseline) -> None:
        """Every statement must succeed and repeat the warm-up pass's
        row digest (a statement that failed there has none to match)."""
        failures = []
        for client, digests in enumerate(digests_of(result)):
            for position, digest in enumerate(digests):
                error = result.records[client][position].error
                if error is not None:
                    failures.append(error)
                elif digest != baseline[client][position]:
                    failures.append(
                        f"{state.lists[client][position].cls}: row digest "
                        "differs between passes"
                    )
        self.check(result.statements, failures)


def run_workload(name: str, seed: int, seconds: float, trace: bool = False,
                 smoke: bool = False, regen_expected: bool = False) -> Dict[str, Any]:
    """Set up, measure and verify one workload; returns its result
    object. ``seconds`` is ignored at ``smoke`` size (one pass)."""
    workload = WORKLOADS[name]
    cpus = os.cpu_count() or 1
    if workload.clients > cpus:
        raise SystemExit(
            f"{name} needs {workload.clients} client threads; "
            f"this machine has {cpus} cpus"
        )
    size = workload.smoke if smoke else workload.size

    # 1. set-up (the last repetition's state is the one measured)
    state = None
    setups = []  # (at reference speed, wall clock)
    for _ in range(1 if (smoke or trace) else SETUP_REPS):
        if state is not None:
            state.close()
            state = None
        gc.collect()
        started = time.perf_counter()
        state = State(workload, seed, size)
        warm = run_pass(state)
        finished = time.perf_counter()
        setups.append(
            (state.clocks[0].scaled(started, finished), finished - started)
        )
    try:
        return _measure(
            state, digests_of(warm), seed, seconds, trace, smoke, regen_expected,
            [statistics.median(column) for column in zip(*setups)],
        )
    finally:
        state.close()


def _timings(setup_s: float, passes: List[PassResult], seconds_of) -> Dict[str, float]:
    """The timing metrics of a run; ``seconds_of`` picks the plain
    wall-clock or the reference-speed reading of a pass or a record."""
    latencies_ms = [
        1000.0 * seconds_of(record)
        for result in passes for records in result.records
        for record in records if record.error is None
    ]
    return {
        "setup_s": setup_s,
        "qps": statistics.median(
            result.statements / seconds_of(result) for result in passes
        ),
        "stmt_p50_ms": layers.percentile(latencies_ms, 0.50),
        "stmt_p95_ms": layers.percentile(latencies_ms, 0.95),
    }


def _measure(state: State, baseline, seed, seconds, trace, smoke,
             regen_expected, setup_s) -> Dict[str, Any]:
    """``setup_s`` is (at reference speed, wall clock)."""
    workload = state.workload
    ledger = Ledger()

    # 2. timed passes; with tracing, each followed by a traced pass
    tracer = tracing.Tracer() if trace else None
    untraced: List[PassResult] = []
    traced: List[PassResult] = []
    first_traced: Dict[str, Any] = {}
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        if untraced:
            untraced[-1].release()
        untraced.append(run_pass(state))
        ledger.check_pass(state, untraced[-1], baseline)
        if tracer is not None:
            gc.collect()
            spans_before = len(tracer.spans)
            counters_before = layers.counters()
            service_before = state.runner.service_stats()
            tracer.install()
            try:
                traced.append(run_pass(state, tracer, pass_no=len(traced)))
            finally:
                tracer.uninstall()
            ledger.check_pass(state, traced[-1], baseline)
            if first_traced:
                traced[-1].release()
            else:
                # Counts are reported from this pass alone: same seed,
                # same history, so with one client they repeat exactly.
                after = layers.counters()
                first_traced = {
                    "counters": {
                        key: after[key] - counters_before.get(key, 0)
                        for key in after
                    },
                    "service": (service_before, state.runner.service_stats()),
                    "spans": tracer.spans[spans_before:],
                    "pass": traced[-1],
                }
        if smoke or (
            len(untraced) >= MIN_PASSES and time.perf_counter() >= deadline
        ):
            break
    # The program under the workload, before the reference runs below.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # 3. verification (not part of any reported time)
    ledger.check(*check_reference(state, untraced[-1]))
    list_digest = statement_digest(state.lists)
    if seed == DEFAULT_SEED and not smoke:
        ledger.check(
            *check_expected(workload.name, list_digest, baseline, regen_expected)
        )

    values = _timings(setup_s[0], untraced, lambda timed: timed.seconds)
    values["peak_rss_mb"] = peak_rss_mb
    wall_clock = _timings(setup_s[1], untraced, lambda timed: timed.wall)
    units = {metric: unit for metric, unit, _better in END_TO_END}
    output: Dict[str, Any] = {
        "workload": workload.name,
        "why": workload.why,
        "env": {
            "commit": _commit(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "scale_factor": state.size.scale_factor,
            "pool_pages": state.size.pool_pages,
            "seed": seed,
            "passes": len(untraced),
            "n_statements": sum(result.statements for result in untraced),
            "statements_per_pass": untraced[-1].statements,
            "clients": workload.clients,
            "smoke": smoke,
        },
        "statement_digest": list_digest,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "fail_ratio": len(ledger.failures) / ledger.attempted,
        "failures": ledger.failures[:10],
        "end_to_end": {
            metric: {"value": values[metric], "unit": units[metric]}
            for metric in units
        },
        # The same timings as the plain wall clock read them.
        "wall_clock": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in wall_clock.items()
        },
    }
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{workload.name}-seed{seed}.jsonl"
        tracer.write(trace_path)
        output["trace_file"] = str(trace_path.relative_to(REPO_ROOT))
        output["per_layer"] = _per_layer(
            state, seed, tracer, untraced, traced, first_traced
        )
    return output


def _per_layer(state: State, seed: int, tracer, untraced, traced,
               first_traced) -> Dict[str, Any]:
    """Every per-layer metric of a traced run (see :mod:`perf.layers`)."""
    first = first_traced["pass"]
    values = dict.fromkeys((metric for metric, _u, _b in layers.PER_LAYER), 0.0)
    speeds = {
        record.stmt_id: record.wall / record.seconds
        for result in traced for records in result.records for record in records
    }
    values.update(layers.span_metrics(tracer.spans, speeds))
    values.update(layers.planner_counts(first_traced["spans"]))
    values.update(layers.counter_metrics(first_traced["counters"]))
    values.update(layers.service_metrics(*first_traced["service"]))
    values.update(layers.storage_metrics(first.io, first.statements))
    results = [
        record.result for records in first.records for record in records
        if record.result is not None
    ]
    values["optimizer.full_sorts"] = float(
        sum(result.plan.sort_count() for result in results)
    )
    values["optimizer.partial_sorts"] = float(
        sum(result.plan.partial_sort_count() for result in results)
    )
    values["executor.spill_pages"] = float(
        sum(result.spill_pages for result in results)
    )
    # Measured CPU is part of it, so it comes from the untraced passes.
    values["executor.sim_elapsed_p50_ms"] = layers.percentile(
        [ms for result in untraced for ms in result.sim_ms], 0.50
    )
    values["trace.overhead_ratio"] = statistics.median(
        result.seconds for result in traced
    ) / statistics.median(result.seconds for result in untraced)
    samples = _class_samples(state, first)
    clock = state.clocks[0]
    values.update(
        layers.core_isolation([plan for plan, _bindings in samples], clock)
    )
    values.update(layers.cost_metrics(state.database, samples))
    values.update(layers.storage_expr_isolation(state.database, seed, clock))
    return {
        metric: {"value": values[metric], "unit": unit}
        for metric, unit, _better in layers.PER_LAYER
    }


def _class_samples(state: State, result: PassResult):
    """One ``(plan, bindings)`` per statement class, from a pass."""
    from repro.service import parameterize

    samples = {}
    for client, statements in enumerate(state.lists):
        for position, statement in enumerate(statements):
            record = result.records[client][position]
            if statement.cls in samples or record.result is None:
                continue
            bindings = statement.params
            if state.runner.via_service:
                # The cached plan carries the auto-extracted markers.
                bindings = parameterize(statement.sql).bindings
            samples[statement.cls] = (record.result.plan, bindings)
    return list(samples.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--regen-expected", action="store_true")
    args = parser.parse_args(argv)
    pinned = pin_to_one_cpu()
    output = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        args.smoke, args.regen_expected,
    )
    output["env"]["pinned_cpu"] = pinned
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
