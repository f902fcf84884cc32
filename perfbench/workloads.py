"""The four workloads of the benchmark and how each is measured and checked.

Every workload is a user session: a training command (repeated while the
run's time lasts) followed by ``repro serve`` on the model it produced,
queried with rows of the dataset that model was trained on.  The training
workloads give most of the time to training; ``serve_url_open_loop``
trains as preparation and gives its time to serving.  See ``perfbench/README.md`` for why each
workload exists and which layer metric should move on which of them.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import harness
import loadgen
import spans
from harness import Metric, median_metric

#: Headline keys ``repro report --json`` must return.
HEADLINE_KEYS = ("optimum_speedup_over_asgd", "average_speedup_over_asgd",
                 "raw_speedup_over_sgd", "is_sampling_overhead")
#: Solvers whose trace counts a once-per-epoch sync step (the snapshot and
#: full gradient) as one extra iteration, as ``runtime.trace_fold`` prices it.
SYNC_STEPS_PER_EPOCH = {"svrg_asgd": 1}


@dataclass
class Context:
    """What one benchmark run was asked to do, and where it may write."""

    seed: int
    seconds: float
    trace: bool
    tiny: bool
    work: Path
    env: Dict[str, str]
    _counter: int = 0

    def path(self, stem: str) -> Path:
        self._counter += 1
        return self.work / f"{self._counter:03d}-{stem}"


@dataclass
class Outcome:
    """Everything a workload measured, counted and checked."""

    metrics: Dict[str, Metric] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    detail: Dict[str, Any] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    def put(self, metric: Metric) -> None:
        self.metrics[metric.name] = metric


# --------------------------------------------------------------------- #
# Training commands
# --------------------------------------------------------------------- #
@dataclass
class TrainRep:
    """One execution of a workload's training command(s)."""

    setup_s: float
    run_s: float
    samples_per_s: float
    final_rmse: float
    peak_rss_mb: float
    digest: Optional[str]
    store: Path
    traced: bool
    layers: Dict[str, float] = field(default_factory=dict)


def _load_artifacts(store: Path) -> List[Dict[str, Any]]:
    return [json.loads(p.read_text()) for p in sorted(store.glob("*.json"))]


def _artifact_ok(entry: Dict[str, Any]) -> Tuple[bool, str, Dict[str, float]]:
    """Finite weights and epochs x samples iterations; returns figures too.

    An epoch of ``T`` workers is ``T`` sequences of ``n // T`` steps each
    (the paper's ``n/T`` per worker), so that is the count expected.
    """
    from repro.datasets.catalog import get_descriptor

    record, identity = entry["record"], entry["identity"]
    weights = np.asarray(record["info"]["weights"], dtype=np.float64)
    n = get_descriptor(identity["dataset"]).surrogate.n_samples
    workers = int(identity["num_workers"])
    iterations = sum(e["iterations"] for e in record["trace"]["epochs"])
    samples = identity["epochs"] * workers * (n // workers)
    expected = samples + identity["epochs"] * SYNC_STEPS_PER_EPOCH.get(record["solver"], 0)
    rmse = float(record["curve"]["rmse"][-1])
    figures = {
        "samples": float(samples),
        "train_s": float(record["info"]["measured_train_seconds"]),
        "rmse": rmse,
        "digest": hashlib.sha256(weights.tobytes()).hexdigest(),
    }
    if not np.all(np.isfinite(weights)) or not math.isfinite(rmse):
        return False, f"{identity['dataset']}/{record['solver']}: non-finite weights", figures
    if iterations != expected:
        return False, (f"{identity['dataset']}/{record['solver']}: {iterations} iterations, "
                       f"expected {expected}"), figures
    return True, "", figures


def _child(ctx: Context, stem: str, args: List[str], traced: bool,
           trace_dir: Optional[Path] = None, cpus=None) -> harness.ChildResult:
    env = dict(ctx.env)
    if traced:
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
        env["PERFBENCH_RUN_ID"] = stem
    return harness.run_child(args, env, ctx.path(stem + ".marks"), cpus=cpus)


def _traced_layers(trace_dir: Path) -> Dict[str, float]:
    return spans.layer_metrics(spans.load_spans(sorted(trace_dir.glob("spans-*.json"))))


def _fail_text(result: harness.ChildResult) -> str:
    return f"exit {result.code}: {result.stderr.strip().splitlines()[-1:]}"


def train_run_command(ctx: Context, out: Outcome, argv: List[str], traced: bool) -> TrainRep:
    """One ``repro run`` of a training workload."""
    store = ctx.path("store")
    trace_dir = ctx.path("trace")
    trace_dir.mkdir()
    result = _child(ctx, "run", ["cli", *argv, "--store", str(store)], traced, trace_dir)
    out.attempted += 1
    artifacts = _load_artifacts(store) if store.exists() else []
    ok = out.check("run exits 0 with one artifact", result.code == 0 and len(artifacts) == 1,
                   _fail_text(result) if result.code else f"{len(artifacts)} artifacts")
    figures = {"samples": 0.0, "train_s": math.nan, "rmse": math.nan, "digest": None}
    if ok:
        good, why, figures = _artifact_ok(artifacts[0])
        ok = out.check("finite weights, iterations = epochs x samples", good, why)
    if not ok:
        out.failed += 1
    setup = result.since_spawn("first_step")
    return TrainRep(
        setup_s=setup if setup is not None else math.nan,
        run_s=result.wall_s,
        samples_per_s=figures["samples"] / figures["train_s"] if ok else math.nan,
        final_rmse=figures["rmse"],
        peak_rss_mb=result.peak_rss_mb,
        digest=figures["digest"], store=store, traced=traced,
        layers=_traced_layers(trace_dir) if traced else {},
    )


def train_sweep_command(ctx: Context, out: Outcome, argv: List[str], expected_runs: int,
                        traced: bool) -> TrainRep:
    """``repro sweep`` into a fresh store, then ``repro report --json`` on it."""
    store = ctx.path("store")
    trace_dir = ctx.path("trace")
    trace_dir.mkdir()
    sweep = _child(ctx, "sweep", ["cli", *argv, "--store", str(store)], traced, trace_dir)
    report = _child(ctx, "report", ["cli", "report", "--store", str(store), "--json"],
                    traced, trace_dir)
    artifacts = _load_artifacts(store) if store.exists() else []
    out.attempted += expected_runs
    out.check("sweep exits 0", sweep.code == 0, _fail_text(sweep))
    out.check(f"sweep writes {expected_runs} artifacts", len(artifacts) == expected_runs,
              f"{len(artifacts)} artifacts")
    failed = max(0, expected_runs - len(artifacts))
    samples, rmses = 0.0, []
    for entry in artifacts:
        good, why, figures = _artifact_ok(entry)
        if not out.check("finite weights, iterations = epochs x samples", good, why):
            failed += 1
        samples += figures["samples"]
        rmses.append(figures["rmse"])
    headline: Dict[str, Any] = {}
    if report.code == 0:
        lines = report.stdout.splitlines()
        starts = [i for i, line in enumerate(lines) if line == "{"]
        if starts:
            headline = json.loads("\n".join(lines[starts[-1]:]))
    out.check("report --json returns the headline keys",
              report.code == 0 and all(k in headline for k in HEADLINE_KEYS),
              _fail_text(report) if report.code else f"keys {sorted(headline)}")
    out.failed += failed
    setup = sweep.since_spawn("plan_ready")
    return TrainRep(
        setup_s=setup if setup is not None else math.nan,
        run_s=sweep.wall_s + report.wall_s,
        samples_per_s=samples / sweep.wall_s,
        final_rmse=statistics.fmean(rmses) if rmses else math.nan,
        peak_rss_mb=max(sweep.peak_rss_mb, report.peak_rss_mb),
        digest=None, store=store, traced=traced,
        layers=_traced_layers(trace_dir) if traced else {},
    )


def repeat_training(ctx: Context, once: Callable[[bool], TrainRep],
                    budget_s: float) -> List[TrainRep]:
    """Repeat the training command while the budget lasts (at least once).

    Another repetition starts when it is expected to end no more than half
    a repetition past the budget.  A traced run alternates untraced and
    traced repetitions so the tracing overhead is measured on the same
    machine state.
    """
    reps: List[TrainRep] = []
    started = time.monotonic()
    while True:
        traced = ctx.trace and len(reps) % 2 == 1
        reps.append(once(traced))
        elapsed = time.monotonic() - started
        need = 2 if ctx.trace else 1
        if len(reps) >= need and elapsed + 0.5 * elapsed / len(reps) > budget_s:
            return reps


def report_training(out: Outcome, reps: List[TrainRep]) -> None:
    plain = [r for r in reps if not r.traced]
    out.put(median_metric("setup_s", "s", [r.setup_s for r in plain]))
    out.put(median_metric("run_s", "s", [r.run_s for r in plain]))
    out.put(median_metric("train_samples_per_s", "samples/s", [r.samples_per_s for r in plain]))
    out.put(median_metric("final_rmse", "rmse", [r.final_rmse for r in plain]))
    out.put(median_metric("peak_rss_mb", "MB", [r.peak_rss_mb for r in plain]))
    traced = [r for r in reps if r.traced]
    if traced:
        names = traced[0].layers.keys()
        out.layers.update({k: statistics.median(r.layers[k] for r in traced) for k in names})
        out.layers["bench.trace_overhead_share"] = (
            statistics.median(r.run_s for r in traced) / statistics.median(r.run_s for r in plain)
            - 1.0)
    out.detail["training_reps"] = [
        {k: v for k, v in vars(r).items() if k not in ("layers", "store")} for r in reps
    ]


# --------------------------------------------------------------------- #
# Serving sessions
# --------------------------------------------------------------------- #
@dataclass
class Served:
    """The model a session serves, its query rows and their reference margins.

    Request ``k`` of a schedule is row ``pool[ids[k]]``.
    """

    store: Path
    key: str
    pool: List[Tuple[np.ndarray, np.ndarray]]
    pool_margins: np.ndarray
    ids: np.ndarray

    def __post_init__(self) -> None:
        self.bodies = loadgen.encode_rows(self.pool)

    def rows(self, n: int) -> List[Tuple[np.ndarray, np.ndarray]]:
        return [self.pool[i] for i in self.ids[:n]]

    def expected(self, n: int) -> np.ndarray:
        return self.pool_margins[self.ids[:n]]


def pick_model(store: Path, seed: int, n_queries: int) -> Served:
    """The store's first ``is_asgd`` artifact and the queries sent to it.

    Queries are drawn uniformly, from the workload seed, from every row of
    the model's training set, loaded here as untimed preparation.  The
    reference margin of every row comes from
    ``ScoringModel.decision_function``.
    """
    from repro.datasets.loader import load_dataset
    from repro.experiments.store import ArtifactStore
    from repro.serving import ScoringModel

    entries = [(p.stem, json.loads(p.read_text())) for p in sorted(store.glob("*.json"))]
    entries = [(k, e) for k, e in entries if e["record"]["solver"] == "is_asgd"]
    key, entry = min(entries, key=lambda ke: (ke[1]["identity"]["dataset"],
                                              ke[1]["identity"]["num_workers"], ke[0]))
    identity = entry["identity"]
    model = ScoringModel.from_artifact(ArtifactStore(store), key)
    rng = np.random.default_rng([seed, 7])
    X = load_dataset(identity["dataset"], seed=identity["dataset_seed"]).X
    pool = [X.row(i) for i in range(X.n_rows)]
    margins = np.asarray(model.decision_function(X), dtype=np.float64)
    return Served(store, key, pool, margins, rng.integers(0, len(pool), size=n_queries))


@dataclass
class Session:
    """One serving session: phases, checks and the server's own figures."""

    phases: List[Dict[str, Any]]
    attempted: int
    failed: int
    setup_s: float
    peak_rss_mb: float
    stats: Dict[str, Any] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)


def _serve_argv(served: Served) -> List[str]:
    return ["cli", "serve", "--store", str(served.store), "--key", served.key]


def serve_cli(ctx: Context, served: Served, schedule: loadgen.Schedule) -> Session:
    """``repro serve`` at its CLI defaults, driven open-loop over its pipes."""
    marks = ctx.path("serve.marks")
    generator_cpus, server_cpus = harness.split_cpus()
    spawned = time.monotonic()
    proc = harness.spawn(_serve_argv(served), ctx.env, marks, server_cpus,
                         stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        with harness.pinned(generator_cpus):
            raw = loadgen.drive_cli(proc, schedule, served.bodies, served.ids)
    finally:
        if not proc.stdin.closed:
            proc.stdin.close()
        result = harness.reap(proc, spawned, marks, timeout=60.0)
        proc.stdout.close()
        proc.stderr.close()
    analysis = loadgen.analyse(schedule, raw, served.expected(len(schedule)))
    setup = result.since_spawn("server_ready")
    return Session(analysis["phases"], analysis["attempted"],
                   analysis["failed"] + (0 if result.code == 0 else 1),
                   setup if setup is not None else math.nan, result.peak_rss_mb)


def serve_startup(ctx: Context, served: Served) -> Tuple[float, bool]:
    """Start ``repro serve``, answer one query, stop: ``(setup_s, ok)``."""
    marks = ctx.path("startup.marks")
    spawned = time.monotonic()
    proc = harness.spawn(_serve_argv(served), ctx.env, marks, harness.split_cpus()[1],
                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL)
    try:
        out, _ = proc.communicate(loadgen.query_line(0, served.bodies[served.ids[0]]),
                                  timeout=60.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    marks_data = json.loads(marks.read_text()) if marks.exists() else {}
    ready = marks_data.get("server_ready")
    ok = proc.returncode == 0 and ready is not None and bool(out.strip())
    if ok:
        response = json.loads(out.decode().splitlines()[0])
        ok = abs(response.get("margin", math.inf) - served.expected(1)[0]) <= 1e-9
    return (ready - spawned if ready is not None else math.nan), ok


def serve_inprocess(ctx: Context, served: Served, schedule: loadgen.Schedule,
                    traced: bool) -> Session:
    """The same schedule driven through ``repro.serving`` inside one child."""
    rows = served.rows(len(schedule))
    queries = ctx.path("queries.npz")
    lengths = np.array([r[0].size for r in rows], dtype=np.int64)
    np.savez(queries, indptr=np.concatenate([[0], np.cumsum(lengths)]),
             indices=np.concatenate([r[0] for r in rows]).astype(np.int64),
             values=np.concatenate([r[1] for r in rows]), due=schedule.due,
             phase=schedule.phase, phases=np.array(schedule.phases, dtype=np.float64))
    result_path = ctx.path("inproc.json")
    config = ctx.path("inproc-config.json")
    config.write_text(json.dumps({
        "store": str(served.store), "key": served.key, "queries": str(queries),
        "result": str(result_path),
    }))
    trace_dir = ctx.path("trace")
    trace_dir.mkdir()
    result = _child(ctx, "serve-inproc", ["serve-inproc", str(config)], traced, trace_dir,
                    cpus=harness.split_cpus()[1])
    if result.code != 0 or not result_path.exists():
        return Session([], len(schedule), len(schedule), math.nan, result.peak_rss_mb)
    data = json.loads(result_path.read_text())
    raw = {
        "sent": np.asarray(data["sent"]),
        "received": np.asarray(data["received"]),
        "responses": [{"error": "failed"} if m is None else {"margin": m}
                      for m in data["margins"]],
    }
    analysis = loadgen.analyse(schedule, raw, served.expected(len(schedule)))
    setup = result.since_spawn("server_ready")
    session = Session(analysis["phases"], analysis["attempted"], analysis["failed"],
                      setup if setup is not None else math.nan, result.peak_rss_mb,
                      stats=data["stats"])
    if traced:
        session.layers = _traced_layers(trace_dir)
    return session


def report_serving(out: Outcome, sessions: List[Session]) -> None:
    """End-to-end serving metrics: medians over sessions of each phase figure."""
    light = [loadgen.phase_at(s.phases, loadgen.LIGHT_QPS) for s in sessions]
    heavy = [loadgen.phase_at(s.phases, loadgen.HEAVY_QPS) for s in sessions]
    light = [p for p in light if p is not None]
    heavy = [p for p in heavy if p is not None]
    out.check("every session reached the light and heavy phases",
              len(light) == len(heavy) == len(sessions), f"{len(light)}/{len(heavy)}")
    for name, phases in (("serve_p50_ms_light", light), ("serve_p50_ms_heavy", heavy)):
        out.put(Metric(name, "ms",
                       statistics.median(p["p50_ms"] for p in phases) if phases else math.nan,
                       [float(x) for p in phases for x in p["latencies_ms"]]))
    out.detail["serve_sessions"] = [
        [{k: v for k, v in p.items() if k != "latencies_ms"} for p in s.phases]
        for s in sessions
    ]


def _session_checks(out: Outcome, session: Session, label: str) -> None:
    out.attempted += session.attempted
    out.failed += session.failed
    out.check(f"{label}: every response in order and equal to ScoringModel to 1e-9",
              session.failed == 0, f"{session.failed} of {session.attempted} failed")
    grew = [p["rate"] for p in session.phases if p["backlog_grew"]]
    out.check(f"{label}: no backlog growth at {loadgen.LIGHT_QPS} and {loadgen.HEAVY_QPS} qps",
              not grew, f"outstanding requests grew at {grew} qps")


def _p50_light(session: Session) -> float:
    phase = loadgen.phase_at(session.phases, loadgen.LIGHT_QPS)
    return phase["p50_ms"] if phase else math.nan


def serving_layers(out: Outcome, cli: Session, plain: Session, traced: Session) -> None:
    """Serving per-layer metrics of a traced run (in-process vs CLI at the same rate).

    The serving spans replace whatever ``serving.*`` figures the training
    part recorded; kernel time spent scoring adds to the training kernels.
    """
    for name, value in traced.layers.items():
        if name.startswith("serving."):
            out.layers[name] = value
    out.layers["kernels.segment_margins_s"] = (out.layers.get("kernels.segment_margins_s", 0.0)
                                               + traced.layers.get("kernels.segment_margins_s", 0.0))
    stats = traced.stats
    cache = stats.get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    out.layers["serving.batch_size_mean"] = float(stats.get("mean_batch", 0.0))
    out.layers["serving.cache_hit_share"] = cache.get("hits", 0) / lookups if lookups else 0.0
    out.layers["serving.cli_overhead_ms"] = _p50_light(cli) - _p50_light(plain)
    out.layers["serving.sustained_qps"] = loadgen.sustained_qps(cli.phases)
    # The saturation phase blocks the writer on a full pipe by design.
    late = [p["generator_late_ms_p99"] for s in (cli, traced) for p in s.phases
            if p["rate"] != loadgen.SATURATION_QPS]
    out.layers["bench.generator_late_ms_p99"] = max(late) if late else 0.0
    out.detail["serve_traced_phases"] = [
        {k: v for k, v in p.items() if k != "latencies_ms"} for p in traced.phases
    ]


def run_serving(ctx: Context, out: Outcome, served: Served, seconds: float) -> List[Session]:
    """Untraced: one CLI session of the light and heavy phases.

    Traced: three sessions a third as long -- on the CLI with the
    saturation phase added, for ``serving.sustained_qps``, then in process
    untraced and in process with spans on.  Returns the sessions whose
    phases the end-to-end figures come from.
    """
    if not ctx.trace:
        session = serve_cli(ctx, served, loadgen.Schedule.session(seconds, saturate=False))
        _session_checks(out, session, "serve")
        return [session]
    cli = serve_cli(ctx, served, loadgen.Schedule.session(seconds / 3))
    schedule = loadgen.Schedule.session(seconds / 3, saturate=False)
    plain = serve_inprocess(ctx, served, schedule, traced=False)
    traced = serve_inprocess(ctx, served, schedule, traced=True)
    for label, s in (("serve", cli), ("in-process", plain), ("traced", traced)):
        _session_checks(out, s, label)
    out.detail["serve_traced_layers"] = traced.layers
    out.detail["serve_trace_overhead_share"] = _p50_light(traced) / _p50_light(plain) - 1.0
    serving_layers(out, cli, plain, traced)
    return [cli]


# --------------------------------------------------------------------- #
# The workloads
# --------------------------------------------------------------------- #
def _train_argv(ctx: Context, dataset: str, extra: List[str]) -> List[str]:
    return ["run", "--dataset", dataset, "--solver", "is_asgd", *extra, "--force",
            "--seed", str(ctx.seed)]


#: Share of a training workload's seconds given to training; the rest serves.
TRAIN_SHARE = 0.88
#: ``serve_url_open_loop``: training runs that prepare its model (their
#: median gives its training metrics), the share of its seconds given to
#: the serving session, and how many extra server starts (one query
#: each) its ``setup_s`` adds.
PREP_RUNS = 3
SERVE_SHARE = 0.4
STARTUPS = 6


def _serve_s(ctx: Context, seconds: float) -> float:
    """Length of a serving session (after its warm-up) that fills ``seconds``."""
    return 1.0 if ctx.tiny else seconds - loadgen.WARMUP[1]


def _n_queries(ctx: Context, seconds: float) -> int:
    """Queries the longest session of a run can send (the traced run saturates)."""
    untraced = len(loadgen.Schedule.session(seconds, saturate=False))
    return max(untraced, len(loadgen.Schedule.session(seconds / 3))) if ctx.trace else untraced


def _training_workload(ctx: Context, once: Callable[[Outcome, bool], TrainRep]) -> Outcome:
    out = Outcome()
    reps = repeat_training(ctx, lambda traced: once(out, traced), ctx.seconds * TRAIN_SHARE)
    report_training(out, reps)
    if out.failed:
        return out
    seconds = _serve_s(ctx, ctx.seconds * (1 - TRAIN_SHARE))
    served = pick_model(reps[-1].store, ctx.seed, _n_queries(ctx, seconds))
    sessions = run_serving(ctx, out, served, seconds)
    if not ctx.trace:
        report_serving(out, sessions)
    return out


def run_url_batched(ctx: Context) -> Outcome:
    dataset = "url_smoke" if ctx.tiny else "url"
    argv = _train_argv(ctx, dataset, ["--workers", "8", "--async-mode", "batched"])
    out = _training_workload(ctx, lambda o, traced: train_run_command(ctx, o, argv, traced))
    digests = {r["digest"] for r in out.detail["training_reps"]}
    out.check("repetitions give bit-identical weights (sha256)", len(digests) == 1,
              f"{len(digests)} distinct digests")
    return out


def run_kdd_process(ctx: Context) -> Outcome:
    dataset = "kdd_algebra_smoke" if ctx.tiny else "kdd_algebra"
    argv = _train_argv(ctx, dataset, ["--workers", "2", "--async-mode", "process",
                                      "--backend", "native"])
    return _training_workload(ctx, lambda o, traced: train_run_command(ctx, o, argv, traced))


def sweep_figures_smoke(ctx: Context) -> Outcome:
    argv = ["sweep", "--config", "figures", "--smoke", "--jobs", "2", "--seed", str(ctx.seed)]
    expected = 31
    if ctx.tiny:
        argv += ["--datasets", "news20_smoke", "--threads", "2", "--epochs", "2"]
        expected = 4
    return _training_workload(
        ctx, lambda o, traced: train_sweep_command(ctx, o, argv, expected, traced))


def serve_url_open_loop(ctx: Context) -> Outcome:
    out = Outcome()
    dataset = "url_smoke" if ctx.tiny else "url"
    argv = _train_argv(ctx, dataset, ["--workers", "8", "--async-mode", "batched"])
    preps = [train_run_command(ctx, out, argv, traced=False)
             for _ in range(1 if ctx.tiny else PREP_RUNS)]
    report_training(out, preps)
    if out.failed:
        return out
    seconds = _serve_s(ctx, ctx.seconds * SERVE_SHARE)
    served = pick_model(preps[-1].store, ctx.seed, _n_queries(ctx, seconds))
    startups = [serve_startup(ctx, served) for _ in range(2 if ctx.tiny else STARTUPS)]
    out.attempted += len(startups)
    bad = sum(1 for s in startups if not s[1])
    out.failed += bad
    out.check("serve starts and answers its first query", bad == 0, f"{bad} bad starts")
    sessions = run_serving(ctx, out, served, seconds)
    setups = [s[0] for s in startups] + [s.setup_s for s in sessions]
    out.put(median_metric("setup_s", "s", setups))
    out.put(median_metric("peak_rss_mb", "MB", [s.peak_rss_mb for s in sessions]))
    if ctx.trace:
        # The serving run's own spans stand for every layer here; the
        # training above was preparation.
        out.layers = {**out.detail["serve_traced_layers"], **out.layers}
        out.layers["bench.trace_overhead_share"] = out.detail["serve_trace_overhead_share"]
    else:
        report_serving(out, sessions)
    return out


WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "run_url_batched": run_url_batched,
    "run_kdd_process": run_kdd_process,
    "sweep_figures_smoke": sweep_figures_smoke,
    "serve_url_open_loop": serve_url_open_loop,
}
