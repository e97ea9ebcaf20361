"""End-to-end benchmark of the flipgroupoid CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workloads are in
``jobs.py``.  A pass runs every command of a workload once, one after
another, each in a fresh interpreter (``child.py``), as a user's shell
would: one closed-loop client, one child process alive at a time, no
threads.  Passes repeat until ``--seconds`` is used up; a pass starts
only if it is expected to end by then, except the first one.  Every
answer is checked (``answers.py``); a command that exits non-zero,
raises or answers wrong counts as failed.

End-to-end metrics (``--trace 0``), each the sum or maximum over a
pass's commands of their median over passes:

- ``wall_s``: seconds inside ``cli.main``, summed over the commands;
- ``setup_s``: seconds from starting the interpreter to having imported
  ``flipgroupoid.cli``, summed over the commands;
- ``peak_rss_mb``: the largest ``ru_maxrss`` of any command.

With ``--trace 1`` untraced and traced passes alternate.  The traced
ones run under ``tracer.py`` and give the per-layer metrics, medians over
traced passes, plus the tracing overhead (traced minus untraced
``wall_s``).  All spans of the run are written to
``.perfbench_run/spans-<workload>.jsonl`` when it ends, one JSON
span per line.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; failed / attempted is the
failed fraction.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import answers
import jobs
import tracer

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench_run")
CLI_SOURCE = Path("src/flipgroupoid/cli.py")
RUN_LIMIT_S = 160.0  # a run must end within 180 s; stop commands past this
TIMED_OUT = -9


@dataclass
class CommandResult:
    job: str
    kind: str
    code: int
    problems: list[str]
    out_bytes: int
    meta: dict | None  # child.py's timings; None if the child died first
    trace: dict | None  # spans and counts of a traced command

    def _meta(self, fn):
        return None if self.meta is None else fn(self.meta)

    @property
    def setup_s(self):
        return self._meta(lambda m: m["imported"] - m["spawned"])

    @property
    def wall_s(self):
        return self._meta(lambda m: m["end"] - m["start"])

    @property
    def setup_cpu_s(self):
        return self._meta(lambda m: m["imported_cpu"])

    @property
    def cpu_s(self):
        return self._meta(lambda m: m["end_cpu"] - m["start_cpu"])

    @property
    def rss_mb(self):
        return self._meta(lambda m: m["maxrss_kb"] / 1024.0)


def child_env() -> dict:
    """The caller's environment, with the checkout's ``src`` importable.

    Bytecode caching stays on, as for an installed package, so set-up
    does not include compiling the library on every command.

    OpenBLAS gets one thread.  The library calls no BLAS routine, but by
    default importing numpy starts a BLAS thread per CPU.  On a 2-vCPU
    guest that start-up doubled the import time.  Set-up took 0.98 CPU
    seconds per wall second in one set of runs and 1.49 in the next, and
    the set-up medians of one code moved by 20-25% between the two sets.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["OPENBLAS_NUM_THREADS"] = "1"
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv: list[str], stem: Path, env: dict, deadline: float,
            trace_command: int | None = None) -> tuple[int, dict | None, dict | None]:
    """Run one CLI command under ``child.py``; returns (code, meta, trace)."""
    meta_path, spans_path = stem.with_suffix(".meta"), stem.with_suffix(".spans")
    meta_path.unlink(missing_ok=True)
    args = [sys.executable, str(HERE / "child.py"), str(meta_path)]
    if trace_command is not None:
        args += ["--trace", str(spans_path), "--command", str(trace_command)]
    args += ["--", *argv]
    spawned = time.perf_counter()
    with open(stem.with_suffix(".out"), "wb") as out, open(stem.with_suffix(".err"), "wb") as err:
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=env)
        try:
            code = proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            return TIMED_OUT, None, None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if not meta_path.exists():
        return code if code else 1, None, None
    with open(meta_path) as fh:
        meta = json.load(fh)
    meta["spawned"] = spawned
    trace = None
    if trace_command is not None:
        with open(spans_path) as fh:
            trace = json.load(fh)
        spans_path.unlink()
    return code, meta, trace


def make_inputs(workload: tuple, seed: int, work: Path, env: dict, deadline: float) -> dict:
    """Seeded starting triangulation of every job, written to ``work``."""
    starts = {}
    for job in workload:
        stem = work / f"{job.name}-base"
        base_path = stem.with_suffix(".json")
        code, _, _ = run_cli(["surface", "new", *job.surface, "--out", str(base_path)],
                             stem, env, deadline)
        if code != 0:
            raise RuntimeError(f"surface new {' '.join(job.surface)} exited {code}")
        with open(base_path) as fh:
            start = jobs.seeded_start(json.load(fh), seed, job)
        with open(work / f"{job.name}.tri.json", "w") as fh:
            json.dump(start, fh)
        starts[job.name] = start
    return starts


def run_pass(workload: tuple, starts: dict, work: Path, env: dict, deadline: float,
             traced: bool, first_command: int) -> list[CommandResult]:
    """One pass: every command of the workload, each answer checked."""
    results = []
    for job in workload:
        tri_path = work / f"{job.name}.tri.json"
        graph_path = work / f"{job.name}.graph.json"
        graph_path.unlink(missing_ok=True)  # never check a stale graph
        ctx = {"tri": starts[job.name], "graph_path": graph_path}
        for i, cmd in enumerate(job.commands):
            argv = [a.replace(jobs.TRI, str(tri_path)).replace(jobs.GRAPH, str(graph_path))
                    for a in cmd.argv]
            stem = work / f"{job.name}-{i}"
            command_id = first_command + len(results)
            code, meta, trace = run_cli(argv, stem, env, deadline,
                                        command_id if traced else None)
            out_path = stem.with_suffix(".out")
            problems = answers.check(job, cmd, code, str(out_path), ctx)
            if meta is not None and meta["raised"]:
                problems.append(meta["raised"].strip().splitlines()[-1])
            out_bytes = out_path.stat().st_size
            if cmd.kind == "enumerate" and graph_path.exists():
                out_bytes += graph_path.stat().st_size
            results.append(CommandResult(job.name, cmd.kind, code, problems, out_bytes,
                                         meta, trace))
            if code == TIMED_OUT:
                return results
    return results


# -- metrics -------------------------------------------------------------------


def end_to_end(passes: list[list[CommandResult]]) -> dict:
    """Per-command medians over passes, summed (times) or maxed (memory)."""
    per_cmd = list(zip(*passes))

    def med(rs, attr):
        vals = [getattr(r, attr) for r in rs if getattr(r, attr) is not None]
        return statistics.median(vals) if vals else 0.0

    return {
        "wall_s": sum(med(rs, "wall_s") for rs in per_cmd),
        "setup_s": sum(med(rs, "setup_s") for rs in per_cmd),
        "cpu_s": sum(med(rs, "cpu_s") for rs in per_cmd),
        "setup_cpu_s": sum(med(rs, "setup_cpu_s") for rs in per_cmd),
        "peak_rss_mb": max(med(rs, "rss_mb") for rs in per_cmd),
    }


LAYERS = [name for name, _, _ in tracer.TARGETS] + [tracer.ROOT]


def layer_metrics(results: list[CommandResult]) -> dict:
    """Per-layer numbers of one traced pass, a superset of BENCHMARK.json's."""
    calls = dict.fromkeys(LAYERS, 0)
    own = dict.fromkeys(LAYERS, 0.0)
    counts = dict.fromkeys(tracer.COUNTS, 0)
    transport = 0.0
    enum_canonical = 0
    traced = [r for r in results if r.trace is not None]
    for r in traced:
        spans = r.trace["spans"]
        c, o = tracer.self_times(spans)
        for name in c:
            calls[name] += c[name]
            own[name] += o[name]
        for name, value in r.trace["counts"].items():
            counts[name] += value
        transport += tracer.inclusive_time(spans, "cover.frame_transport")
        enum_canonical += tracer.calls_inside(spans, "seeds.canonical_form",
                                              "exchange.enumerate")
    wall = sum(r.wall_s for r in traced)
    m = {f"{name}.self_s": own[name] for name in LAYERS}
    m.update({f"{name}.calls": calls[name] for name in LAYERS})
    m.update(counts)
    # graph_from_json also computes keys; count only the enumeration's
    m["seeds.canonical_per_mutation"] = _ratio(enum_canonical, calls["seeds.mutate_seed"])
    m["exchange.new_vertex_ratio"] = _ratio(counts["exchange.new_vertices"],
                                            calls["seeds.mutate_seed"])
    m["exchange.graph_bytes"] = sum(r.out_bytes for r in traced if r.kind == "enumerate")
    m["cover.fold_ratio"] = _ratio(counts["cover.classes"], counts["cover.tree_nodes"])
    m["cli.out_bytes"] = sum(r.out_bytes for r in traced)
    m["homology.dense_share"] = _ratio(own["homology.invariant_factors"], wall)
    m["cover.transport_share"] = _ratio(transport, wall)
    m["trace.wall_s"] = wall
    return m


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def metric_units(kind: str) -> dict:
    """Name and unit of every ``end_to_end`` or ``per_layer`` metric."""
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


# -- main ------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def _terminated(signum, frame):
    sys.exit(128 + signum)  # unwinds through run_cli, which stops the child


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminated)
    args = parse_args(argv)
    if not CLI_SOURCE.is_file():
        print(f"perfbench: no {CLI_SOURCE} here; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    workload = jobs.WORKLOADS[args.workload]
    try:
        starts = make_inputs(workload, args.seed, work, env, deadline)
        untraced, traced = run_passes(args, workload, starts, work, env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    every = [r for p in untraced + traced for r in p]
    failed = sum(bool(r.problems) for r in every)
    report(args, untraced, traced, every)
    e2e = end_to_end(untraced)
    if args.trace:
        with open(WORK / f"spans-{args.workload}.jsonl", "w") as fh:
            for r in (r for p in traced for r in p if r.trace):
                for span in r.trace["spans"]:
                    fh.write(json.dumps(span) + "\n")
        units = metric_units("per_layer")
        layers = [layer_metrics(p) for p in traced]
        metrics = {name: statistics.median(m[name] for m in layers)
                   for name in units if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - e2e["wall_s"]
    else:
        units = metric_units("end_to_end")
        metrics = e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(every),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def run_passes(args, workload, starts, work, env, deadline):
    """Passes until ``--seconds`` is used up; alternating when tracing."""
    untraced: list = []
    traced: list = []
    begun = time.perf_counter()
    durations: list[float] = []
    command = 0
    while True:
        trace_this = bool(args.trace) and len(traced) < len(untraced)
        t0 = time.perf_counter()
        results = run_pass(workload, starts, work, env, deadline, trace_this, command)
        command += len(results)
        (traced if trace_this else untraced).append(results)
        durations.append(time.perf_counter() - t0)
        if len(results) < sum(len(j.commands) for j in workload):
            break  # a command hit the run's time limit
        need_both = args.trace and not traced
        expected = statistics.median(durations)
        if not need_both and time.perf_counter() - begun + expected > args.seconds:
            break
    return untraced, traced


def report(args, untraced, traced, every) -> None:
    """Human-readable summary on stdout, before the result line."""
    failed = [r for r in every if r.problems]
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes, {len(every)} commands, "
          f"failed_frac {len(failed) / max(len(every), 1):.4f}")
    if untraced:
        for rs in zip(*untraced):
            walls = [r.wall_s for r in rs if r.wall_s is not None]
            setups = [r.setup_s for r in rs if r.setup_s is not None]
            print(f"  {rs[0].job:12s} {rs[0].kind:13s} wall median "
                  f"{statistics.median(walls) if walls else float('nan'):8.3f} s of {len(walls)}"
                  f"  setup {statistics.median(setups) if setups else float('nan'):.3f} s")
    if untraced:
        print("  " + "  ".join(f"{k} {v:.4f}" for k, v in end_to_end(untraced).items()))
    for r in failed[:10]:
        print(f"  FAILED {r.job} {r.kind}: {'; '.join(r.problems)[:300]}")


if __name__ == "__main__":
    sys.exit(main())
