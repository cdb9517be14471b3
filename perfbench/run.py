#!/usr/bin/env python3
"""The findep host-cost benchmark: one workload, one run.

    python3 perfbench/run.py --workload bft_fanout --seed 3 --seconds 30 --trace 0

Run from the repository root. The script builds its own Release
findep-perfbench from the tree (into $CARGO_TARGET_DIR, default
.bench_build, never the top-level build/), then sweeps the workload's
cells back to back, one findep-perfbench process per sweep, for
--seconds (longer while the cell sample is too small for its p90 or
the workload's minimum sweep count is not reached), and checks every
cell record it gets.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of traced sweeps, interleaved with untraced ones to measure the
tracing overhead. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --save DIR also writes
the full result, with its provenance, for compare.py.

The simulated inputs of the measured sweeps are the workload's cells at
a fixed base seed (--sim-seed, default 1, the catalog default): the host
cost of a sweep depends strongly on that seed, so varying it from run to
run would swamp any change in the program. --seed drives a separate,
unmeasured sweep at that base seed, checked against the workload
invariants, so every run also checks the program on fresh inputs.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import bench

# A sweep that takes longer than this has hung.
SWEEP_TIMEOUT_S = 120


def fail(message, code=1):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"


def build(root):
    """Configures and builds findep-perfbench (Release); returns its path."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = [["cmake", "-S", str(root / "perfbench"), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "-j4",
              "--target", "findep-perfbench"]]
    with log.open("w") as sink:
        for step in steps:
            if subprocess.run(step, stdout=sink, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed: {' '.join(step)} (log: {log})")
    return out / "findep-perfbench"


def source_digest(root):
    """SHA-256 over the sources the benchmark builds, standing in for the
    commit where the checkout is not a git repository."""
    digest = hashlib.sha256()
    files = sorted(list((root / "src").rglob("*")) +
                   [root / "CMakeLists.txt"] +
                   list((root / "perfbench").glob("*.cpp")) +
                   [root / "perfbench" / "CMakeLists.txt"])
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def commit(root):
    try:
        return subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "none"
    except OSError:
        return "none"


def spawn(binary, args, stderr_path):
    """Runs findep-perfbench to completion. Returns (spawn time on the
    monotonic clock, JSON lines, max RSS in KiB)."""
    with stderr_path.open("w") as err:
        started = time.monotonic()
        proc = subprocess.Popen([str(binary)] + args, stdout=subprocess.PIPE,
                                stderr=err, text=True)
        timer = threading.Timer(SWEEP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            proc.stdout.close()
    if proc.returncode != 0:
        sys.stderr.write(stderr_path.read_text()[-4000:])
        fail(f"findep-perfbench {' '.join(args)} exited {proc.returncode}")
    return started, [json.loads(line) for line in out.splitlines()], usage.ru_maxrss


class Runner:
    """One workload's sweeps in this run."""

    def __init__(self, binary, name, scratch):
        self.binary = binary
        self.workload = bench.WORKLOADS[name]
        self.scratch = scratch

    def args(self, sim_seed):
        w = self.workload
        return ["--family", w.family, "--only", w.only, "--seed", str(sim_seed),
                "--threads", str(bench.THREADS)]

    def sweep(self, sim_seed, trace_path=None, run_id=""):
        """One sweep process: (summary, cell records, spans or None)."""
        args = self.args(sim_seed)
        if trace_path is not None:
            args += ["--trace", str(trace_path), "--run-id", run_id,
                     "--probes", ",".join(bench.PROBES)]
        started, lines, rss_kib = spawn(self.binary, args, self.scratch / "stderr.txt")
        summary = lines[-1]
        summary["setup_s"] = summary["sweep_start"] - started
        summary["peak_rss_mib"] = rss_kib / 1024
        cells = [line for line in lines if line["kind"] == "cell"]
        spans = None
        if trace_path is not None:
            spans = json.loads(trace_path.read_text())["spans"]
        return summary, cells, spans


def load_reference(workload, sim_seed):
    path = bench.HERE / "refs" / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(sim_seed))


def write_references(runner, name):
    refs = {}
    for sim_seed in (bench.DEFAULT_SIM_SEED, bench.HELD_OUT_SIM_SEED):
        _, cells, _ = runner.sweep(sim_seed)
        failed, first = bench.check_records(name, cells, None)
        if failed:
            fail(f"refusing to record a failing reference: {first}")
        refs[str(sim_seed)] = {bench.cell_key(c): c["metrics"] for c in cells}
    path = bench.HERE / "refs" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def format_value(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_table(metrics, notes):
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:36s} {format_value(value):>14s} {bench.UNITS[name]}{note}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench.SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sim-seed", type=int, default=bench.DEFAULT_SIM_SEED,
                        help="base seed of the measured sweeps (reference "
                             f"records exist for {bench.DEFAULT_SIM_SEED} and "
                             f"the held-out {bench.HELD_OUT_SIM_SEED})")
    parser.add_argument("--save", type=Path,
                        help="directory to write the full result into")
    parser.add_argument("--write-refs", action="store_true",
                        help="record the reference records and exit")
    args = parser.parse_args()

    root = Path.cwd()
    for needed in ("CMakeLists.txt", "src", "perfbench/CMakeLists.txt"):
        if not (root / needed).exists():
            fail(f"run from the repository root: {needed} is missing", 2)
    binary = build(root)
    scratch = build_dir() / "runs"
    scratch.mkdir(exist_ok=True)
    runner = Runner(binary, args.workload, scratch)
    if args.write_refs:
        write_references(runner, args.workload)
        return

    reference = load_reference(args.workload, args.sim_seed)
    if reference is None and args.sim_seed in (bench.DEFAULT_SIM_SEED,
                                               bench.HELD_OUT_SIM_SEED):
        fail(f"no reference records for {args.workload} at sim seed {args.sim_seed}")
    attempted, failed, first_failure = 0, 0, None

    def check(cells, ref):
        nonlocal attempted, failed, first_failure
        bad, first = bench.check_records(args.workload, cells, ref)
        attempted += len(cells)
        failed += bad
        first_failure = first_failure or first

    # Fresh inputs from --seed: unmeasured, checked by the invariants (and
    # by the reference records when the seed has them).
    # Every untraced spawn, this one included, gives a set-up sample.
    setups = []
    if args.seed != args.sim_seed:
        summary, cells, _ = runner.sweep(args.seed)
        check(cells, load_reference(args.workload, args.seed))
        setups.append(summary["setup_s"])

    run_id = f"{args.workload}-seed{args.seed}"
    trace_path = scratch / f"{run_id}.trace.json"
    untraced, traced = [], []
    cell_ms, sweep_cell_ms = [], []
    start = time.monotonic()
    while True:
        summary, cells, _ = runner.sweep(args.sim_seed)
        check(cells, reference)
        untraced.append(summary)
        setups.append(summary["setup_s"])
        sweep_cell_ms.append([(c["end_s"] - c["start_s"]) * 1e3 for c in cells])
        cell_ms += sweep_cell_ms[-1]
        if args.trace:
            summary, cells, spans = runner.sweep(
                args.sim_seed, trace_path, f"{run_id}-{len(traced)}")
            check(cells, reference)
            traced.append((summary, cells, spans))
        elapsed = time.monotonic() - start
        if elapsed >= args.seconds and (args.trace or (
                len(untraced) >= runner.workload.min_sweeps
                and bench.supported_percentile(cell_ms, 0.9) is not None)):
            break
        if elapsed > 3 * args.seconds + 60:
            fail("the cell sample is still too small for its p90")

    walls = [s["sweep_wall_s"] for s in untraced]
    notes = {}
    if args.trace:
        metrics = per_layer(traced, walls)
        _, _, spans = traced[-1]
        print(f"trace: {trace_path} ({len(spans)} spans, run id {run_id}-{len(traced) - 1})")
        print("hot cells (share of cell.busy_s):")
        for label, share in bench.hot_cells(spans):
            print(f"  {share:6.1%}  {label}")
        print("self time by span name (ms):")
        self_by_name = {}
        self_s = bench.self_times(spans)
        for span in spans:
            self_by_name[span["name"]] = (self_by_name.get(span["name"], 0.0)
                                          + self_s[span["id"]] * 1e3)
        for name, ms in sorted(self_by_name.items(), key=lambda kv: -kv[1]):
            print(f"  {ms:10.2f}  {name}")
    else:
        p90 = bench.supported_percentile(cell_ms, 0.9)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "cell_ms_p50": bench.median_of_sweep_medians(sweep_cell_ms),
            "cell_ms_p90": p90,
            "peak_rss_mib": statistics.median(s["peak_rss_mib"] for s in untraced),
        }
        notes = {"setup_s": f"median of {len(setups)} spawns",
                 "wall_s": f"median of {len(walls)} sweeps",
                 "cell_ms_p50": f"median over {len(walls)} sweeps of "
                                f"{len(cell_ms) // len(walls)} cell runs",
                 "cell_ms_p90": f"{len(cell_ms)} cell runs, "
                                f"{bench.percentile(cell_ms, 0.9)[1]} beyond",
                 "peak_rss_mib": f"median of {len(untraced)} sweeps"}

    provenance = {
        "workload": args.workload,
        "commit": commit(root),
        "source_sha256": source_digest(root),
        "compiler": untraced[0]["compiler"],
        "flags": untraced[0]["flags"],
        "nproc": os.cpu_count(),
        "threads": bench.THREADS,
        "sim_seed": args.sim_seed,
    }
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(f"workload {args.workload}: {attempted} cell runs checked, {failed} failed"
          + (f"; first: {first_failure}" if first_failure else ""))
    print_table(metrics, notes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": bench.UNITS[name]}
                    for name, value in metrics.items()},
    }
    if args.save:
        args.save.mkdir(parents=True, exist_ok=True)
        saved = dict(result, seed=args.seed, trace=args.trace,
                     provenance=provenance, walls=walls)
        (args.save / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps(saved, indent=1) + "\n")
    print(json.dumps(result))


def per_layer(traced, untraced_walls):
    """Per-layer metrics: exact counts from the first traced sweep (every
    sweep of the run has the same inputs), host times as the median over
    the traced sweeps."""
    samples = {}
    for summary, cells, spans in traced:
        layer = bench.timed_layers(spans, cells, summary["threads"])
        for span in spans:
            op = span["name"].removeprefix("probe.")
            if op in bench.PROBES:
                samples.setdefault(bench.PROBES[op], []).append(span["ns_per_op"])
        for name, value in layer.items():
            samples.setdefault(name, []).append(value)
    _, cells, spans = traced[0]
    root = next(s for s in spans if s["name"] == "workload")
    metrics = bench.count_layers(cells, root["sim_events"])
    metrics.update({name: statistics.median(v) for name, v in samples.items()})
    traced_walls = [s["sweep_wall_s"] for s, _, _ in traced]
    metrics["tracing.overhead_frac"] = (statistics.median(traced_walls)
                                        / statistics.median(untraced_walls) - 1)
    return {m["name"]: metrics[m["name"]] for m in bench.SPEC["per_layer"]}


if __name__ == "__main__":
    main()
