"""The findep host-cost benchmark's logic, kept apart from the process
handling in run.py so it can be tested on synthetic input
(test_bench.py): the workload table, the statistics, the correctness
checks, the per-layer metrics read from a traced sweep, and the compare
rule.

Metric names and units come from BENCHMARK.json at the repository root,
the one place they are declared.
"""

import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# Simulated base seeds with stored reference records: the catalog's
# default (findep-bench --seed 1) and one held out for checking a claim on
# a seed the change was not written against.
DEFAULT_SIM_SEED = 1
HELD_OUT_SIM_SEED = 2

# Nearest-rank percentiles are reported only with this many samples
# strictly beyond them.
MIN_TAIL = 10

# Unit-cost probes: op of the registered `micro` family -> metric name.
PROBES = {
    "sign": "crypto.sign_ns",
    "verify": "crypto.verify_ns",
    "batch_verify_32": "crypto.batch_verify_32_ns",
    "sha256_4k": "crypto.sha256_4k_ns",
    "sim_schedule_pop": "sim.schedule_pop_ns",
    "sim_timer_churn": "sim.timer_churn_ns",
    "sim_broadcast_100": "net.broadcast_100_ns",
}

# Sweep worker threads, one per core of the 4-core host the baseline was
# taken on; recorded in every result's provenance.
THREADS = 4

# Requests each campaign cell offers (CampaignCellScenario::Params
# requests, not a grid axis, so it does not travel with the cell's
# params).
CAMPAIGN_OFFERED_REQUESTS = 21


@dataclass(frozen=True)
class Workload:
    family: str
    only: str
    # Fewest sweeps in a run. campaign's p90 falls in the tail of its 51
    # light cells, just below the 5 collude cells, and needs this many
    # repeats of that tail to hold still from run to run.
    min_sweeps: int = 1


# The workloads run.py accepts. BENCHMARK.json lists only those whose
# end-to-end spreads went past their bounds in at most one proof pass in
# four; campaign did in two of four (host slow phases move its 14 ms
# light cells most), so it is run by hand for its fault-path layers and
# hot spots.
WORKLOADS = {
    "bft_fanout": Workload("bft_scaling", " proto="),
    "bft_stream": Workload("bft_scaling", " modeled"),
    "campaign": Workload("campaign", "", min_sweeps=8),
}


# --- statistics --------------------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile of `values` and the number of samples
    strictly beyond its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def supported_percentile(values, q):
    """The percentile when at least MIN_TAIL samples lie beyond it, else
    None."""
    value, beyond = percentile(values, q)
    return value if beyond >= MIN_TAIL else None


def median_of_sweep_medians(sweeps):
    """The median over sweeps of each sweep's median cell time. Every
    sweep runs the same cell list, so each sweep's median is the same
    order statistic of the same cells. The median of all sweeps' cell
    times pooled is not: when the list has a gap at its middle
    (bft_fanout: n=10 cells below 60 ms, n=25 cells above 160 ms) it is
    the slowest run below the gap and the fastest above it, extremes
    that move with the number of sweeps."""
    return statistics.median(statistics.median(s) for s in sweeps)


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# --- spans -------------------------------------------------------------------

def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans):
    """Span id -> duration minus the part of it its children cover."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(
            (span["start_s"], span["end_s"]))
    return {
        s["id"]: (s["end_s"] - s["start_s"])
        - covered(children.get(s["id"], []), s["start_s"], s["end_s"])
        for s in spans
    }


# --- correctness -------------------------------------------------------------

def cell_key(record):
    return f'{record["cell"]}#{record["run_index"]}'


def invariant_failure(workload, record):
    """The first metric of `record` that breaks the workload's invariant,
    as (metric, message), or None. The invariants hold at any seed."""
    m = record["metrics"]
    if workload == "bft_fanout":
        for name, want in (("completed", 1), ("max_view_changes", 0)):
            if m.get(name) != want:
                return name, f"{name}={m.get(name)}, want {want}"
    elif workload == "bft_stream":
        if m.get("committed_requests") != 2048:
            return ("committed_requests",
                    f'committed_requests={m.get("committed_requests")}, '
                    "want 2048")
    elif workload == "campaign":
        if "target=lazarus" in record["cell"] and m.get("safety_violated"):
            return "safety_violated", "a lazarus fleet violated safety"
    return None


def reference_failure(reference, record):
    """The first metric where `record` differs from its reference record,
    as (metric, message), or None. `reference` maps cell keys to metric
    dicts."""
    want = reference.get(cell_key(record))
    if want is None:
        return "-", "no reference record"
    got = record["metrics"]
    for name in list(want) + [n for n in got if n not in want]:
        if got.get(name) != want.get(name):
            return name, f"{got.get(name)!r}, reference {want.get(name)!r}"
    return None


def check_records(workload, records, reference):
    """Checks every cell record; returns (failed count, first failure
    text or None). A cell fails when it threw, breaks the workload
    invariant, or differs from its reference record (when `reference` is
    not None)."""
    failed, first = 0, None
    for record in records:
        if "error" in record:
            failure = ("-", "threw: " + record["error"])
        else:
            failure = invariant_failure(workload, record)
            if failure is None and reference is not None:
                failure = reference_failure(reference, record)
        if failure is not None:
            failed += 1
            if first is None:
                first = (f'{record["cell"]} seed {record["seed"]}: '
                         f"{failure[0]}: {failure[1]}")
    return failed, first


# --- per-layer metrics --------------------------------------------------------

def _sum(records, metric):
    return sum(r["metrics"].get(metric, 0) for r in records)


def _ratio(num, den):
    return num / den if den else 0.0


def committed_and_offered(record):
    """(committed, offered) requests of a BFT cell record, or None for a
    cell that orders no requests."""
    m = record["metrics"]
    if record["cell"].startswith("campaign/"):
        return m["committed_requests"], CAMPAIGN_OFFERED_REQUESTS
    if not record["cell"].startswith("bft_scaling/"):
        return None
    offered = next(int(p["value"]) for p in record["params"]
                   if p["name"] == "requests")
    if "committed_requests" in m:
        return m["committed_requests"], offered
    # crypto=free cells do not emit the count; completed=1 means every
    # offered request executed.
    return (offered if m["completed"] == 1 else None), offered


def bft_messages(record):
    """Protocol messages a bft_scaling cell sent (exact: the record's
    msgs_per_committed_request is messages_sent / committed)."""
    counts = committed_and_offered(record)
    m = record["metrics"]
    if counts is None or not counts[0] or "msgs_per_committed_request" not in m:
        return 0
    return round(m["msgs_per_committed_request"] * counts[0])


def count_layers(records, sim_events):
    """The exact per-layer counts of one sweep, read from its records."""
    bft = [r for r in records if committed_and_offered(r) is not None]
    committed = sum(committed_and_offered(r)[0] or 0 for r in bft)
    offered = sum(committed_and_offered(r)[1] for r in bft)
    messages = sum(bft_messages(r) for r in bft)
    kib = sum(r["metrics"].get("kib_per_request", 0)
              * committed_and_offered(r)[1] for r in bft)
    verify_tasks = _sum(records, "verify_tasks")
    return {
        "bft.msgs_per_committed_request": _ratio(messages, committed),
        "bft.kib_per_request": _ratio(kib, offered),
        "bft.view_changes": _sum(bft, "max_view_changes"),
        "bft.state_transfers": _sum(bft, "state_transfers"),
        "bft.commit_ratio": _ratio(committed, offered),
        "sim.events": sim_events,
        "sim.events_per_committed_request": _ratio(sim_events, committed),
        "pool.verify_tasks": verify_tasks,
        "pool.stale_ratio": _ratio(_sum(records, "verify_dropped_stale"),
                                   verify_tasks),
    }


def timed_layers(spans, records, threads):
    """Host-time per-layer metrics of one traced sweep on `threads`
    workers. `records` are the sweep's cell records; cell.run spans are
    matched to them by (cell, seed)."""
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    dur = lambda s: s["end_s"] - s["start_s"]  # noqa: E731
    cells = {(s["cell"], s["seed"]): dur(s) for s in by_name["cell.run"]}
    sweep = by_name["runtime.sweep"][0]
    busy = sum(cells.values())
    slowest = sorted(cells.values(), reverse=True)
    per_record = [(r, cells[(r["cell"], r["seed"])]) for r in records]
    msg_time = sum(t for r, t in per_record if bft_messages(r))
    vc_time = sum(t for r, t in per_record
                  if r["metrics"].get("max_view_changes", 0) > 0)
    return {
        "runtime.expand_ms": dur(by_name["runtime.expand"][0]) * 1e3,
        "runtime.busy_frac": busy / (threads * dur(sweep)),
        "runtime.codec_ms": dur(by_name["runtime.codec"][0]) * 1e3,
        "runtime.render_ms": dur(by_name["runtime.render"][0]) * 1e3,
        "cell.busy_s": busy,
        "cell.ms_max": slowest[0] * 1e3,
        "cell.top5_share": sum(slowest[:5]) / busy,
        "bft.host_us_per_msg": _ratio(
            msg_time * 1e6, sum(bft_messages(r) for r in records)),
        "bft.host_ms_per_view_change": _ratio(
            vc_time * 1e3, _sum(records, "max_view_changes")),
        "sim.events_per_busy_s": by_name["workload"][0]["sim_events"] / busy,
    }


def hot_cells(spans, top=5):
    """Cell labels by share of the sweep's cell busy time, largest first."""
    share = {}
    for span in spans:
        if span["name"] == "cell.run":
            share[span["cell"]] = (share.get(span["cell"], 0.0)
                                   + span["end_s"] - span["start_s"])
    busy = sum(share.values())
    ranked = sorted(share.items(), key=lambda kv: -kv[1])[:top]
    return [(label, t / busy) for label, t in ranked]


# --- compare -------------------------------------------------------------------

# Provenance fields two result sets must share to be compared; the commit
# and the source digest are what a comparison is about.
PAIRED_PROVENANCE = ("compiler", "flags", "nproc", "threads", "sim_seed",
                     "workload")


def provenance_mismatch(a, b):
    """The first provenance field other than the commit on which two
    results differ, or None."""
    for key in PAIRED_PROVENANCE:
        if a.get(key) != b.get(key):
            return key
    return None


def verdict(parent, change, bound, better):
    """Verdict on one metric from paired runs (parent[i] pairs with
    change[i]): improved, unchanged, worse or unresolved, plus the share
    of pairs the change won (ties count for neither side).

    Improved needs at least 9/10 of the pairs won and a median gap larger
    than the parent's interquartile distance. Worse is a median worse by
    more than `bound` (a share of the parent median). Where the parent's
    own spread is wider than the bound, a metric that is not improved is
    unresolved unless every change run beats every parent run."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    won = wins / len(parent)
    p_med = statistics.median(parent)
    gap = sign * (p_med - statistics.median(change))  # > 0: change better
    q1, _, q3 = quartiles(parent)
    if won >= 0.9 and gap > q3 - q1:
        return "improved", won
    if (q3 - q1) / p_med > bound:
        worst_change = max(sign * c for c in change)
        best_parent = min(sign * p for p in parent)
        if worst_change >= best_parent:
            return "unresolved", won
    if -gap / p_med > bound:
        return "worse", won
    return "unchanged", won
