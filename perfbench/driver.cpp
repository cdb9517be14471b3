// findep-perfbench: the host-cost benchmark's sweep driver.
//
// Sweeps one registered scenario family (optionally narrowed by a name
// substring) through the runtime's own sweep (`runtime::SweepRunner`, a
// closed loop: a worker claims the next cell only when its previous one
// has finished), one run per cell; `--seed` is the sweep's base seed,
// exactly as for findep-bench. Every cell is wrapped so its host time is taken
// around `Scenario::run`, and every record is printed as one JSON line so
// the harness (`run.py`) can check it against the reference records and
// the workload invariants.
//
//   findep-perfbench --family campaign --seed 1 --threads 4
//   findep-perfbench --family bft_scaling --only " proto=" --threads 4
//   findep-perfbench --family campaign --trace spans.json --probes sign
//
// Output (stdout, one JSON object per line):
//   {"kind": "cell", ...}   one per cell: label, seed, host start and
//                           end, params and the metric record
//   {"kind": "sweep", ...}  sweep start on CLOCK_MONOTONIC (the harness
//                           subtracts its own spawn time to get set-up
//                           time), sweep wall, engine events executed
//
// With --trace FILE the driver also records spans at each boundary it
// crosses (workload root, runtime.expand, runtime.sweep, cell.run,
// runtime.codec, runtime.render, probe.*), keeps them in memory and
// writes them to FILE when the run ends. Spans inside the library are
// not recorded. Without --trace no span is kept.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/metrics.h"
#include "runtime/registry.h"
#include "runtime/sweep.h"
#include "runtime/task.h"
#include "sim/simulator.h"

namespace {

using findep::runtime::MetricRecord;
using findep::runtime::ParamGrid;
using findep::runtime::ParamSet;
using findep::runtime::RunContext;
using findep::runtime::RunRecord;
using findep::runtime::Scenario;

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock, which glibc reads from CLOCK_MONOTONIC —
/// the clock Python's time.monotonic() reads, so the harness can compare.
double monotonic_s(Clock::time_point t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

struct Options {
  std::string family;
  std::string only;
  std::uint64_t seed = 1;
  std::size_t threads = 1;
  std::string trace_path;  // empty = untraced
  std::string run_id = "run";
  std::vector<std::string> probes;  // micro-family ops, traced run only
};

// Runs of each probe per traced sweep; the harness takes their median.
constexpr std::size_t kProbeRepeats = 3;

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "error: " << message << "\n"
            << "usage: findep-perfbench --family F [--only SUB] [--seed S]"
               " [--threads T]"
               " [--trace FILE --run-id ID --probes OP,OP]"
               "\n";
  std::exit(2);
}

std::uint64_t parse_count(const std::string& flag, const std::string& text,
                          bool allow_zero) {
  std::size_t used = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    usage(flag + " needs a number, got '" + text + "'");
  }
  if (used != text.size() || text[0] == '-' || (!allow_zero && value == 0)) {
    usage(flag + " needs a positive number, got '" + text + "'");
  }
  return value;
}

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--family") {
      options.family = value;
    } else if (flag == "--only") {
      options.only = value;
    } else if (flag == "--seed") {
      options.seed = parse_count(flag, value, /*allow_zero=*/true);
    } else if (flag == "--threads") {
      options.threads = parse_count(flag, value, false);
    } else if (flag == "--trace") {
      options.trace_path = value;
    } else if (flag == "--run-id") {
      options.run_id = value;
    } else if (flag == "--probes") {
      options.probes = split_commas(value);
    } else {
      usage("unknown flag '" + flag + "'");
    }
  }
  if (options.family.empty()) usage("--family is required");
  return options;
}

/// In-memory span log. Spans are appended from worker threads, so the
/// log is guarded; recording is skipped entirely on an untraced run.
class SpanLog {
 public:
  struct Span {
    std::size_t id = 0;
    std::size_t parent = 0;  // 0 = none
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    std::string attrs_json;  // extra fields, already JSON-encoded
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span and returns its id (0 when tracing is off).
  std::size_t open(const std::string& name, std::size_t parent) {
    if (!enabled_) return 0;
    const double now = monotonic_s(Clock::now());
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{spans_.size() + 1, parent, name, now, now, ""});
    return spans_.size();
  }

  void close(std::size_t id, std::string attrs_json = "") {
    if (!enabled_ || id == 0) return;
    const double now = monotonic_s(Clock::now());
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end_s = now;
    spans_[id - 1].attrs_json = std::move(attrs_json);
  }

  /// Records a finished span whose times were taken elsewhere.
  void add(const std::string& name, std::size_t parent, double start_s,
           double end_s, std::string attrs_json) {
    if (!enabled_) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{spans_.size() + 1, parent, name, start_s, end_s,
                          std::move(attrs_json)});
  }

  void write(std::ostream& out, const std::string& run_id) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    out << "{\"run_id\": \"" << findep::runtime::json_escape(run_id)
        << "\", \"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"name\": \"" << findep::runtime::json_escape(s.name)
          << "\", \"start_s\": " << findep::runtime::format_exact(s.start_s)
          << ", \"end_s\": " << findep::runtime::format_exact(s.end_s)
          << ", \"run_id\": \"" << findep::runtime::json_escape(run_id)
          << "\"";
      if (!s.attrs_json.empty()) out << ", " << s.attrs_json;
      out << (i + 1 < spans_.size() ? "},\n" : "}\n");
    }
    out << "]}\n";
  }

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// One selected scenario instance with the grid point it was built from.
struct Cell {
  std::unique_ptr<Scenario> scenario;
  ParamSet params;
  std::size_t sequence = 0;
};

/// Host times of one cell run.
struct Timing {
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Decorates a cell so its host time is taken around Scenario::run. Each
/// cell runs exactly once, so its Timing has one writer and needs no
/// lock.
class TimedCell final : public Scenario {
 public:
  TimedCell(const Scenario& inner, Timing& timing)
      : inner_(inner), timing_(timing) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::string family() const override {
    return inner_.family();
  }
  [[nodiscard]] MetricRecord run(const RunContext& ctx) const override {
    timing_.start_s = monotonic_s(Clock::now());
    try {
      MetricRecord metrics = inner_.run(ctx);
      timing_.end_s = monotonic_s(Clock::now());
      return metrics;
    } catch (...) {
      timing_.end_s = monotonic_s(Clock::now());
      throw;
    }
  }

 private:
  const Scenario& inner_;
  Timing& timing_;
};

const findep::runtime::ScenarioFamily& require_family(
    const std::string& name) {
  const auto* family =
      findep::runtime::ScenarioRegistry::global().find(name);
  if (family == nullptr) usage("unknown family '" + name + "'");
  return *family;
}

/// Expands the family's default grids and keeps the instances whose
/// name contains `only`. The grid points are expanded alongside, in the
/// same order instantiate_family walks them, so each cell keeps its
/// parameters for the task wire format.
std::vector<Cell> expand_cells(const findep::runtime::ScenarioFamily& family,
                               const std::string& only) {
  std::vector<ParamSet> points;
  for (const ParamGrid& grid : family.grids) {
    for (ParamSet& point : grid.expand()) points.push_back(std::move(point));
  }
  if (family.grids.empty()) points.emplace_back();
  auto scenarios = findep::runtime::instantiate_family(family, family.grids);
  if (scenarios.size() != points.size()) {
    throw std::logic_error("grid expansion and instantiation disagree");
  }
  std::vector<Cell> cells;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (scenarios[i]->name().find(only) == std::string::npos) continue;
    cells.push_back(Cell{std::move(scenarios[i]), std::move(points[i]), i});
  }
  return cells;
}

std::string cell_attrs(const std::string& label, std::uint64_t seed) {
  return "\"cell\": \"" + findep::runtime::json_escape(label) +
         "\", \"seed\": " + std::to_string(seed);
}

/// The task wire format and the shard merge, driven over the sweep's
/// own cells and records: what a distributed run of this workload would
/// encode, decode and merge. A record that does not survive the round
/// trip is a failure, not just a cost.
void run_codec(const Options& options, const std::vector<Cell>& cells,
               const std::vector<RunRecord>& records,
               const std::string& shard_path) {
  std::ofstream shard(shard_path);
  if (!shard) throw std::runtime_error("cannot write " + shard_path);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    findep::runtime::TaskSpec spec{.family = options.family,
                                   .params = cell.params,
                                   .base_seed = options.seed,
                                   .run_index = records[c].run_index,
                                   .sequence = cell.sequence};
    const std::string spec_line = findep::runtime::to_json(spec);
    const auto spec_back = findep::runtime::task_spec_from_json(spec_line);
    findep::runtime::TaskResult result{.family = options.family,
                                       .scenario = cell.scenario->name(),
                                       .sequence = cell.sequence,
                                       .record = records[c]};
    const std::string line = findep::runtime::to_json(result);
    const auto result_back = findep::runtime::task_result_from_json(line);
    if (findep::runtime::to_json(spec_back) != spec_line ||
        !(result_back.record.metrics == result.record.metrics) ||
        result_back.record.seed != result.record.seed) {
      throw std::runtime_error("task codec round trip changed " +
                               result.scenario);
    }
    shard << line << '\n';
  }
  shard.close();
  std::ostringstream merged;
  std::ostringstream merge_err;
  if (findep::runtime::merge_shards({shard_path}, false, true, merged,
                                    merge_err) != 0) {
    throw std::runtime_error("merge_shards failed: " + merge_err.str());
  }
  std::remove(shard_path.c_str());
}

void run_render(const std::vector<Cell>& cells,
                const std::vector<RunRecord>& records) {
  findep::runtime::MetricsSink sink;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    sink.add(cells[c].scenario->name(), cells[c].scenario->family(),
             {records[c]});
  }
  std::ostringstream out;
  sink.print_tables(out);
  sink.print_json(out);
}

/// Unit-cost probes through the registered `micro` family: one instance
/// per requested op, each run kProbeRepeats times on this thread alone.
void run_probes(const Options& options, SpanLog& spans, std::size_t parent) {
  const auto& micro = require_family("micro");
  std::vector<ParamGrid> grids = micro.grids;
  bool applied = false;
  for (ParamGrid& grid : grids) {
    applied = grid.override_axis("op", options.probes) || applied;
  }
  if (!applied) throw std::runtime_error("micro family has no op axis");
  const auto probes = findep::runtime::instantiate_family(micro, grids);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    for (std::size_t r = 0; r < kProbeRepeats; ++r) {
      const std::size_t id = spans.open("probe." + options.probes[i], parent);
      const MetricRecord m =
          probes[i]->run(RunContext{options.seed + r, r});
      spans.close(id, "\"ns_per_op\": " +
                          findep::runtime::format_exact(m.get("ns_per_op")));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  SpanLog spans(!options.trace_path.empty());
  const std::size_t root = spans.open("workload", 0);

  const auto& family = require_family(options.family);
  const std::size_t expand_id = spans.open("runtime.expand", root);
  std::vector<Cell> cells;
  try {
    cells = expand_cells(family, options.only);
  } catch (const std::exception& e) {
    std::cerr << "error: expanding family '" << options.family
              << "': " << e.what() << '\n';
    return 2;
  }
  spans.close(expand_id);
  if (cells.empty()) usage("no cell of '" + options.family + "' matches");

  std::vector<Timing> timings(cells.size());
  std::vector<std::unique_ptr<TimedCell>> timed;
  std::vector<const Scenario*> sweep_cells;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    timed.push_back(
        std::make_unique<TimedCell>(*cells[c].scenario, timings[c]));
    sweep_cells.push_back(timed.back().get());
  }
  const findep::runtime::SweepRunner runner(
      {.base_seed = options.seed, .num_seeds = 1, .threads = options.threads});

  const auto sweep_start = Clock::now();
  const std::uint64_t events_before =
      findep::sim::process_events_executed();
  const std::size_t sweep_id = spans.open("runtime.sweep", root);
  const std::vector<std::vector<RunRecord>> by_cell =
      runner.run_all(sweep_cells);
  spans.close(sweep_id);
  const auto sweep_end = Clock::now();
  const std::uint64_t events =
      findep::sim::process_events_executed() - events_before;
  std::vector<RunRecord> records;
  for (const auto& cell_records : by_cell) records.push_back(cell_records.at(0));

  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    const RunRecord& record = records[c];
    const Timing& timing = timings[c];
    spans.add("cell.run", sweep_id, timing.start_s, timing.end_s,
              cell_attrs(cell.scenario->name(), record.seed));
    std::cout << "{\"kind\": \"cell\", \"cell\": \""
              << findep::runtime::json_escape(cell.scenario->name())
              << "\", \"seed\": " << record.seed
              << ", \"run_index\": " << record.run_index
              << ", \"start_s\": " << findep::runtime::format_exact(timing.start_s)
              << ", \"end_s\": " << findep::runtime::format_exact(timing.end_s)
              << ", \"params\": " << findep::runtime::to_json(cell.params)
              << ", \"metrics\": " << findep::runtime::to_json(record.metrics);
    if (!record.ok()) {
      std::cout << ", \"error\": \""
                << findep::runtime::json_escape(record.error) << "\"";
    }
    std::cout << "}\n";
  }

  int code = 0;
  if (spans.enabled()) {
    try {
      const std::size_t codec_id = spans.open("runtime.codec", root);
      run_codec(options, cells, records, options.trace_path + ".shard");
      spans.close(codec_id);
      const std::size_t render_id = spans.open("runtime.render", root);
      run_render(cells, records);
      spans.close(render_id);
      if (!options.probes.empty()) run_probes(options, spans, root);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << '\n';
      code = 1;
    }
    spans.close(root, "\"sim_events\": " + std::to_string(events));
    std::ofstream trace(options.trace_path);
    spans.write(trace, options.run_id);
    if (!trace) {
      std::cerr << "error: cannot write " << options.trace_path << '\n';
      code = 1;
    }
  }

  std::cout << "{\"kind\": \"sweep\", \"sweep_start\": "
            << findep::runtime::format_exact(monotonic_s(sweep_start))
            << ", \"sweep_wall_s\": "
            << findep::runtime::format_exact(
                   std::chrono::duration<double>(sweep_end - sweep_start)
                       .count())
            << ", \"threads\": " << std::min(options.threads, cells.size())
            << ", \"cells\": " << cells.size()
            << ", \"sim_events\": " << events << ", \"compiler\": \""
            << findep::runtime::json_escape(PERFBENCH_COMPILER)
            << "\", \"flags\": \""
            << findep::runtime::json_escape(PERFBENCH_FLAGS) << "\"}\n";
  return code;
}
