#pragma once

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "exact/brandes.h"
#include "graph/csr_graph.h"
#include "util/table.h"
#include "util/thread_pool.h"

// Build facts the bench targets are compiled with (CMakeLists.txt); other
// includers, such as the self-contained-header check, get placeholders.
#ifndef MHBC_BENCH_COMPILER
#define MHBC_BENCH_COMPILER "unknown"
#endif
#ifndef MHBC_BENCH_BUILD_TYPE
#define MHBC_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef MHBC_BENCH_FLAGS
#define MHBC_BENCH_FLAGS "unknown"
#endif

/// \file
/// Shared helpers for the experiment harnesses (bench_e*). Each harness
/// regenerates one table/figure of the reconstructed evaluation suite,
/// described in its file header, and prints a markdown table (plus its
/// BENCH_<id>.json twin) from fixed seeds, so every row can be reproduced
/// by re-running the binary.

namespace mhbc::bench {

/// Target-vertex roles the experiments sweep over.
struct TargetSet {
  VertexId hub;         // maximum degree
  VertexId median;      // median degree
  VertexId peripheral;  // minimum degree (ties: lowest id)
};

/// Picks hub/median/peripheral targets by degree.
inline TargetSet PickTargets(const CsrGraph& graph) {
  std::vector<VertexId> order(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(), [&graph](VertexId a, VertexId b) {
    return graph.degree(a) < graph.degree(b);
  });
  TargetSet t;
  t.peripheral = order.front();
  t.median = order[order.size() / 2];
  t.hub = order.back();
  return t;
}

/// Prints a titled markdown table to stdout.
inline void PrintTable(const std::string& title, const Table& table) {
  std::printf("\n### %s\n\n%s\n", title.c_str(), table.ToMarkdown().c_str());
}

/// Standard experiment banner.
inline void Banner(const char* id, const char* what) {
  std::printf("== %s: %s ==\n", id, what);
}

/// Machine-readable twin of the markdown output: collects the tables (and
/// free-form metadata) a harness prints and writes them as
/// `BENCH_<id>.json` next to the markdown, i.e. into the working
/// directory, so the perf trajectory is diffable/trackable across PRs
/// without scraping stdout. Every report opens its metadata with the host
/// it ran on — hardware threads, compiler, build type and flags — since a
/// timing row only compares with rows from the same host and build.
class JsonReport {
 public:
  explicit JsonReport(std::string bench_id) : bench_id_(std::move(bench_id)) {
    AddMeta("host_nproc", std::to_string(ResolveThreadCount(0)));
    AddMeta("compiler", MHBC_BENCH_COMPILER);
    AddMeta("build_type", MHBC_BENCH_BUILD_TYPE);
    AddMeta("cxx_flags", MHBC_BENCH_FLAGS);
  }

  /// Records a context key/value pair (graph size, seed, host threads...).
  void AddMeta(const std::string& key, const std::string& value) {
    meta_.emplace_back(key, value);
  }

  void AddTable(const std::string& title, const Table& table) {
    tables_.emplace_back(title, table.ToJson());
  }

  /// Writes BENCH_<id>.json into the working directory and returns the
  /// file name (empty on I/O failure, with a note on stderr — a bench run
  /// must never die on a read-only directory).
  std::string Write() const {
    const std::string path = "BENCH_" + bench_id_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "note: could not write %s\n", path.c_str());
      return "";
    }
    out << "{\"bench\": \"" << EscapeJson(bench_id_) << "\", \"meta\": {";
    for (std::size_t i = 0; i < meta_.size(); ++i) {
      if (i > 0) out << ", ";
      out << "\"" << EscapeJson(meta_[i].first) << "\": \""
          << EscapeJson(meta_[i].second) << "\"";
    }
    out << "}, \"tables\": [";
    for (std::size_t i = 0; i < tables_.size(); ++i) {
      if (i > 0) out << ", ";
      out << "{\"title\": \"" << EscapeJson(tables_[i].first)
          << "\", \"table\": " << tables_[i].second << "}";
    }
    out << "]}\n";
    return path;
  }

 private:
  std::string bench_id_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::pair<std::string, std::string>> tables_;  // title, json
};

/// Prints the table to stdout AND records it in the JSON report — the
/// one-call emission shape harnesses should prefer over bare PrintTable.
inline void EmitTable(JsonReport* report, const std::string& title,
                      const Table& table) {
  PrintTable(title, table);
  if (report != nullptr) report->AddTable(title, table);
}

}  // namespace mhbc::bench
