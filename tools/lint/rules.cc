#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint.h"

/// \file
/// Rule matchers. Every matcher walks the token stream produced by
/// tokenizer.cc; none of them parse C++ properly, and none of them need to:
/// each rule targets a lexical pattern a disciplined reviewer would grep
/// for, with NOLINT + config allowlists as the escape hatches for the
/// (rare, intentional) legitimate uses.

namespace mhbc::lint {

const char* SeverityName(Severity severity) {
  return severity == Severity::kError ? "error" : "warning";
}

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo>* rules = new std::vector<RuleInfo>{
      {"mhbc-banned-nondeterminism", Severity::kError,
       "ambient entropy: libc rand/srand, std:: RNG engines and "
       "distributions, wall-clock reads outside util/timer, or Rng "
       "construction outside seed-plumbed entry points",
       "derive randomness from an explicitly seeded mhbc::Rng (fork child "
       "streams with Rng::Fork); read time only through util/timer.h"},
      {"mhbc-unordered-accumulation", Severity::kError,
       "floating-point accumulation in unordered-container iteration order "
       "(result depends on hash layout, breaking bit-determinism)",
       "copy keys out, sort them, and fold in sorted order — see the "
       "shard-order merge in BrandesBetweenness"},
      {"mhbc-raw-concurrency", Severity::kError,
       "raw std::thread/async/mutex/atomic (or pthread/OpenMP) outside "
       "util/thread_pool",
       "run parallel work through mhbc::ThreadPool (ParallelFor / "
       "ParallelOrderedReduce keep folds in a deterministic order)"},
      {"mhbc-layering", Severity::kError,
       "#include against the documented layer order (util -> graph -> "
       "sp -> exact -> baselines/core -> centrality), or an include cycle",
       "move shared code down a layer (util takes pure helpers) or invert "
       "the dependency"},
      {"mhbc-header-guard", Severity::kError,
       "header does not open with #pragma once",
       "add `#pragma once` as the first directive of the header"},
      {"mhbc-exit-paths", Severity::kError,
       "exit()/abort()-family call outside main() (libraries report "
       "failures as Status, tools map them to exit codes in main)",
       "return a Status (or an exit code up to main) instead of "
       "terminating the process mid-stack"},
  };
  return *rules;
}

namespace {

using Tokens = std::vector<Token>;

bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

/// Shared emit helper: applies the config allowlist and NOLINT suppression.
class Reporter {
 public:
  Reporter(const SourceFile& file, const Config& config,
           std::vector<Finding>* findings)
      : file_(file), config_(config), findings_(findings) {}

  void Emit(const std::string& rule, const std::string& subcheck, int line,
            std::string message, std::string fixit = "") {
    if (config_.Allows(rule, subcheck, file_.path)) return;
    if (IsSuppressed(file_, rule, line)) return;
    Severity severity = Severity::kError;
    if (fixit.empty()) {
      for (const RuleInfo& info : Rules()) {
        if (info.id == rule) {
          fixit = info.fixit;
          severity = info.severity;
        }
      }
    }
    findings_->push_back(
        {rule, severity, file_.path, line, std::move(message), std::move(fixit)});
  }

 private:
  const SourceFile& file_;
  const Config& config_;
  std::vector<Finding>* findings_;
};

// ---------------------------------------------------------------------------
// mhbc-banned-nondeterminism
// ---------------------------------------------------------------------------

void CheckBannedNondeterminism(const SourceFile& file, Reporter* report) {
  static const std::set<std::string>* libc_rand = new std::set<std::string>{
      "rand", "srand", "rand_r", "drand48", "erand48", "lrand48", "mrand48",
      "random_shuffle"};
  static const std::set<std::string>* std_rng = new std::set<std::string>{
      "random_device", "mt19937", "mt19937_64", "default_random_engine",
      "minstd_rand", "minstd_rand0", "ranlux24", "ranlux48", "ranlux24_base",
      "ranlux48_base", "knuth_b", "mersenne_twister_engine",
      "linear_congruential_engine", "subtract_with_carry_engine",
      "uniform_int_distribution", "uniform_real_distribution",
      "normal_distribution", "bernoulli_distribution", "poisson_distribution",
      "exponential_distribution", "geometric_distribution",
      "discrete_distribution", "piecewise_constant_distribution"};
  static const std::set<std::string>* wall_clock = new std::set<std::string>{
      "system_clock", "high_resolution_clock", "steady_clock", "gettimeofday",
      "localtime", "gmtime", "ctime", "asctime", "strftime", "mktime",
      "timespec_get"};

  const Tokens& toks = file.stream.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    const bool member_access =
        i > 0 && (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->"));
    if (member_access) continue;
    const bool called = i + 1 < toks.size() && IsPunct(toks[i + 1], "(");

    if (libc_rand->count(t.text) != 0 && (called || t.text == "random_shuffle")) {
      report->Emit("mhbc-banned-nondeterminism", "libc-rand", t.line,
                   "call of '" + t.text +
                       "' (process-global, unseeded entropy source)");
      continue;
    }
    if (std_rng->count(t.text) != 0) {
      report->Emit(
          "mhbc-banned-nondeterminism", "std-rng", t.line,
          "use of 'std::" + t.text +
              "' (std:: engines/distributions have unspecified streams; "
              "mhbc::Rng pins the exact bit stream)");
      continue;
    }
    if (wall_clock->count(t.text) != 0) {
      report->Emit("mhbc-banned-nondeterminism", "wall-clock", t.line,
                   "wall-clock read via '" + t.text +
                       "' outside util/timer");
      continue;
    }
    if ((t.text == "time" || t.text == "clock") && called) {
      report->Emit("mhbc-banned-nondeterminism", "wall-clock", t.line,
                   "wall-clock read via '" + t.text + "()' outside util/timer");
      continue;
    }
    if (t.text == "Rng") {
      // Construction heuristics: `Rng name(...)`, `Rng name{...}`,
      // `Rng(...)` temporaries, `Rng name = ...`. Type mentions
      // (`Rng*`, `Rng&`, `const Rng`, `Rng::`, template args) pass.
      if (i > 0 && (IsIdent(toks[i - 1], "class") ||
                    IsIdent(toks[i - 1], "struct") ||
                    IsIdent(toks[i - 1], "friend"))) {
        continue;
      }
      if (i + 1 >= toks.size()) continue;
      const Token& next = toks[i + 1];
      const bool temp_ctor = IsPunct(next, "(") || IsPunct(next, "{");
      const bool named_decl =
          next.kind == TokenKind::kIdentifier && i + 2 < toks.size() &&
          (IsPunct(toks[i + 2], "(") || IsPunct(toks[i + 2], "{") ||
           IsPunct(toks[i + 2], "="));
      if (temp_ctor || named_decl) {
        report->Emit("mhbc-banned-nondeterminism", "rng-construction", t.line,
                     "Rng constructed outside a seed-plumbed entry point "
                     "(seeds must flow in from the caller)",
                     "take a std::uint64_t seed (or an Rng \"parent\" and "
                     "Fork a child stream) instead of creating a generator "
                     "here");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// mhbc-unordered-accumulation
// ---------------------------------------------------------------------------

/// Names declared in this file with an unordered container type (tracks
/// `std::unordered_map<K, V> name` through the template argument list).
std::set<std::string> TaintedUnorderedNames(const Tokens& toks) {
  std::set<std::string> tainted;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdentifier ||
        toks[i].text.rfind("unordered_", 0) != 0) {
      continue;
    }
    std::size_t j = i + 1;
    if (j < toks.size() && IsPunct(toks[j], "<")) {
      int depth = 0;
      for (; j < toks.size(); ++j) {
        if (IsPunct(toks[j], "<")) ++depth;
        if (IsPunct(toks[j], ">")) --depth;
        if (IsPunct(toks[j], ">>")) depth -= 2;
        if (depth <= 0) {
          ++j;
          break;
        }
      }
    }
    while (j < toks.size() &&
           (IsPunct(toks[j], "*") || IsPunct(toks[j], "&"))) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == TokenKind::kIdentifier) {
      tainted.insert(toks[j].text);
    }
  }
  return tainted;
}

std::size_t MatchForward(const Tokens& toks, std::size_t open,
                         const char* open_text, const char* close_text) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (IsPunct(toks[i], open_text)) ++depth;
    if (IsPunct(toks[i], close_text)) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return toks.size();
}

void CheckUnorderedAccumulation(const SourceFile& file, Reporter* report) {
  const Tokens& toks = file.stream.tokens;
  const std::set<std::string> tainted = TaintedUnorderedNames(toks);

  const auto mentions_unordered = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (toks[i].kind != TokenKind::kIdentifier) continue;
      if (toks[i].text.rfind("unordered_", 0) == 0 ||
          tainted.count(toks[i].text) != 0) {
        return true;
      }
    }
    return false;
  };

  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    // Range-for over an unordered container: flag order-sensitive folds in
    // the body.
    if (IsIdent(toks[i], "for") && IsPunct(toks[i + 1], "(")) {
      const std::size_t close = MatchForward(toks, i + 1, "(", ")");
      if (close == toks.size()) continue;
      // The range-for ':' sits at paren depth 1 (the `::` token is distinct,
      // so a lone ':' is unambiguous).
      std::size_t colon = toks.size();
      int depth = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (IsPunct(toks[j], "(")) ++depth;
        if (IsPunct(toks[j], ")")) --depth;
        if (depth == 1 && IsPunct(toks[j], ":")) {
          colon = j;
          break;
        }
      }
      if (colon == toks.size()) continue;
      if (!mentions_unordered(colon + 1, close)) continue;
      // Body: braced block or single statement.
      std::size_t body_begin = close + 1, body_end;
      if (body_begin < toks.size() && IsPunct(toks[body_begin], "{")) {
        body_end = MatchForward(toks, body_begin, "{", "}");
      } else {
        body_end = body_begin;
        while (body_end < toks.size() && !IsPunct(toks[body_end], ";")) {
          ++body_end;
        }
      }
      for (std::size_t j = body_begin; j < body_end && j < toks.size(); ++j) {
        const bool compound_assign =
            toks[j].kind == TokenKind::kPunct &&
            (toks[j].text == "+=" || toks[j].text == "-=" ||
             toks[j].text == "*=" || toks[j].text == "/=");
        const bool fold_call =
            toks[j].kind == TokenKind::kIdentifier &&
            (toks[j].text == "fma" || toks[j].text == "accumulate" ||
             toks[j].text == "reduce" || toks[j].text == "inner_product" ||
             toks[j].text == "transform_reduce");
        if (compound_assign || fold_call) {
          report->Emit("mhbc-unordered-accumulation", "", toks[j].line,
                       "'" + toks[j].text +
                           "' inside iteration over an unordered container "
                           "(fold order follows the hash layout)");
        }
      }
    }
    // Direct folds handed an unordered range:
    // std::accumulate(m.begin(), ...).
    if (toks[i].kind == TokenKind::kIdentifier &&
        (toks[i].text == "accumulate" || toks[i].text == "reduce" ||
         toks[i].text == "transform_reduce" ||
         toks[i].text == "inner_product") &&
        IsPunct(toks[i + 1], "(")) {
      const std::size_t close = MatchForward(toks, i + 1, "(", ")");
      if (close != toks.size() && mentions_unordered(i + 2, close)) {
        report->Emit("mhbc-unordered-accumulation", "", toks[i].line,
                     "'" + toks[i].text +
                         "' over an unordered container range (fold order "
                         "follows the hash layout)");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// mhbc-raw-concurrency
// ---------------------------------------------------------------------------

void CheckRawConcurrency(const SourceFile& file, Reporter* report) {
  static const std::set<std::string>* std_types = new std::set<std::string>{
      "jthread", "async", "mutex", "timed_mutex", "recursive_mutex",
      "recursive_timed_mutex", "shared_mutex", "shared_timed_mutex",
      "condition_variable", "condition_variable_any", "future",
      "shared_future", "promise", "packaged_task", "counting_semaphore",
      "binary_semaphore", "barrier", "latch", "lock_guard", "unique_lock",
      "scoped_lock", "shared_lock", "call_once", "once_flag", "stop_token",
      "stop_source", "this_thread"};

  const Tokens& toks = file.stream.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;

    // std::<something concurrent>
    if (t.text == "std" && i + 2 < toks.size() && IsPunct(toks[i + 1], "::") &&
        toks[i + 2].kind == TokenKind::kIdentifier) {
      const Token& sym = toks[i + 2];
      const bool is_thread_type =
          sym.text == "thread" &&
          // std::thread::hardware_concurrency() is a pure query, not
          // thread creation; a trailing :: marks that form.
          !(i + 3 < toks.size() && IsPunct(toks[i + 3], "::"));
      if (is_thread_type || std_types->count(sym.text) != 0 ||
          sym.text.rfind("atomic", 0) == 0) {
        report->Emit("mhbc-raw-concurrency", "", sym.line,
                     "raw 'std::" + sym.text +
                         "' outside util/thread_pool (unmanaged concurrency "
                         "cannot keep fold order deterministic)");
      }
      continue;
    }
    if (t.text == "thread_local") {
      report->Emit("mhbc-raw-concurrency", "", t.line,
                   "'thread_local' state outside util/thread_pool");
      continue;
    }
    if (t.text.rfind("pthread_", 0) == 0) {
      report->Emit("mhbc-raw-concurrency", "", t.line,
                   "raw pthreads call '" + t.text + "'");
      continue;
    }
    if (t.text == "omp" && i > 0 && IsIdent(toks[i - 1], "pragma")) {
      report->Emit("mhbc-raw-concurrency", "", t.line,
                   "OpenMP pragma (parallel regions bypass the worker pool)");
    }
  }
}

// ---------------------------------------------------------------------------
// mhbc-layering (include order; cycles are a tree rule below)
// ---------------------------------------------------------------------------

void CheckLayering(const SourceFile& file, const Config& config,
                   Reporter* report) {
  if (file.top != "src" || file.layer.empty()) return;
  const int own_rank = config.LayerRank(file.layer);
  if (own_rank < 0) return;  // unknown layer: nothing to enforce against
  for (const IncludeDirective& inc : file.stream.includes) {
    if (inc.angled) continue;  // system/third-party headers are layer-free
    const std::size_t slash = inc.target.find('/');
    if (slash == std::string::npos) continue;  // not a project-layer path
    const std::string target_layer = inc.target.substr(0, slash);
    if (target_layer == file.layer) continue;
    const int target_rank = config.LayerRank(target_layer);
    if (target_rank < 0) continue;
    if (target_rank >= own_rank) {
      report->Emit("mhbc-layering", "order", inc.line,
                   "#include \"" + inc.target + "\" from layer '" +
                       file.layer + "' (rank " + std::to_string(own_rank) +
                       ") reaches '" + target_layer + "' (rank " +
                       std::to_string(target_rank) +
                       "), against the layer order");
    }
  }
}

// ---------------------------------------------------------------------------
// mhbc-header-guard
// ---------------------------------------------------------------------------

void CheckHeaderGuard(const SourceFile& file, Reporter* report) {
  if (!file.is_header) return;
  if (file.stream.has_pragma_once) return;
  report->Emit("mhbc-header-guard", "", 1,
               "header does not open with #pragma once");
}

// ---------------------------------------------------------------------------
// mhbc-exit-paths
// ---------------------------------------------------------------------------

void CheckExitPaths(const SourceFile& file, Reporter* report) {
  static const std::set<std::string>* exits = new std::set<std::string>{
      "exit", "_Exit", "quick_exit", "abort", "terminate"};

  const Tokens& toks = file.stream.tokens;
  // Token range of main()'s body, when this file defines one.
  std::size_t main_begin = toks.size(), main_end = toks.size();
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (IsIdent(toks[i], "main") && IsPunct(toks[i + 1], "(") &&
        (i == 0 || !IsPunct(toks[i - 1], ".")) &&
        (i == 0 || !IsPunct(toks[i - 1], "->"))) {
      const std::size_t params_close = MatchForward(toks, i + 1, "(", ")");
      std::size_t brace = params_close + 1;
      if (brace < toks.size() && IsPunct(toks[brace], "{")) {
        main_begin = brace;
        main_end = MatchForward(toks, brace, "{", "}");
        break;
      }
    }
  }

  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier || exits->count(t.text) == 0) {
      continue;
    }
    if (!IsPunct(toks[i + 1], "(")) continue;
    if (i > 0 && (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->"))) {
      continue;  // member named exit/abort, not the process call
    }
    if (i > main_begin && i < main_end) continue;
    report->Emit("mhbc-exit-paths", "", t.line,
                 "'" + t.text + "()' outside main()");
  }
}

// ---------------------------------------------------------------------------
// Tree rule: include cycles
// ---------------------------------------------------------------------------

/// Maps an include target written in `from` to the repo-relative path of a
/// known header, or "" when the target is not part of the linted tree.
std::string ResolveInclude(const std::string& from_path,
                           const std::string& target,
                           const std::set<std::string>& known) {
  if (known.count("src/" + target) != 0) return "src/" + target;
  const std::size_t slash = from_path.rfind('/');
  if (slash != std::string::npos) {
    const std::string sibling = from_path.substr(0, slash + 1) + target;
    if (known.count(sibling) != 0) return sibling;
  }
  if (known.count(target) != 0) return target;
  return "";
}

void CheckIncludeCycles(const std::vector<SourceFile>& files,
                        const Config& config,
                        std::vector<Finding>* findings) {
  std::set<std::string> headers;
  std::map<std::string, const SourceFile*> by_path;
  for (const SourceFile& file : files) {
    by_path[file.path] = &file;
    if (file.is_header) headers.insert(file.path);
  }
  // Header-to-header edges with the include line for reporting.
  std::map<std::string, std::vector<std::pair<std::string, int>>> edges;
  for (const SourceFile& file : files) {
    if (!file.is_header) continue;
    for (const IncludeDirective& inc : file.stream.includes) {
      if (inc.angled) continue;
      const std::string target = ResolveInclude(file.path, inc.target, headers);
      if (!target.empty()) edges[file.path].emplace_back(target, inc.line);
    }
  }
  // Iterative DFS, white/grey/black; the grey stack reconstructs cycles.
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::set<std::set<std::string>> reported;
  std::vector<std::string> stack;

  const std::function<void(const std::string&)> visit =
      [&](const std::string& node) {
        color[node] = 1;
        stack.push_back(node);
        for (const auto& [next, line] : edges[node]) {
          if (color[next] == 1) {
            // Back edge: the cycle is stack[pos(next)..] + next.
            auto begin =
                std::find(stack.begin(), stack.end(), next);
            std::set<std::string> members(begin, stack.end());
            if (reported.insert(members).second) {
              std::string chain;
              for (auto it = begin; it != stack.end(); ++it) {
                chain += *it + " -> ";
              }
              chain += next;
              const SourceFile& at = *by_path.at(node);
              Finding finding{"mhbc-layering", Severity::kError, node, line,
                              "#include cycle: " + chain,
                              "break the cycle by forward-declaring or "
                              "moving shared declarations down a layer"};
              if (!config.Allows("mhbc-layering", "cycle", node) &&
                  !IsSuppressed(at, "mhbc-layering", line)) {
                findings->push_back(std::move(finding));
              }
            }
          } else if (color[next] == 0) {
            visit(next);
          }
        }
        stack.pop_back();
        color[node] = 2;
      };
  for (const std::string& header : headers) {
    if (color[header] == 0) visit(header);
  }
}

}  // namespace

bool IsSuppressed(const SourceFile& file, const std::string& rule, int line) {
  const auto check_comment = [&rule](const std::string& comment,
                                     bool nextline_form) {
    std::size_t pos = 0;
    while ((pos = comment.find("NOLINT", pos)) != std::string::npos) {
      std::size_t after = pos + 6;
      const bool is_nextline = comment.compare(after, 8, "NEXTLINE") == 0;
      if (is_nextline) after += 8;
      if (is_nextline != nextline_form) {
        pos = after;
        continue;
      }
      if (after >= comment.size() || comment[after] != '(') {
        return true;  // bare NOLINT: suppresses every rule on the line
      }
      const std::size_t close = comment.find(')', after);
      std::string list = comment.substr(
          after + 1,
          (close == std::string::npos ? comment.size() : close) - after - 1);
      list += ',';
      std::string id;
      for (const char c : list) {
        if (c == ',') {
          // trim spaces
          while (!id.empty() && id.front() == ' ') id.erase(id.begin());
          while (!id.empty() && id.back() == ' ') id.pop_back();
          if (id == rule || id == "*") return true;
          id.clear();
        } else {
          id += c;
        }
      }
      pos = after;
    }
    return false;
  };

  const auto& comments = file.stream.comments;
  if (const auto it = comments.find(line); it != comments.end()) {
    if (check_comment(it->second, /*nextline_form=*/false)) return true;
  }
  if (const auto it = comments.find(line - 1); it != comments.end()) {
    if (check_comment(it->second, /*nextline_form=*/true)) return true;
  }
  return false;
}

std::vector<Finding> LintFile(const SourceFile& file, const Config& config) {
  std::vector<Finding> findings;
  Reporter report(file, config, &findings);
  CheckBannedNondeterminism(file, &report);
  CheckUnorderedAccumulation(file, &report);
  CheckRawConcurrency(file, &report);
  CheckLayering(file, config, &report);
  CheckHeaderGuard(file, &report);
  CheckExitPaths(file, &report);
  return findings;
}

std::vector<Finding> LintTree(const std::vector<SourceFile>& files,
                              const Config& config) {
  std::vector<Finding> findings;
  for (const SourceFile& file : files) {
    std::vector<Finding> per_file = LintFile(file, config);
    findings.insert(findings.end(),
                    std::make_move_iterator(per_file.begin()),
                    std::make_move_iterator(per_file.end()));
  }
  CheckIncludeCycles(files, config, &findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

}  // namespace mhbc::lint
