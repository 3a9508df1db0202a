#include "serve/catalog.h"

#include <utility>

namespace mhbc::serve {

// ---------------------------------------------------------------------------
// ReadLease
// ---------------------------------------------------------------------------

ReadLease::ReadLease(ReadLease&& other) noexcept
    : entry_(other.entry_), engine_(other.engine_), epoch_(other.epoch_) {
  other.entry_ = nullptr;
  other.engine_ = nullptr;
}

ReadLease& ReadLease::operator=(ReadLease&& other) noexcept {
  if (this != &other) {
    Release();
    entry_ = other.entry_;
    engine_ = other.engine_;
    epoch_ = other.epoch_;
    other.entry_ = nullptr;
    other.engine_ = nullptr;
  }
  return *this;
}

ReadLease::~ReadLease() { Release(); }

void ReadLease::Release() {
  if (engine_ != nullptr && entry_ != nullptr) {
    entry_->ReturnSession(engine_);
  }
  entry_ = nullptr;
  engine_ = nullptr;
}

// ---------------------------------------------------------------------------
// GraphEntry
// ---------------------------------------------------------------------------

namespace {

GraphShape ShapeOf(const CsrGraph& graph) {
  GraphShape shape;
  shape.num_vertices = graph.num_vertices();
  shape.num_edges = graph.num_edges();
  shape.directed = graph.directed();
  return shape;
}

}  // namespace

GraphEntry::GraphEntry(std::string name, CsrGraph graph,
                       const EngineOptions& options, std::size_t sessions)
    : name_(std::move(name)),
      graph_(std::move(graph)),
      // Sized here only so `stats` shows the capacity before the first
      // read; from then on the sessions' engines size it, all alike.
      memo_(std::make_shared<DependencyMemo>(DependencyMemo::CapacityFor(
          options.dependency_cache_bytes, graph_))),
      shape_(ShapeOf(graph_)) {
  if (sessions == 0) sessions = 1;
  sessions_.reserve(sessions);
  free_.reserve(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    sessions_.push_back(
        std::make_unique<BetweennessEngine>(graph_, options, memo_));
    free_.push_back(sessions_.back().get());
  }
}

ReadLease GraphEntry::AcquireRead() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] {
    return !writer_active_ && writers_waiting_ == 0 && !free_.empty();
  });
  BetweennessEngine* engine = free_.back();
  free_.pop_back();
  ++reads_served_;
  return ReadLease(this, engine, epoch_);
}

void GraphEntry::ReturnSession(BetweennessEngine* engine) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(engine);
  }
  cv_.notify_all();
}

StatusOr<MutateResult> GraphEntry::Mutate(const GraphDelta& delta) {
  std::unique_lock<std::mutex> lock(mu_);
  ++writers_waiting_;
  cv_.wait(lock, [this] {
    return !writer_active_ && free_.size() == sessions_.size();
  });
  --writers_waiting_;
  writer_active_ = true;
  lock.unlock();

  // Exclusive: every session is parked in free_ and writer_active_ keeps
  // readers (and other writers) out, so the engines can be edited without
  // the lock. The first ApplyDelta is the validation gate — it is atomic
  // per the engine contract, so an invalid delta leaves session 0 (and
  // thus all sessions) untouched. Once it succeeds, the same delta is
  // valid against every identically-edited sibling.
  Status applied = sessions_.front()->ApplyDelta(delta);
  if (applied.ok()) {
    for (std::size_t i = 1; i < sessions_.size(); ++i) {
      const Status sibling = sessions_[i]->ApplyDelta(delta);
      if (!sibling.ok()) {
        // Unreachable when the sessions are in lockstep; surface loudly
        // rather than serving a torn pool.
        applied = Status::FailedPrecondition(
            "session pool diverged applying a validated delta: " +
            sibling.message());
        break;
      }
    }
  }

  lock.lock();
  // Still exclusive until writer_active_ drops, so the sessions' graph can
  // be read.
  const std::uint64_t engine_epoch = sessions_.front()->graph_epoch();
  if (applied.ok() && engine_epoch != epoch_) {  // empty delta keeps it
    epoch_ = engine_epoch;
    shape_ = ShapeOf(sessions_.front()->graph());
    ++mutations_applied_;
  }
  const MutateResult installed{epoch_, shape_};
  writer_active_ = false;
  lock.unlock();
  cv_.notify_all();
  if (!applied.ok()) return applied;
  return installed;
}

GraphEntryStats GraphEntry::Stats() const {
  GraphEntryStats stats;
  // The memo has its own lock; never read it through a session's engine,
  // which a reader or the writer may hold.
  stats.memo = memo_->Stats();
  std::lock_guard<std::mutex> lock(mu_);
  stats.epoch = epoch_;
  stats.sessions = sessions_.size();
  stats.sessions_free = free_.size();
  stats.reads_served = reads_served_;
  stats.mutations_applied = mutations_applied_;
  stats.shape = shape_;
  return stats;
}

// ---------------------------------------------------------------------------
// GraphCatalog
// ---------------------------------------------------------------------------

Status GraphCatalog::AddGraph(const std::string& name, CsrGraph graph,
                              const EngineOptions& options,
                              std::size_t sessions) {
  if (name.empty()) {
    return Status::InvalidArgument("catalog graph name must be non-empty");
  }
  if (entries_.count(name) != 0) {
    return Status::FailedPrecondition("catalog already holds a graph named '" +
                                      name + "'");
  }
  entries_.emplace(name, std::make_unique<GraphEntry>(name, std::move(graph),
                                                      options, sessions));
  return Status::Ok();
}

GraphEntry* GraphCatalog::Find(const std::string& name) const {
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second.get();
}

std::vector<std::string> GraphCatalog::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

}  // namespace mhbc::serve
