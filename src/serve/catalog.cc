#include "serve/catalog.h"

#include <utility>

namespace mhbc::serve {

// ---------------------------------------------------------------------------
// ReadLease
// ---------------------------------------------------------------------------

ReadLease::ReadLease(ReadLease&& other) noexcept
    : entry_(other.entry_),
      engine_(other.engine_),
      epoch_(std::move(other.epoch_)),
      epoch_number_(other.epoch_number_) {
  other.entry_ = nullptr;
  other.engine_ = nullptr;
}

ReadLease& ReadLease::operator=(ReadLease&& other) noexcept {
  if (this != &other) {
    Release();
    entry_ = other.entry_;
    engine_ = other.engine_;
    epoch_ = std::move(other.epoch_);
    epoch_number_ = other.epoch_number_;
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
  // Last: the session no longer refers to the epoch, which is freed here
  // when this was its last lease and a mutate has superseded it.
  epoch_.reset();
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
    : name_(std::move(name)), options_(options) {
  auto first = std::make_unique<GraphEpoch>();
  first->graph = std::move(graph);
  first->memo = std::make_shared<DependencyMemo>(DependencyMemo::CapacityFor(
      options_.dependency_cache_bytes, first->graph));
  current_ = Publish(std::move(first));
  if (sessions == 0) sessions = 1;
  sessions_.reserve(sessions);
  free_.reserve(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    sessions_.push_back(std::make_unique<BetweennessEngine>(
        current_->graph, options_, current_->memo));
    free_.push_back(sessions_.back().get());
  }
}

std::shared_ptr<const GraphEpoch> GraphEntry::Publish(
    std::unique_ptr<GraphEpoch> epoch) {
  epochs_live_.fetch_add(1);
  return std::shared_ptr<const GraphEpoch>(
      epoch.release(), [this](const GraphEpoch* retired) {
        delete retired;
        epochs_live_.fetch_sub(1);
      });
}

ReadLease GraphEntry::AcquireRead() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return !free_.empty(); });
  BetweennessEngine* engine = free_.back();
  free_.pop_back();
  ++reads_served_;
  // Idle sessions are bound to current_ (Mutate and ReturnSession see to
  // it), so the lease only has to pin the epoch.
  return ReadLease(this, engine, current_);
}

void GraphEntry::ReturnSession(BetweennessEngine* engine) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A session leased before the last publish comes back bound to a
    // superseded epoch (or, after its holder's own ApplyDelta, to a graph
    // of its own): rebind it, so an idle session never pins an epoch.
    if (&engine->graph() != &current_->graph) {
      engine->BindEpoch(current_->graph, current_->memo, current_->number);
    }
    free_.push_back(engine);
  }
  cv_.notify_one();
}

StatusOr<MutateResult> GraphEntry::Mutate(const GraphDelta& delta) {
  // Mutates serialize on write_mu_, so only this thread replaces current_
  // until it returns; mu_ is taken just to read it and to publish.
  const std::lock_guard<std::mutex> write(write_mu_);
  std::shared_ptr<const GraphEpoch> previous;
  {
    std::lock_guard<std::mutex> lock(mu_);
    previous = current_;
  }
  if (delta.empty()) {
    return MutateResult{previous->number, ShapeOf(previous->graph)};
  }
  // The delta is applied once, to an overlay on the immutable current
  // graph: that is the validation gate, and an invalid delta leaves the
  // entry as it was.
  std::vector<GraphEdit> resolved;
  StatusOr<CsrGraph> edited =
      DynamicGraph::ApplyToCopy(previous->graph, delta, &resolved);
  if (!edited.ok()) return edited.status();
  auto next = std::make_unique<GraphEpoch>();
  next->number = previous->number + 1;
  next->graph = std::move(edited).value();
  next->memo = previous->memo->Carry(
      next->graph, resolved, options_.spd.tie_epsilon,
      DependencyMemo::MinWeightsOf(previous->graph));
  next->memo->set_capacity(DependencyMemo::CapacityFor(
      options_.dependency_cache_bytes, next->graph));
  const MutateResult installed{next->number, ShapeOf(next->graph)};
  std::shared_ptr<const GraphEpoch> published = Publish(std::move(next));
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_ = published;
    ++mutations_applied_;
    for (BetweennessEngine* engine : free_) {
      engine->BindEpoch(published->graph, published->memo, published->number);
    }
  }
  // `previous` is released here, outside mu_: with no lease on it, the
  // superseded epoch's graph and memo are freed on this thread.
  return installed;
}

GraphEntryStats GraphEntry::Stats() const {
  GraphEntryStats stats;
  std::shared_ptr<const GraphEpoch> current;
  {
    std::lock_guard<std::mutex> lock(mu_);
    current = current_;
    stats.sessions = sessions_.size();
    stats.sessions_free = free_.size();
    stats.reads_served = reads_served_;
    stats.mutations_applied = mutations_applied_;
  }
  // The epoch is immutable and the memo has its own lock; neither is read
  // through a session's engine, which a reader may hold.
  stats.epoch = current->number;
  stats.shape = ShapeOf(current->graph);
  stats.memo = current->memo->Stats();
  stats.epochs_live = epochs_live_.load();
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
