#include "obs/profiler.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>

namespace xlp::obs {

namespace {

/// One node of a thread's private call tree. Children keep first-seen
/// order; the merge sorts by name so reports never depend on it.
struct Node {
  std::string name;
  Node* parent = nullptr;
  long hits = 0;
  double inclusive_seconds = 0.0;
  std::vector<std::unique_ptr<Node>> children;

  Node* child(const char* child_name) {
    for (const auto& c : children)
      if (c->name == child_name) return c.get();
    auto owned = std::make_unique<Node>();
    owned->name = child_name;
    owned->parent = this;
    children.push_back(std::move(owned));
    return children.back().get();
  }
};

/// Per-thread tree plus the cursor into it. Registered in a global list on
/// first use so trees outlive their threads (the shared_ptr keeps the tree
/// alive after thread exit until the next Profiler::reset()).
struct ThreadTree {
  Node root;          // unnamed sentinel; depth-0 scopes are its children
  Node* current = &root;
};

struct Global {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadTree>> trees;
};

Global& global() {
  static Global g;
  return g;
}

ThreadTree& thread_tree() {
  thread_local std::shared_ptr<ThreadTree> tls = [] {
    auto tree = std::make_shared<ThreadTree>();
    auto& g = global();
    const std::lock_guard<std::mutex> lock(g.mutex);
    g.trees.push_back(tree);
    return tree;
  }();
  return *tls;
}

/// Name-keyed merge target, built from every thread tree.
struct MergedNode {
  std::string name;
  long hits = 0;
  double inclusive_seconds = 0.0;
  std::vector<std::unique_ptr<MergedNode>> children;

  MergedNode* child(const std::string& child_name) {
    for (const auto& c : children)
      if (c->name == child_name) return c.get();
    auto owned = std::make_unique<MergedNode>();
    owned->name = child_name;
    children.push_back(std::move(owned));
    return children.back().get();
  }
};

void merge_into(MergedNode& dst, const Node& src) {
  dst.hits += src.hits;
  dst.inclusive_seconds += src.inclusive_seconds;
  for (const auto& c : src.children) merge_into(*dst.child(c->name), *c);
}

void flatten(const MergedNode& node, const std::string& parent_path,
             int depth, std::vector<ProfileEntry>& out) {
  std::vector<const MergedNode*> ordered;
  ordered.reserve(node.children.size());
  for (const auto& c : node.children) ordered.push_back(c.get());
  std::sort(ordered.begin(), ordered.end(),
            [](const MergedNode* a, const MergedNode* b) {
              return a->name < b->name;
            });
  for (const MergedNode* c : ordered) {
    ProfileEntry entry;
    entry.path = parent_path.empty() ? c->name : parent_path + ";" + c->name;
    entry.name = c->name;
    entry.depth = depth;
    entry.hits = c->hits;
    entry.inclusive_seconds = c->inclusive_seconds;
    double child_sum = 0.0;
    for (const auto& gc : c->children) child_sum += gc->inclusive_seconds;
    entry.exclusive_seconds =
        std::max(0.0, c->inclusive_seconds - child_sum);
    out.push_back(entry);
    // Recurse with the local copy, not out.back().path — the recursion
    // appends to `out` and a reallocation would invalidate that reference.
    flatten(*c, entry.path, depth + 1, out);
  }
}

}  // namespace

std::atomic<bool> Profiler::enabled_{false};

void Profiler::enable() noexcept {
  enabled_.store(true, std::memory_order_relaxed);
}

void Profiler::disable() noexcept {
  enabled_.store(false, std::memory_order_relaxed);
}

ProfileReport Profiler::snapshot() {
  MergedNode merged;
  {
    auto& g = global();
    const std::lock_guard<std::mutex> lock(g.mutex);
    for (const auto& tree : g.trees) merge_into(merged, tree->root);
  }
  std::vector<ProfileEntry> entries;
  flatten(merged, "", 0, entries);
  return ProfileReport(std::move(entries));
}

void Profiler::reset() {
  auto& g = global();
  const std::lock_guard<std::mutex> lock(g.mutex);
  for (const auto& tree : g.trees) {
    // A live thread keeps its shared_ptr and cursor; wipe the recorded
    // data but keep the root so its cursor (parked at the root between
    // scopes) stays valid.
    tree->root.children.clear();
    tree->root.hits = 0;
    tree->root.inclusive_seconds = 0.0;
    tree->current = &tree->root;
  }
}

ProfileScope::ProfileScope(const char* name) noexcept : active_(false) {
  if (!Profiler::enabled()) return;
  ThreadTree& tree = thread_tree();
  Node* node = tree.current->child(name);
  ++node->hits;
  tree.current = node;
  active_ = true;
  start_ = std::chrono::steady_clock::now();
}

ProfileScope::~ProfileScope() {
  if (!active_) return;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  ThreadTree& tree = thread_tree();
  tree.current->inclusive_seconds += elapsed;
  if (tree.current->parent != nullptr) tree.current = tree.current->parent;
}

double ProfileReport::root_inclusive_seconds() const noexcept {
  double total = 0.0;
  for (const ProfileEntry& e : entries_)
    if (e.depth == 0) total += e.inclusive_seconds;
  return total;
}

Json ProfileReport::to_json() const {
  Json scopes = Json::array();
  for (const ProfileEntry& e : entries_)
    scopes.push(Json::object()
                    .set("path", e.path)
                    .set("name", e.name)
                    .set("depth", e.depth)
                    .set("hits", e.hits)
                    .set("inclusive_us", e.inclusive_seconds * 1e6)
                    .set("exclusive_us", e.exclusive_seconds * 1e6));
  return scopes;
}

std::string ProfileReport::to_collapsed() const {
  std::string out;
  for (const ProfileEntry& e : entries_) {
    const long usec = std::lround(e.exclusive_seconds * 1e6);
    if (usec <= 0) continue;
    out += e.path;
    out += ' ';
    out += std::to_string(usec);
    out += '\n';
  }
  return out;
}

}  // namespace xlp::obs
