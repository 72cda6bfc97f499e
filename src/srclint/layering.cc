#include "srclint/layering.h"

#include <algorithm>
#include <map>
#include <set>

namespace dj::srclint {

LayerPolicy::LayerPolicy(std::vector<Entry> entries)
    : entries_(std::move(entries)) {
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) { return a.layer < b.layer; });
  for (Entry& e : entries_) std::sort(e.allowed.begin(), e.allowed.end());
}

const LayerPolicy& LayerPolicy::Default() {
  // Keep in sync with the layering table in DESIGN.md. An edge here is a
  // deliberate architectural decision, not a record of the status quo:
  // adding one requires the same scrutiny as adding a library dependency.
  static const LayerPolicy* kDefault = new LayerPolicy({
      {"analysis", {"common", "data", "ops", "text"}},
      {"baseline", {"common", "data", "ops"}},
      {"common", {}},
      {"compress", {"common", "obs"}},
      {"core", {"common", "compress", "data", "json", "obs", "ops", "yaml"}},
      {"data", {"common", "compress", "json", "obs"}},
      {"dist", {"common", "core", "data", "obs", "ops"}},
      {"eval", {"common", "data", "json", "quality", "text", "workload"}},
      {"hpo", {"common", "data", "ops", "quality", "text"}},
      {"json", {"common"}},
      {"lint", {"common", "core", "data", "json", "ops"}},
      {"obs", {"common", "json"}},
      {"ops", {"common", "data", "json", "obs", "quality", "text"}},
      {"quality", {"common", "text"}},
      {"srclint", {"common", "json"}},
      {"text", {"common"}},
      {"workload", {"common", "data", "text"}},
      {"yaml", {"common", "json"}},
  });
  return *kDefault;
}

const LayerPolicy::Entry* LayerPolicy::Find(std::string_view layer) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), layer,
      [](const Entry& e, std::string_view l) { return e.layer < l; });
  if (it == entries_.end() || it->layer != layer) return nullptr;
  return &*it;
}

bool LayerPolicy::Knows(std::string_view layer) const {
  return Find(layer) != nullptr;
}

bool LayerPolicy::Allowed(std::string_view from, std::string_view to) const {
  if (from == to) return true;
  const Entry* e = Find(from);
  if (e == nullptr || !Knows(to)) return false;
  return std::binary_search(e->allowed.begin(), e->allowed.end(), to);
}

std::string LayerOfPath(std::string_view path) {
  if (path.rfind("src/", 0) != 0) return "";
  path.remove_prefix(4);
  size_t slash = path.find('/');
  if (slash == std::string_view::npos) return "";
  return std::string(path.substr(0, slash));
}

std::string LayerOfInclude(std::string_view include_path) {
  size_t slash = include_path.find('/');
  if (slash == std::string_view::npos) return "";
  return std::string(include_path.substr(0, slash));
}

std::vector<std::string> FindLayerCycles(const std::vector<LayerEdge>& edges) {
  std::map<std::string, std::set<std::string>> graph;
  for (const LayerEdge& e : edges) {
    if (e.from != e.to) graph[e.from].insert(e.to);
  }
  // Iterative DFS with three colors; each back edge closes one cycle. A
  // node is reported in at most one cycle, which keeps the output short
  // while still proving every strongly-connected tangle has a witness.
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::vector<std::string> cycles;
  std::vector<std::string> stack;

  struct Frame {
    std::string node;
    std::set<std::string>::const_iterator next;
  };

  for (const auto& [start, unused] : graph) {
    if (color[start] != 0) continue;
    std::vector<Frame> frames;
    frames.push_back({start, graph[start].begin()});
    color[start] = 1;
    stack.push_back(start);
    while (!frames.empty()) {
      Frame& f = frames.back();
      const std::set<std::string>& succ = graph[f.node];
      if (f.next == succ.end()) {
        color[f.node] = 2;
        stack.pop_back();
        frames.pop_back();
        continue;
      }
      std::string to = *f.next;
      ++f.next;
      auto it = graph.find(to);
      int c = color[to];
      if (c == 1) {
        // Back edge: render the cycle from `to`'s position on the stack.
        std::string rendered;
        auto pos = std::find(stack.begin(), stack.end(), to);
        for (auto p = pos; p != stack.end(); ++p) {
          rendered += *p;
          rendered += " -> ";
        }
        rendered += to;
        cycles.push_back(std::move(rendered));
      } else if (c == 0 && it != graph.end()) {
        color[to] = 1;
        stack.push_back(to);
        frames.push_back({to, it->second.begin()});
      } else if (c == 0) {
        color[to] = 2;  // sink with no outgoing edges
      }
    }
  }
  return cycles;
}

}  // namespace dj::srclint
