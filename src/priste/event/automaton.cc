#include "priste/event/automaton.h"

#include <algorithm>
#include <map>
#include <memory>

#include "priste/common/check.h"
#include "priste/common/strings.h"

namespace priste::event {
namespace {

// Canonicalized Boolean expression: constants folded, AND/OR flattened with
// sorted, deduplicated children, double negations removed. The `key` string
// identifies the canonical form.
struct Canon;
using CanonPtr = std::shared_ptr<const Canon>;

struct Canon {
  enum class Kind { kFalse, kTrue, kPred, kNot, kAnd, kOr };
  Kind kind;
  int t = 0;
  int s = 0;
  std::vector<CanonPtr> children;
  std::string key;
};

CanonPtr MakeConstant(bool value) {
  auto node = std::make_shared<Canon>();
  node->kind = value ? Canon::Kind::kTrue : Canon::Kind::kFalse;
  node->key = value ? "T" : "F";
  return node;
}

CanonPtr MakePred(int t, int s) {
  auto node = std::make_shared<Canon>();
  node->kind = Canon::Kind::kPred;
  node->t = t;
  node->s = s;
  node->key = StrFormat("p%d.%d", t, s);
  return node;
}

CanonPtr MakeNot(CanonPtr child) {
  if (child->kind == Canon::Kind::kTrue) return MakeConstant(false);
  if (child->kind == Canon::Kind::kFalse) return MakeConstant(true);
  if (child->kind == Canon::Kind::kNot) return child->children[0];
  auto node = std::make_shared<Canon>();
  node->kind = Canon::Kind::kNot;
  node->key = "!(" + child->key + ")";
  node->children = {std::move(child)};
  return node;
}

// Builds an n-ary AND (is_and) or OR with flattening, constant folding,
// sorting and deduplication.
CanonPtr MakeNary(bool is_and, std::vector<CanonPtr> parts) {
  const Canon::Kind kind = is_and ? Canon::Kind::kAnd : Canon::Kind::kOr;
  const Canon::Kind absorbing = is_and ? Canon::Kind::kFalse : Canon::Kind::kTrue;
  const Canon::Kind neutral = is_and ? Canon::Kind::kTrue : Canon::Kind::kFalse;

  std::vector<CanonPtr> flat;
  for (auto& part : parts) {
    if (part->kind == absorbing) return MakeConstant(!is_and);
    if (part->kind == neutral) continue;
    if (part->kind == kind) {
      flat.insert(flat.end(), part->children.begin(), part->children.end());
    } else {
      flat.push_back(std::move(part));
    }
  }
  std::sort(flat.begin(), flat.end(),
            [](const CanonPtr& a, const CanonPtr& b) { return a->key < b->key; });
  flat.erase(std::unique(flat.begin(), flat.end(),
                         [](const CanonPtr& a, const CanonPtr& b) {
                           return a->key == b->key;
                         }),
             flat.end());
  if (flat.empty()) return MakeConstant(is_and);
  if (flat.size() == 1) return flat[0];

  auto node = std::make_shared<Canon>();
  node->kind = kind;
  std::vector<std::string> keys;
  keys.reserve(flat.size());
  for (const auto& child : flat) keys.push_back(child->key);
  node->key = (is_and ? "&(" : "|(") + StrJoin(keys, ",") + ")";
  node->children = std::move(flat);
  return node;
}

// Converts a BoolExpr AST into canonical form.
CanonPtr Convert(const BoolExpr& expr) {
  switch (expr.kind()) {
    case BoolExpr::Kind::kPredicate:
      return MakePred(expr.pred_time(), expr.pred_state());
    case BoolExpr::Kind::kConstant:
      return MakeConstant(expr.constant_value());
    case BoolExpr::Kind::kNot:
      return MakeNot(Convert(expr.left()));
    case BoolExpr::Kind::kAnd:
      return MakeNary(true, {Convert(expr.left()), Convert(expr.right())});
    case BoolExpr::Kind::kOr:
      return MakeNary(false, {Convert(expr.left()), Convert(expr.right())});
  }
  PRISTE_CHECK_MSG(false, "unreachable BoolExpr kind");
  return MakeConstant(false);
}

// Substitutes every predicate at timestamp `t` with (state == s) and
// re-canonicalizes.
CanonPtr Substitute(const CanonPtr& node, int t, int s) {
  switch (node->kind) {
    case Canon::Kind::kTrue:
    case Canon::Kind::kFalse:
      return node;
    case Canon::Kind::kPred:
      if (node->t == t) return MakeConstant(node->s == s);
      return node;
    case Canon::Kind::kNot:
      return MakeNot(Substitute(node->children[0], t, s));
    case Canon::Kind::kAnd:
    case Canon::Kind::kOr: {
      std::vector<CanonPtr> parts;
      parts.reserve(node->children.size());
      bool changed = false;
      for (const auto& child : node->children) {
        CanonPtr sub = Substitute(child, t, s);
        changed = changed || sub.get() != child.get();
        parts.push_back(std::move(sub));
      }
      if (!changed) return node;
      return MakeNary(node->kind == Canon::Kind::kAnd, std::move(parts));
    }
  }
  return node;
}

}  // namespace

Result<EventAutomaton> EventAutomaton::Compile(const BoolExpr& expr,
                                               size_t num_states,
                                               int max_states) {
  if (num_states == 0) return err::InvalidArgument("num_states must be positive");
  if (expr.NumPredicates() == 0) {
    return err::InvalidArgument("event must contain at least one predicate");
  }
  EventAutomaton out;
  out.start_ = expr.MinTimestamp();
  out.end_ = expr.MaxTimestamp();
  out.num_map_states_ = num_states;

  const CanonPtr root = Convert(expr);
  std::map<std::string, int> ids;
  std::vector<CanonPtr> states;
  const auto intern = [&](const CanonPtr& node) -> int {
    auto it = ids.find(node->key);
    if (it != ids.end()) return it->second;
    const int id = static_cast<int>(states.size());
    ids.emplace(node->key, id);
    states.push_back(node);
    return id;
  };
  out.initial_ = intern(root);

  const int window = out.end_ - out.start_ + 1;
  // Per-layer successor records: (state id, successors per map state).
  std::vector<std::vector<std::pair<int, std::vector<int>>>> layers(
      static_cast<size_t>(window));
  std::vector<int> frontier = {out.initial_};
  for (int ti = 0; ti < window; ++ti) {
    const int t = out.start_ + ti;
    std::vector<int> next_frontier;
    for (const int q : frontier) {
      std::vector<int> successors(num_states);
      for (size_t s = 0; s < num_states; ++s) {
        const CanonPtr next = Substitute(states[static_cast<size_t>(q)], t,
                                         static_cast<int>(s));
        const int next_id = intern(next);
        if (static_cast<int>(states.size()) > max_states) {
          return err::ResourceExhausted(
              StrFormat("event automaton exceeds %d states", max_states));
        }
        successors[s] = next_id;
        if (std::find(next_frontier.begin(), next_frontier.end(), next_id) ==
            next_frontier.end()) {
          next_frontier.push_back(next_id);
        }
      }
      layers[static_cast<size_t>(ti)].emplace_back(q, std::move(successors));
    }
    frontier = std::move(next_frontier);
  }

  // Every state reachable after the last window step must be constant.
  for (const int q : frontier) {
    const auto kind = states[static_cast<size_t>(q)]->kind;
    PRISTE_CHECK_MSG(kind == Canon::Kind::kTrue || kind == Canon::Kind::kFalse,
                     "automaton did not resolve to a constant");
  }

  const size_t total = states.size();
  out.accepting_.assign(total, false);
  out.labels_.resize(total);
  for (size_t q = 0; q < total; ++q) {
    out.accepting_[q] = states[q]->kind == Canon::Kind::kTrue;
    out.labels_[q] = states[q]->key;
  }
  // Dense transition tables with self-loop defaults (correct for constants,
  // irrelevant for unreachable (q, t) pairs).
  out.transitions_.assign(static_cast<size_t>(window),
                          std::vector<int>(total * num_states));
  for (int ti = 0; ti < window; ++ti) {
    auto& table = out.transitions_[static_cast<size_t>(ti)];
    for (size_t q = 0; q < total; ++q) {
      for (size_t s = 0; s < num_states; ++s) {
        table[q * num_states + s] = static_cast<int>(q);
      }
    }
    for (const auto& [q, successors] : layers[static_cast<size_t>(ti)]) {
      for (size_t s = 0; s < num_states; ++s) {
        table[static_cast<size_t>(q) * num_states + s] = successors[s];
      }
    }
  }
  return out;
}

int EventAutomaton::Next(int q, int t, int map_state) const {
  PRISTE_DCHECK(t >= start_ && t <= end_);
  PRISTE_DCHECK(q >= 0 && q < num_automaton_states());
  PRISTE_DCHECK(map_state >= 0 &&
                static_cast<size_t>(map_state) < num_map_states_);
  return transitions_[static_cast<size_t>(t - start_)]
                     [static_cast<size_t>(q) * num_map_states_ +
                      static_cast<size_t>(map_state)];
}

bool EventAutomaton::IsAccepting(int q) const {
  PRISTE_CHECK(q >= 0 && q < num_automaton_states());
  return accepting_[static_cast<size_t>(q)];
}

bool EventAutomaton::Accepts(const geo::Trajectory& trajectory) const {
  PRISTE_CHECK(trajectory.length() >= end_);
  int q = initial_;
  for (int t = start_; t <= end_; ++t) {
    q = Next(q, t, trajectory.At(t));
  }
  return IsAccepting(q);
}

const std::string& EventAutomaton::StateLabel(int q) const {
  PRISTE_CHECK(q >= 0 && q < num_automaton_states());
  return labels_[static_cast<size_t>(q)];
}

}  // namespace priste::event
