#include "pre/pre.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "common/logging.h"
#include "common/strings.h"
#include "serialize/encoder.h"

namespace webdis::pre {

struct Pre::Node {
  PreKind kind = PreKind::kEmpty;
  LinkType link = LinkType::kNull;   // kLink
  uint32_t max = 0;                  // kRepeat (bounded)
  bool unbounded = false;            // kRepeat
  std::vector<NodeRef> children;     // kConcat / kAlt / kRepeat (1 child)
};

Pre::Pre() : node_(nullptr) {}
Pre::Pre(NodeRef node) : node_(std::move(node)) {}

PreKind Pre::kind() const {
  return node_ == nullptr ? PreKind::kEmpty : node_->kind;
}

Pre Pre::Empty() { return Pre(); }

Pre Pre::Never() {
  auto node = std::make_shared<Node>();
  node->kind = PreKind::kNever;
  return Pre(std::move(node));
}

Pre Pre::Link(LinkType type) {
  // The null link N matches only the zero-length path: semantically ε. We
  // keep it as a distinct node so `N | G·L` round-trips through ToString.
  auto node = std::make_shared<Node>();
  node->kind = PreKind::kLink;
  node->link = type;
  return Pre(std::move(node));
}

Pre Pre::Concat(const Pre& a, const Pre& b) { return ConcatAll({a, b}); }

Pre Pre::ConcatAll(const std::vector<Pre>& parts) {
  std::vector<NodeRef> flat;
  for (const Pre& p : parts) {
    switch (p.kind()) {
      case PreKind::kNever:
        return Never();
      case PreKind::kEmpty:
        continue;
      case PreKind::kLink:
        // N is ε for concatenation purposes; drop it inside concat so
        // algebra (and derivatives) stay simple.
        if (p.node_->link == LinkType::kNull) continue;
        flat.push_back(p.node_);
        break;
      case PreKind::kConcat:
        flat.insert(flat.end(), p.node_->children.begin(),
                    p.node_->children.end());
        break;
      default:
        flat.push_back(p.node_);
    }
  }
  if (flat.empty()) return Empty();
  if (flat.size() == 1) return Pre(flat[0]);
  auto node = std::make_shared<Node>();
  node->kind = PreKind::kConcat;
  node->children = std::move(flat);
  return Pre(std::move(node));
}

Pre Pre::Alt(const Pre& a, const Pre& b) { return AltAll({a, b}); }

Pre Pre::AltAll(const std::vector<Pre>& parts) {
  std::vector<NodeRef> flat;
  // Canonical keys already in `flat`; `flat` keeps first-occurrence order.
  std::unordered_set<std::string> keys;
  bool saw_any = false;
  for (const Pre& p : parts) {
    saw_any = true;
    if (p.IsNever()) continue;
    std::vector<Pre> expanded;
    if (p.kind() == PreKind::kAlt) {
      for (const NodeRef& c : p.node_->children) expanded.push_back(Pre(c));
    } else {
      expanded.push_back(p);
    }
    for (const Pre& e : expanded) {
      if (!keys.insert(e.CanonicalKey()).second) continue;
      flat.push_back(e.node_ != nullptr ? e.node_ : Empty().node_);
      if (e.node_ == nullptr) {
        // Represent ε inside an alternation with an explicit empty node so
        // the child vector has no nulls.
        auto node = std::make_shared<Node>();
        node->kind = PreKind::kEmpty;
        flat.back() = std::move(node);
      }
    }
  }
  if (!saw_any || flat.empty()) return Never();
  if (flat.size() == 1) return Pre(flat[0]);
  auto node = std::make_shared<Node>();
  node->kind = PreKind::kAlt;
  node->children = std::move(flat);
  return Pre(std::move(node));
}

Pre Pre::Repeat(const Pre& a, uint32_t max) {
  if (max == 0 || a.IsEmpty() || a.IsNever()) return Empty();
  if (a.kind() == PreKind::kLink && a.node_->link == LinkType::kNull) {
    return Empty();
  }
  auto node = std::make_shared<Node>();
  node->kind = PreKind::kRepeat;
  node->max = max;
  node->unbounded = false;
  node->children.push_back(a.node_);
  return Pre(std::move(node));
}

Pre Pre::RepeatUnbounded(const Pre& a) {
  if (a.IsEmpty() || a.IsNever()) return Empty();
  if (a.kind() == PreKind::kLink && a.node_->link == LinkType::kNull) {
    return Empty();
  }
  auto node = std::make_shared<Node>();
  node->kind = PreKind::kRepeat;
  node->unbounded = true;
  node->children.push_back(a.node_);
  return Pre(std::move(node));
}

bool Pre::ContainsNull() const {
  switch (kind()) {
    case PreKind::kEmpty:
      return true;
    case PreKind::kNever:
      return false;
    case PreKind::kLink:
      return node_->link == LinkType::kNull;
    case PreKind::kConcat:
      for (const NodeRef& c : node_->children) {
        if (!Pre(c).ContainsNull()) return false;
      }
      return true;
    case PreKind::kAlt:
      for (const NodeRef& c : node_->children) {
        if (Pre(c).ContainsNull()) return true;
      }
      return false;
    case PreKind::kRepeat:
      return true;  // zero repetitions
  }
  return false;
}

std::vector<LinkType> Pre::FirstLinks() const {
  std::vector<LinkType> out;
  for (LinkType t :
       {LinkType::kInterior, LinkType::kLocal, LinkType::kGlobal}) {
    if (!Derive(t).IsNever()) out.push_back(t);
  }
  return out;
}

Pre Pre::Derive(LinkType type) const {
  switch (kind()) {
    case PreKind::kEmpty:
    case PreKind::kNever:
      return Never();
    case PreKind::kLink:
      if (node_->link == type && node_->link != LinkType::kNull) {
        return Empty();
      }
      return Never();
    case PreKind::kConcat: {
      // d(a·rest) = d(a)·rest  |  [nullable(a)] d(rest)
      const Pre head = Pre(node_->children[0]);
      std::vector<Pre> tail_parts;
      for (size_t i = 1; i < node_->children.size(); ++i) {
        tail_parts.push_back(Pre(node_->children[i]));
      }
      const Pre tail = ConcatAll(tail_parts);
      Pre result = Concat(head.Derive(type), tail);
      if (head.ContainsNull()) {
        result = Alt(result, tail.Derive(type));
      }
      return result;
    }
    case PreKind::kAlt: {
      std::vector<Pre> parts;
      for (const NodeRef& c : node_->children) {
        parts.push_back(Pre(c).Derive(type));
      }
      return AltAll(parts);
    }
    case PreKind::kRepeat: {
      const Pre child = Pre(node_->children[0]);
      const Pre d = child.Derive(type);
      if (d.IsNever()) return Never();
      Pre remaining;
      if (node_->unbounded) {
        remaining = RepeatUnbounded(child);
      } else if (node_->max <= 1) {
        remaining = Empty();
      } else {
        remaining = Repeat(child, node_->max - 1);
      }
      return Concat(d, remaining);
    }
  }
  return Never();
}

bool Pre::Matches(const std::vector<LinkType>& path) const {
  Pre cur = *this;
  for (LinkType t : path) {
    cur = cur.Derive(t);
    if (cur.IsNever()) return false;
  }
  return cur.ContainsNull();
}

std::vector<std::vector<LinkType>> Pre::EnumeratePaths(size_t max_len,
                                                       size_t limit) const {
  std::vector<std::vector<LinkType>> out;
  // BFS in shortlex order over (path, derivative state).
  struct State {
    std::vector<LinkType> path;
    Pre pre;
  };
  std::deque<State> queue;
  queue.push_back({{}, *this});
  while (!queue.empty() && out.size() < limit) {
    State state = std::move(queue.front());
    queue.pop_front();
    if (state.pre.ContainsNull()) out.push_back(state.path);
    if (state.path.size() >= max_len) continue;
    for (LinkType t :
         {LinkType::kInterior, LinkType::kLocal, LinkType::kGlobal}) {
      Pre next = state.pre.Derive(t);
      if (next.IsNever()) continue;
      std::vector<LinkType> path = state.path;
      path.push_back(t);
      queue.push_back({std::move(path), std::move(next)});
    }
  }
  return out;
}

bool Pre::DecomposeStarPrefix(StarPrefix* out) const {
  const auto view_repeat = [](const NodeRef& n, StarPrefix* sp) -> bool {
    if (n == nullptr || n->kind != PreKind::kRepeat) return false;
    const NodeRef& child = n->children[0];
    if (child->kind != PreKind::kLink) return false;
    sp->link = child->link;
    sp->bound = n->max;
    sp->unbounded = n->unbounded;
    return true;
  };

  if (kind() == PreKind::kRepeat) {
    if (!view_repeat(node_, out)) return false;
    out->rest = Empty();
    return true;
  }
  if (kind() == PreKind::kConcat) {
    if (!view_repeat(node_->children[0], out)) return false;
    std::vector<Pre> rest_parts;
    for (size_t i = 1; i < node_->children.size(); ++i) {
      rest_parts.push_back(Pre(node_->children[i]));
    }
    out->rest = ConcatAll(rest_parts);
    return true;
  }
  return false;
}

Pre Pre::MultipleRewriteOnce() const {
  StarPrefix sp;
  const bool decomposed = DecomposeStarPrefix(&sp);
  WEBDIS_CHECK(decomposed) << "MultipleRewriteOnce on non-star-prefix PRE "
                           << ToString();
  WEBDIS_CHECK(sp.unbounded || sp.bound >= 1);
  Pre middle;
  if (sp.unbounded) {
    middle = RepeatUnbounded(Link(sp.link));
  } else if (sp.bound > 1) {
    middle = Repeat(Link(sp.link), sp.bound - 1);
  } else {
    middle = Empty();
  }
  return ConcatAll({Link(sp.link), middle, sp.rest});
}

std::string Pre::CanonicalKey() const {
  switch (kind()) {
    case PreKind::kEmpty:
      return "e";
    case PreKind::kNever:
      return "0";
    case PreKind::kLink:
      // The null link matches exactly the zero-length path: canonically
      // identical to ε (they differ only in how they print).
      if (node_->link == LinkType::kNull) return "e";
      return std::string(1, html::LinkTypeSymbol(node_->link));
    case PreKind::kConcat: {
      std::string out = "C(";
      for (const NodeRef& c : node_->children) out += Pre(c).CanonicalKey();
      out += ")";
      return out;
    }
    case PreKind::kAlt: {
      std::vector<std::string> keys;
      for (const NodeRef& c : node_->children) {
        keys.push_back(Pre(c).CanonicalKey());
      }
      std::sort(keys.begin(), keys.end());
      std::string out = "A(";
      for (const std::string& k : keys) {
        out += k;
        out += ",";
      }
      out += ")";
      return out;
    }
    case PreKind::kRepeat: {
      std::string out = "R";
      out += node_->unbounded ? "*" : std::to_string(node_->max);
      out += "(";
      out += Pre(node_->children[0]).CanonicalKey();
      out += ")";
      return out;
    }
  }
  return "?";
}

bool Pre::Equals(const Pre& other) const {
  return CanonicalKey() == other.CanonicalKey();
}

namespace {

/// Precedence levels for printing: alt(0) < concat(1) < repeat(2) < atom(3).
int Precedence(PreKind kind) {
  switch (kind) {
    case PreKind::kAlt:
      return 0;
    case PreKind::kConcat:
      return 1;
    case PreKind::kRepeat:
      return 2;
    default:
      return 3;
  }
}

}  // namespace

std::string Pre::ToString() const {
  switch (kind()) {
    case PreKind::kEmpty:
      return "N";  // the paper writes the zero-length path as the null link
    case PreKind::kNever:
      return "0";
    case PreKind::kLink:
      return std::string(1, html::LinkTypeSymbol(node_->link));
    case PreKind::kConcat: {
      std::string out;
      for (size_t i = 0; i < node_->children.size(); ++i) {
        if (i > 0) out += ".";
        const Pre child(node_->children[i]);
        if (Precedence(child.kind()) < Precedence(PreKind::kConcat)) {
          out += "(" + child.ToString() + ")";
        } else {
          out += child.ToString();
        }
      }
      return out;
    }
    case PreKind::kAlt: {
      std::string out;
      for (size_t i = 0; i < node_->children.size(); ++i) {
        if (i > 0) out += " | ";
        out += Pre(node_->children[i]).ToString();
      }
      return out;
    }
    case PreKind::kRepeat: {
      const Pre child(node_->children[0]);
      std::string inner = child.ToString();
      if (Precedence(child.kind()) < Precedence(PreKind::kRepeat)) {
        inner = "(" + inner + ")";
      }
      if (node_->unbounded) return inner + "*";
      return inner + "*" + std::to_string(node_->max);
    }
  }
  return "?";
}

void Pre::EncodeTo(serialize::Encoder* enc) const {
  enc->PutU8(static_cast<uint8_t>(kind()));
  switch (kind()) {
    case PreKind::kEmpty:
    case PreKind::kNever:
      break;
    case PreKind::kLink:
      enc->PutU8(static_cast<uint8_t>(node_->link));
      break;
    case PreKind::kConcat:
    case PreKind::kAlt:
      enc->PutVarint(node_->children.size());
      for (const NodeRef& c : node_->children) Pre(c).EncodeTo(enc);
      break;
    case PreKind::kRepeat:
      enc->PutBool(node_->unbounded);
      enc->PutU32(node_->max);
      Pre(node_->children[0]).EncodeTo(enc);
      break;
  }
}

Status Pre::CheckEncodable() const { return CheckEncodableAt(0); }

Status Pre::CheckEncodableAt(int depth) const {
  if (depth > serialize::kMaxTreeDepth) {
    return Status::InvalidArgument(StringPrintf(
        "PRE nested deeper than %d levels", serialize::kMaxTreeDepth));
  }
  if (node_ == nullptr) return Status::OK();
  if (node_->children.size() > kMaxOperands) {
    return Status::InvalidArgument(
        StringPrintf("PRE operator with more than %llu operands",
                     static_cast<unsigned long long>(kMaxOperands)));
  }
  for (const NodeRef& child : node_->children) {
    WEBDIS_RETURN_IF_ERROR(Pre(child).CheckEncodableAt(depth + 1));
  }
  return Status::OK();
}

namespace {

Result<Pre> DecodePre(serialize::Decoder* dec, int depth) {
  if (depth > serialize::kMaxTreeDepth) {
    return Status::Corruption("PRE tree too deep");
  }
  uint8_t tag = 0;
  WEBDIS_RETURN_IF_ERROR(dec->GetU8(&tag));
  switch (static_cast<PreKind>(tag)) {
    case PreKind::kEmpty:
      return Pre::Empty();
    case PreKind::kNever:
      return Pre::Never();
    case PreKind::kLink: {
      uint8_t link = 0;
      WEBDIS_RETURN_IF_ERROR(dec->GetU8(&link));
      if (link > static_cast<uint8_t>(LinkType::kNull)) {
        return Status::Corruption("bad link type tag");
      }
      return Pre::Link(static_cast<LinkType>(link));
    }
    case PreKind::kConcat:
    case PreKind::kAlt: {
      uint64_t count = 0;
      WEBDIS_RETURN_IF_ERROR(
          dec->GetCount("PRE operand", Pre::kMaxOperands,
                        /*min_bytes_per_item=*/1,
                        &count));
      std::vector<Pre> parts;
      parts.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        Pre part;
        WEBDIS_ASSIGN_OR_RETURN(part, DecodePre(dec, depth + 1));
        parts.push_back(std::move(part));
      }
      return static_cast<PreKind>(tag) == PreKind::kConcat
                 ? Pre::ConcatAll(parts)
                 : Pre::AltAll(parts);
    }
    case PreKind::kRepeat: {
      bool unbounded = false;
      WEBDIS_RETURN_IF_ERROR(dec->GetBool(&unbounded));
      uint32_t max = 0;
      WEBDIS_RETURN_IF_ERROR(dec->GetU32(&max));
      Pre child;
      WEBDIS_ASSIGN_OR_RETURN(child, DecodePre(dec, depth + 1));
      return unbounded ? Pre::RepeatUnbounded(child)
                       : Pre::Repeat(child, max);
    }
    default:
      return Status::Corruption("bad PRE kind tag");
  }
}

}  // namespace

Result<Pre> Pre::DecodeFrom(serialize::Decoder* dec) {
  return DecodePre(dec, 0);
}

}  // namespace webdis::pre
