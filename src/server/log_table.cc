#include "server/log_table.h"

#include "serialize/encoder.h"

namespace webdis::server {

LogTable::LogTable(const LogTable& other)
    : form_memo_(other.form_memo_), stats_(other.stats_) {
  for (const auto& [key, pres] : other.entries_) {
    entries_.emplace_hint(entries_.end(),
                          Key{Intern(&node_urls_, *key.node_url),
                              Intern(&query_keys_, *key.query_key),
                              key.num_q},
                          pres);
  }
}

LogTable& LogTable::operator=(const LogTable& other) {
  if (this != &other) *this = LogTable(other);
  return *this;
}

const std::string* LogTable::Intern(Pool* pool, std::string_view s) {
  auto it = pool->find(s);
  if (it == pool->end()) it = pool->emplace(s).first;
  return &*it;
}

std::vector<LogTable::SharedPre>& LogTable::Group(std::string_view node_url,
                                                  std::string_view query_key,
                                                  uint32_t num_q) {
  auto it = entries_.find(KeyView{node_url, query_key, num_q});
  if (it == entries_.end()) {
    it = entries_
             .emplace(Key{Intern(&node_urls_, node_url),
                          Intern(&query_keys_, query_key), num_q},
                      std::vector<SharedPre>())
             .first;
  }
  return it->second;
}

LogTable::SharedPre LogTable::CanonicalFormFor(const pre::Pre& pre) {
  serialize::Encoder enc;
  pre.EncodeTo(&enc);
  std::string memo_key(reinterpret_cast<const char*>(enc.data().data()),
                       enc.size());
  auto it = form_memo_.find(memo_key);
  if (it != form_memo_.end()) {
    ++stats_.form_memo_hits;
    return it->second;
  }
  if (form_memo_.size() >= kFormMemoMax) form_memo_.clear();
  auto logged =
      std::make_shared<const LoggedPre>(LoggedPre{pre, pre::MakeLogPreForm(pre)});
  form_memo_.emplace(std::move(memo_key), logged);
  return logged;
}

pre::LogDecision LogTable::Check(const std::string& node_url,
                                 const std::string& query_key,
                                 const query::CloneState& state) {
  ++stats_.checks;
  std::vector<SharedPre>& logged = Group(node_url, query_key, state.num_q);
  SharedPre incoming = CanonicalFormFor(state.rem_pre);
  for (SharedPre& existing : logged) {
    const pre::LogDecision decision =
        pre::ComparePreForLog(state.rem_pre, incoming->form, existing->form);
    switch (decision.comparison) {
      case pre::LogComparison::kDuplicate:
        ++stats_.duplicates;
        return decision;
      case pre::LogComparison::kSupersetRewrite:
        // Replace the covered entry with the wider incoming PRE
        // (Section 3.1.1 step 1), then continue with the rewrite.
        existing = std::move(incoming);
        ++stats_.superset_rewrites;
        return decision;
      case pre::LogComparison::kUnrelated:
        break;
    }
  }
  logged.push_back(std::move(incoming));
  ++stats_.new_entries;
  return pre::LogDecision{};  // kUnrelated: process normally
}

void LogTable::PurgeQuery(const std::string& query_key) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (*it->first.query_key == query_key) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  query_keys_.erase(query_key);  // no entry points at it any more
}

size_t LogTable::size() const {
  size_t total = 0;
  for (const auto& [key, pres] : entries_) total += pres.size();
  return total;
}

void LogTable::EncodeTo(serialize::Encoder* enc) const {
  enc->PutVarint(entries_.size());
  for (const auto& [key, pres] : entries_) {
    enc->PutString(*key.node_url);
    enc->PutString(*key.query_key);
    enc->PutU32(key.num_q);
    enc->PutVarint(pres.size());
    for (const SharedPre& logged : pres) {
      logged->pre.EncodeTo(enc);
    }
  }
}

Status LogTable::DecodeFrom(serialize::Decoder* dec, LogTable* out) {
  out->entries_.clear();
  out->node_urls_.clear();
  out->query_keys_.clear();
  uint64_t group_count = 0;
  WEBDIS_RETURN_IF_ERROR(
      dec->GetCount("log-table group", 10000000, /*min_bytes_per_item=*/7,
                    &group_count));
  for (uint64_t g = 0; g < group_count; ++g) {
    std::string node_url;
    std::string query_key;
    uint32_t num_q = 0;
    WEBDIS_RETURN_IF_ERROR(dec->GetString(&node_url));
    WEBDIS_RETURN_IF_ERROR(dec->GetString(&query_key));
    WEBDIS_RETURN_IF_ERROR(dec->GetU32(&num_q));
    uint64_t pre_count = 0;
    WEBDIS_RETURN_IF_ERROR(
        dec->GetCount("logged PRE", 10000000, /*min_bytes_per_item=*/1,
                      &pre_count));
    std::vector<SharedPre> logged;
    logged.reserve(pre_count);
    for (uint64_t i = 0; i < pre_count; ++i) {
      auto pre = pre::Pre::DecodeFrom(dec);
      if (!pre.ok()) return pre.status();
      pre::LogPreForm form = pre::MakeLogPreForm(*pre);
      logged.push_back(std::make_shared<const LoggedPre>(
          LoggedPre{std::move(pre).value(), std::move(form)}));
    }
    // A repeated group replaces the earlier one, as map assignment did.
    out->Group(node_url, query_key, num_q) = std::move(logged);
  }
  return Status::OK();
}

}  // namespace webdis::server
