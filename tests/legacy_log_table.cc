#include "tests/legacy_log_table.h"

#include "serialize/encoder.h"

namespace webdis::legacy_log {

pre::LogPreForm LogTable::CanonicalFormFor(const pre::Pre& pre) {
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
  pre::LogPreForm form = pre::MakeLogPreForm(pre);
  form_memo_.emplace(std::move(memo_key), form);
  return form;
}

pre::LogDecision LogTable::Check(const std::string& node_url,
                                 const std::string& query_key,
                                 const query::CloneState& state) {
  ++stats_.checks;
  const Key key{node_url, query_key, state.num_q};
  std::vector<LoggedPre>& logged = entries_[key];
  pre::LogPreForm incoming_form = CanonicalFormFor(state.rem_pre);
  for (LoggedPre& existing : logged) {
    const pre::LogDecision decision =
        pre::ComparePreForLog(state.rem_pre, incoming_form, existing.form);
    switch (decision.comparison) {
      case pre::LogComparison::kDuplicate:
        ++stats_.duplicates;
        return decision;
      case pre::LogComparison::kSupersetRewrite:
        // Replace the covered entry with the wider incoming PRE
        // (Section 3.1.1 step 1), then continue with the rewrite.
        existing.pre = state.rem_pre;
        existing.form = std::move(incoming_form);
        ++stats_.superset_rewrites;
        return decision;
      case pre::LogComparison::kUnrelated:
        break;
    }
  }
  logged.push_back(LoggedPre{state.rem_pre, std::move(incoming_form)});
  ++stats_.new_entries;
  return pre::LogDecision{};  // kUnrelated: process normally
}

void LogTable::PurgeQuery(const std::string& query_key) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first.query_key == query_key) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

size_t LogTable::size() const {
  size_t total = 0;
  for (const auto& [key, pres] : entries_) total += pres.size();
  return total;
}

void LogTable::EncodeTo(serialize::Encoder* enc) const {
  enc->PutVarint(entries_.size());
  for (const auto& [key, pres] : entries_) {
    enc->PutString(key.node_url);
    enc->PutString(key.query_key);
    enc->PutU32(key.num_q);
    enc->PutVarint(pres.size());
    for (const LoggedPre& logged : pres) {
      logged.pre.EncodeTo(enc);
    }
  }
}

Status LogTable::DecodeFrom(serialize::Decoder* dec, LogTable* out) {
  out->entries_.clear();
  uint64_t group_count = 0;
  WEBDIS_RETURN_IF_ERROR(
      dec->GetCount("log-table group", 10000000, /*min_bytes_per_item=*/7,
                    &group_count));
  for (uint64_t g = 0; g < group_count; ++g) {
    Key key;
    WEBDIS_RETURN_IF_ERROR(dec->GetString(&key.node_url));
    WEBDIS_RETURN_IF_ERROR(dec->GetString(&key.query_key));
    WEBDIS_RETURN_IF_ERROR(dec->GetU32(&key.num_q));
    uint64_t pre_count = 0;
    WEBDIS_RETURN_IF_ERROR(
        dec->GetCount("logged PRE", 10000000, /*min_bytes_per_item=*/1,
                      &pre_count));
    std::vector<LoggedPre> logged;
    logged.reserve(pre_count);
    for (uint64_t i = 0; i < pre_count; ++i) {
      auto pre = pre::Pre::DecodeFrom(dec);
      if (!pre.ok()) return pre.status();
      pre::LogPreForm form = pre::MakeLogPreForm(*pre);
      logged.push_back(LoggedPre{std::move(pre).value(), std::move(form)});
    }
    out->entries_[key] = std::move(logged);
  }
  return Status::OK();
}

}  // namespace webdis::legacy_log
