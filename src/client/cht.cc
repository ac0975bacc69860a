#include "client/cht.h"

#include <set>

#include "pre/log_equivalence.h"

namespace webdis::client {

std::string CurrentHostsTable::BalanceKey(const std::string& node_url,
                                          const query::CloneState& state) {
  return node_url + '\x1f' + std::to_string(state.num_q) + '\x1f' +
         state.rem_pre.CanonicalKey();
}

void CurrentHostsTable::Bump(const std::string& node_url,
                             const query::CloneState& state, int delta,
                             SimTime now) {
  KeyBalance& kb = balance_[BalanceKey(node_url, state)];
  if (kb.node_url.empty()) {
    kb.node_url = node_url;
    kb.state = state;
  }
  kb.last_activity = std::max(kb.last_activity, now);
  const bool was_zero = kb.balance == 0;
  kb.balance += delta;
  if (was_zero && kb.balance != 0) {
    ++nonzero_keys_;
  } else if (!was_zero && kb.balance == 0) {
    --nonzero_keys_;
  }
}

bool CurrentHostsTable::Add(const std::string& node_url,
                            const query::CloneState& state, SimTime now) {
  ++total_adds_;
  if (robust_) Bump(node_url, state, +1, now);
  if (dedup_) {
    bool suppress = false;
    bool matched = false;
    std::vector<pre::Pre>& logged = mirror_[{node_url, state.num_q}];
    for (pre::Pre& existing : logged) {
      const pre::LogDecision decision =
          pre::ComparePreForLog(state.rem_pre, existing);
      if (decision.comparison == pre::LogComparison::kDuplicate) {
        suppress = true;
        break;
      }
      if (decision.comparison == pre::LogComparison::kSupersetRewrite) {
        // The target will rewrite and process it — keep the entry, widen
        // the mirror record.
        existing = state.rem_pre;
        matched = true;
        break;
      }
    }
    if (suppress) {
      ++suppressed_;
      return false;  // the target server will drop this clone
    }
    if (!matched) logged.push_back(state.rem_pre);
  }
  entries_.push_back(Entry{node_url, state, false, now});
  ++active_;
  max_active_ = std::max(max_active_, active_);
  return true;
}

bool CurrentHostsTable::MarkDeleted(const std::string& node_url,
                                    const query::CloneState& state,
                                    SimTime now) {
  if (robust_) Bump(node_url, state, -1, now);
  for (Entry& entry : entries_) {
    if (!entry.deleted && entry.node_url == node_url &&
        entry.state.Equals(state)) {
      entry.deleted = true;
      --active_;
      return true;
    }
  }
  ++unmatched_deletes_;
  return false;
}

std::vector<CurrentHostsTable::Entry>
CurrentHostsTable::DrainOutstanding() {
  std::vector<Entry> outstanding;
  if (robust_) {
    // Positive-balance keys are exactly the clone destinations the user
    // site is still waiting on (including dedup-suppressed ones whose
    // drop-reports will never come from a dead server).
    for (auto& [key, kb] : balance_) {
      if (kb.balance > 0) {
        outstanding.push_back(Entry{kb.node_url, kb.state, false});
      }
      kb.balance = 0;
    }
    nonzero_keys_ = 0;
    for (Entry& entry : entries_) entry.deleted = true;
    active_ = 0;
    return outstanding;
  }
  for (Entry& entry : entries_) {
    if (entry.deleted) continue;
    outstanding.push_back(entry);
    entry.deleted = true;
  }
  active_ = 0;
  return outstanding;
}

std::vector<CurrentHostsTable::Entry> CurrentHostsTable::DrainExpired(
    SimTime now, SimDuration deadline) {
  std::vector<Entry> expired;
  if (robust_) {
    std::set<std::string> expired_keys;
    for (auto& [key, kb] : balance_) {
      if (kb.balance == 0) continue;
      if (now < kb.last_activity + deadline) continue;
      expired.push_back(Entry{kb.node_url, kb.state, false, kb.last_activity});
      kb.balance = 0;
      --nonzero_keys_;
      expired_keys.insert(key);
    }
    // Keep the entry list consistent with the zeroed balances so
    // active_count() reflects the GC.
    if (!expired_keys.empty()) {
      for (Entry& entry : entries_) {
        if (entry.deleted) continue;
        if (expired_keys.contains(BalanceKey(entry.node_url, entry.state))) {
          entry.deleted = true;
          --active_;
        }
      }
    }
    return expired;
  }
  for (Entry& entry : entries_) {
    if (entry.deleted) continue;
    if (now < entry.last_activity + deadline) continue;
    expired.push_back(entry);
    entry.deleted = true;
    --active_;
  }
  return expired;
}

bool CurrentHostsTable::AllDeleted() const {
  if (robust_) {
    return total_adds_ > 0 && nonzero_keys_ == 0;
  }
  return total_count() > 0 && active_ == 0;
}

void CurrentHostsTable::Release() {
  entries_ = std::vector<Entry>();
  balance_.clear();
  mirror_.clear();
}

}  // namespace webdis::client
