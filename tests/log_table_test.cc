// Differential oracle for the node-query log table: server::LogTable (keys
// interned once per table, (Pre, LogPreForm) pairs shared with the form
// memo) against the copy-per-entry table it replaced
// (tests/legacy_log_table.h). Seeded arrival streams drive both tables
// through the same operations; every decision, rewritten PRE, Stats field,
// size() and EncodeTo image must agree, and DecodeFrom round trips must
// reproduce the same bytes and the same later behaviour.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "serialize/encoder.h"
#include "server/log_table.h"
#include "tests/legacy_log_table.h"

namespace webdis::server {
namespace {

using query::CloneState;

pre::Pre P(const std::string& s) { return pre::Pre::Parse(s).value(); }

std::vector<uint8_t> Bytes(const LogTable& table) {
  serialize::Encoder enc;
  table.EncodeTo(&enc);
  return enc.Release();
}

std::vector<uint8_t> Bytes(const legacy_log::LogTable& table) {
  serialize::Encoder enc;
  table.EncodeTo(&enc);
  return enc.Release();
}

std::string DecisionText(const pre::LogDecision& d) {
  std::string out = std::to_string(static_cast<int>(d.comparison));
  if (d.rewritten.has_value()) out += " " + d.rewritten->ToString();
  return out;
}

/// Both tables side by side; every call asserts agreement.
class Pair {
 public:
  void Check(const std::string& node, const std::string& query,
             const CloneState& state) {
    const pre::LogDecision got = table_.Check(node, query, state);
    const pre::LogDecision want = legacy_.Check(node, query, state);
    ASSERT_EQ(DecisionText(got), DecisionText(want))
        << node << " " << query << " " << state.num_q << " "
        << state.rem_pre.ToString();
    if (got.rewritten.has_value()) {
      ASSERT_TRUE(got.rewritten->Equals(*want.rewritten));
    }
    ExpectSameCounts();
  }

  void PurgeQuery(const std::string& query) {
    table_.PurgeQuery(query);
    legacy_.PurgeQuery(query);
    ExpectSameCounts();
  }

  void Purge() {
    table_.Purge();
    legacy_.Purge();
    ExpectSameCounts();
  }

  void ExpectSameBytes() const {
    ASSERT_EQ(Bytes(table_), Bytes(legacy_));
  }

  /// Replaces both tables by decodes of their own images. The stats are
  /// not part of the image, so both restart from zero.
  void RoundTrip() {
    const std::vector<uint8_t> image = Bytes(table_);
    ASSERT_EQ(image, Bytes(legacy_));
    serialize::Decoder dec(image);
    LogTable decoded;
    ASSERT_TRUE(LogTable::DecodeFrom(&dec, &decoded).ok());
    ASSERT_TRUE(dec.ExpectAtEnd("log table").ok());
    serialize::Decoder legacy_dec(image);
    legacy_log::LogTable legacy_decoded;
    ASSERT_TRUE(
        legacy_log::LogTable::DecodeFrom(&legacy_dec, &legacy_decoded).ok());
    ASSERT_EQ(Bytes(decoded), image);
    table_ = std::move(decoded);
    legacy_ = std::move(legacy_decoded);
    ExpectSameCounts();
  }

  /// Continues on a copy (the snapshot path copies the table); the
  /// original is mutated afterwards to prove the copy shares no key.
  void ContinueOnCopy() {
    LogTable copy = table_;
    ASSERT_EQ(Bytes(copy), Bytes(table_));
    const size_t before = copy.size();
    table_.Purge();
    ASSERT_EQ(copy.size(), before);
    table_ = copy;
    ExpectSameCounts();
    ExpectSameBytes();
  }

  void ExpectSameCounts() const {
    ASSERT_EQ(table_.size(), legacy_.size());
    const LogTable::Stats& a = table_.stats();
    const legacy_log::LogTable::Stats& b = legacy_.stats();
    ASSERT_EQ(a.checks, b.checks);
    ASSERT_EQ(a.duplicates, b.duplicates);
    ASSERT_EQ(a.superset_rewrites, b.superset_rewrites);
    ASSERT_EQ(a.new_entries, b.new_entries);
    ASSERT_EQ(a.form_memo_hits, b.form_memo_hits);
  }

  const LogTable& table() const { return table_; }

 private:
  LogTable table_;
  legacy_log::LogTable legacy_;
};

/// The PRE shapes the log rules distinguish: `(L|G)*k` prefixes, `A*m·B`
/// families whose bounds make later arrivals duplicates or superset
/// rewrites, unbounded stars, and plain unrelated expressions.
std::vector<pre::Pre> ShapePool() {
  std::vector<pre::Pre> pool;
  for (int k = 1; k <= 4; ++k) {
    pool.push_back(P("(L|G)*" + std::to_string(k)));
    pool.push_back(P("L*" + std::to_string(k) + ".G"));
    pool.push_back(P("G*" + std::to_string(k) + ".L"));
    pool.push_back(P("(L|G)*" + std::to_string(k) + ".G"));
  }
  for (const char* text : {"L*.G", "G*.L", "(L|G)*", "L", "G", "N", "L.G",
                           "N | G.(L*4)", "G.(G|L)"}) {
    pool.push_back(P(text));
  }
  return pool;
}

void DriveStream(uint64_t seed, int steps, Pair* pair) {
  Rng rng(seed);
  const std::vector<pre::Pre> shapes = ShapePool();
  const std::vector<std::string> nodes = {
      "http://a.example/", "http://a.example/x", "http://b.example/",
      "http://b.example/very/long/path/beyond/small-string/size.html",
      "http://c.example/y"};
  const std::vector<std::string> queries = {
      "maya@user.site:9000#1", "maya@user.site:9001#2",
      "ravi@user.site:9002#3", "q"};
  for (int step = 0; step < steps; ++step) {
    const uint64_t roll = rng.Uniform(1000);
    if (roll < 8) {
      pair->PurgeQuery(queries[rng.Uniform(queries.size())]);
    } else if (roll < 10) {
      pair->Purge();
    } else if (roll < 14) {
      pair->RoundTrip();
    } else if (roll < 16) {
      pair->ContinueOnCopy();
    } else {
      const CloneState state{static_cast<uint32_t>(rng.UniformRange(1, 3)),
                             shapes[rng.Uniform(shapes.size())]};
      pair->Check(nodes[rng.Uniform(nodes.size())],
                  queries[rng.Uniform(queries.size())], state);
    }
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "seed " << seed << " step " << step;
      return;
    }
    if (step % 50 == 0) {
      pair->ExpectSameBytes();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  pair->ExpectSameBytes();
}

TEST(LogTableDifferentialTest, SeededStreamsAgreeWithLegacy) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Pair pair;
    DriveStream(seed, 2000, &pair);
    if (HasFatalFailure()) return;
  }
}

TEST(LogTableDifferentialTest, SupersetChainsRewriteIdentically) {
  Pair pair;
  // A*m·B arrivals in rising, falling and repeated order: each rise is a
  // superset rewrite that replaces the logged entry, each fall a duplicate.
  for (int m : {1, 3, 2, 5, 5, 4, 7, 1, 9}) {
    for (const char* query : {"q1", "q2"}) {
      pair.Check("http://n/", query,
                 CloneState{1, P("L*" + std::to_string(m) + ".G")});
      pair.Check("http://n/", query,
                 CloneState{2, P("(L|G)*" + std::to_string(m) + ".G")});
      if (HasFatalFailure()) return;
    }
  }
  pair.Check("http://n/", "q1", CloneState{1, P("L*.G")});
  pair.Check("http://n/", "q1", CloneState{1, P("L*12.G")});
  pair.ExpectSameBytes();
  pair.RoundTrip();
  pair.Check("http://n/", "q2", CloneState{1, P("L*10.G")});
  pair.ExpectSameBytes();
}

TEST(LogTableDifferentialTest, FormMemoClearKeepsEntriesValid) {
  Pair pair;
  // More distinct PREs than the memo holds: the wholesale clear must leave
  // every logged entry comparable, and the memo hits counted the same.
  int distinct = 0;
  for (int a = 1; a <= 70; ++a) {
    for (int b = 1; b <= 70; ++b) {
      const pre::Pre pre =
          P("L*" + std::to_string(a) + ".G*" + std::to_string(b));
      pair.Check("http://n/" + std::to_string(a % 3), "q",
                 CloneState{1, pre});
      ++distinct;
      if (HasFatalFailure()) return;
    }
  }
  ASSERT_GT(distinct, 4096);
  // Re-arrivals after the clear: duplicates served from the surviving
  // entries, and memo hits only for forms cached since the clear.
  for (int a = 1; a <= 70; a += 7) {
    pair.Check("http://n/" + std::to_string(a % 3), "q",
               CloneState{1, P("L*" + std::to_string(a) + ".G*1")});
    pair.Check("http://n/" + std::to_string(a % 3), "q",
               CloneState{1, P("L*" + std::to_string(a) + ".G*70")});
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(pair.table().stats().form_memo_hits, 0u);
  pair.ExpectSameBytes();
  pair.RoundTrip();
  pair.ExpectSameBytes();
}

TEST(LogTableDifferentialTest, PurgeQueryForgetsOnlyThatQuery) {
  Pair pair;
  for (const char* query : {"q1", "q2", "q3"}) {
    for (const char* node : {"http://a/", "http://b/", "http://c/"}) {
      pair.Check(node, query, CloneState{1, P("L*2.G")});
    }
  }
  pair.PurgeQuery("q2");
  pair.PurgeQuery("absent");
  pair.ExpectSameBytes();
  for (const char* query : {"q1", "q2", "q3"}) {
    pair.Check("http://b/", query, CloneState{1, P("L*2.G")});
  }
  pair.ExpectSameBytes();
  // q1 and q3 kept their three entries; q2 logged b anew.
  EXPECT_EQ(pair.table().size(), 7u);
}

}  // namespace
}  // namespace webdis::server
