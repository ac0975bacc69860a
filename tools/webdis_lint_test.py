#!/usr/bin/env python3
"""Unit tests for webdis-lint: each invariant must catch a deliberate break.

Builds minimal synthetic repo trees in a temp dir and asserts that the
checker (a) passes a consistent tree, and (b) fails — with the right rule
tag — when exactly one invariant is broken. This is the acceptance proof
that the CI lint job actually gates: a checker that cannot fail is
decoration.
"""

import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import webdis_lint  # noqa: E402


TRANSPORT_H = """\
enum class MessageType : uint8_t {
  kPing = 1,  // payload: u64 nonce
  kEcho = 2,  // payload: struct query::Echo
  kBusy = 3,  // payload: u64 transfer_seq
};
"""

TRANSPORT_CC = """\
case MessageType::kPing:
case MessageType::kEcho:
case MessageType::kBusy:
"""

QUERY_H = """\
struct Echo {
  void EncodeTo(serialize::Encoder* enc) const;
  static Status DecodeFrom(serialize::Decoder* dec, Echo* out);
};
"""

GOLDEN_CC = """\
TEST(WireGoldenTest, PingFrame) { Use(net::MessageType::kPing); }
TEST(WireGoldenTest, EchoFrame) { Use(net::MessageType::kEcho); }
TEST(WireGoldenTest, BusyFrame) { Use(net::MessageType::kBusy); }
"""

PROTOCOL_MD = """\
## Ping (type 1)
## Echo (type 2)
## Busy (type 3)
"""

PERSIST_H = """\
enum class WalRecordType : uint8_t {
  kCloneAdmitted = 1,  // payload: struct server::WalCloneAdmitted
  kCloneCompleted = 2,  // payload: struct server::WalCloneCompleted
};
struct WalCloneAdmitted {
  void EncodeTo(serialize::Encoder* enc) const;
  static Status DecodeFrom(serialize::Decoder* dec, WalCloneAdmitted* out);
};
struct WalCloneCompleted {
  void EncodeTo(serialize::Encoder* enc) const;
  static Status DecodeFrom(serialize::Decoder* dec, WalCloneCompleted* out);
};
"""

PERSIST_CC = """\
case WalRecordType::kCloneAdmitted:
case WalRecordType::kCloneCompleted:
"""

PERSIST_GOLDEN_CC = """\
TEST(PersistGoldenTest, A) { Use(server::WalRecordType::kCloneAdmitted); }
TEST(PersistGoldenTest, C) { Use(server::WalRecordType::kCloneCompleted); }
"""

PERSIST_PROTOCOL_MD = PROTOCOL_MD + """\
## CloneAdmitted (wal record 1)
## CloneCompleted (wal record 2)
"""


class LintTreeTest(unittest.TestCase):
    def setUp(self):
        self.root = tempfile.mkdtemp(prefix="webdis_lint_test_")
        self.addCleanup(shutil.rmtree, self.root)

    def write(self, rel, content):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)

    def write_consistent_tree(self):
        self.write("src/net/transport.h", TRANSPORT_H)
        self.write("src/net/transport.cc", TRANSPORT_CC)
        self.write("src/query/echo.h", QUERY_H)
        self.write("tests/wire_golden_test.cc", GOLDEN_CC)
        self.write("PROTOCOL.md", PROTOCOL_MD)

    def run_lint(self, rules):
        linter = webdis_lint.Linter(self.root)
        if "wire-parity" in rules:
            linter.check_wire_parity()
        if "wal-parity" in rules:
            linter.check_wal_parity()
        if "clock" in rules:
            linter.check_clock_hygiene()
        if "naked-new" in rules:
            linter.check_naked_new()
        if "lock-order" in rules:
            linter.check_lock_order()
        if "iter-determinism" in rules:
            linter.check_iter_determinism()
        if "web-interned-tables" in rules:
            linter.check_web_interned_tables()
        return linter.errors

    # -- wire-parity ---------------------------------------------------------

    def test_consistent_tree_is_clean(self):
        self.write_consistent_tree()
        self.assertEqual(self.run_lint({"wire-parity", "clock", "naked-new"}),
                         [])

    def test_missing_golden_frame_fails(self):
        self.write_consistent_tree()
        self.write("tests/wire_golden_test.cc",
                   "TEST(WireGoldenTest, PingFrame) "
                   "{ Use(net::MessageType::kPing); }\n")
        errors = self.run_lint({"wire-parity"})
        self.assertTrue(any("[wire-parity]" in e and "kEcho" in e
                            and "golden" in e for e in errors), errors)

    def test_missing_tostring_case_fails(self):
        self.write_consistent_tree()
        self.write("src/net/transport.cc", "case MessageType::kPing:\n")
        errors = self.run_lint({"wire-parity"})
        self.assertTrue(any("MessageTypeToString" in e and "kEcho" in e
                            for e in errors), errors)

    def test_missing_decoder_fails(self):
        self.write_consistent_tree()
        self.write("src/query/echo.h",
                   "struct Echo { void EncodeTo(serialize::Encoder*) "
                   "const; };\n")
        errors = self.run_lint({"wire-parity"})
        self.assertTrue(any("DecodeFrom" in e and "kEcho" in e
                            for e in errors), errors)

    def test_missing_payload_annotation_fails(self):
        self.write_consistent_tree()
        self.write("src/net/transport.h",
                   "enum class MessageType : uint8_t {\n"
                   "  kPing = 1,  // payload: u64 nonce\n"
                   "  kEcho = 2,\n"
                   "};\n")
        errors = self.run_lint({"wire-parity"})
        self.assertTrue(any("payload" in e and "kEcho" in e for e in errors),
                        errors)

    def test_missing_protocol_entry_fails(self):
        self.write_consistent_tree()
        self.write("PROTOCOL.md", "## Ping (type 1)\n")
        errors = self.run_lint({"wire-parity"})
        self.assertTrue(any("PROTOCOL.md" in e and "kEcho" in e
                            for e in errors), errors)

    # A status/NACK type like kBusy (or the real kOverloaded) carries a
    # primitive payload: the codec requirement is the golden frame +
    # PROTOCOL.md entry, with no struct En/DecodeTo pair to cross-check.

    def test_status_type_missing_golden_frame_fails(self):
        self.write_consistent_tree()
        self.write("tests/wire_golden_test.cc",
                   "TEST(WireGoldenTest, PingFrame) "
                   "{ Use(net::MessageType::kPing); }\n"
                   "TEST(WireGoldenTest, EchoFrame) "
                   "{ Use(net::MessageType::kEcho); }\n")
        errors = self.run_lint({"wire-parity"})
        self.assertTrue(any("[wire-parity]" in e and "kBusy" in e
                            and "golden" in e for e in errors), errors)

    def test_status_type_missing_protocol_entry_fails(self):
        self.write_consistent_tree()
        self.write("PROTOCOL.md", "## Ping (type 1)\n## Echo (type 2)\n")
        errors = self.run_lint({"wire-parity"})
        self.assertTrue(any("PROTOCOL.md" in e and "kBusy" in e
                            for e in errors), errors)

    # A *terminal* status NACK (the real kSiteRetired, PROTOCOL.md §10.2)
    # is wire-wise just another primitive-payload status type: the parity
    # rule must demand its annotation, ToString case, golden frame and
    # PROTOCOL entry exactly like kBusy/kOverloaded — terminality lives in
    # the sender's handling, not the frame, so nothing exempts it.

    def write_terminal_status_tree(self):
        self.write("src/net/transport.h", TRANSPORT_H.replace(
            "};", "  kGone = 4,  // payload: u64 transfer_seq\n};"))
        self.write("src/net/transport.cc",
                   TRANSPORT_CC + "case MessageType::kGone:\n")
        self.write("src/query/echo.h", QUERY_H)
        self.write("tests/wire_golden_test.cc", GOLDEN_CC +
                   "TEST(WireGoldenTest, GoneFrame) "
                   "{ Use(net::MessageType::kGone); }\n")
        self.write("PROTOCOL.md", PROTOCOL_MD + "## Gone (type 4)\n")

    def test_terminal_status_consistent_tree_is_clean(self):
        self.write_terminal_status_tree()
        self.assertEqual(self.run_lint({"wire-parity"}), [])

    def test_terminal_status_missing_golden_frame_fails(self):
        self.write_terminal_status_tree()
        self.write("tests/wire_golden_test.cc", GOLDEN_CC)
        errors = self.run_lint({"wire-parity"})
        self.assertTrue(any("[wire-parity]" in e and "kGone" in e
                            and "golden" in e for e in errors), errors)

    def test_terminal_status_missing_tostring_case_fails(self):
        self.write_terminal_status_tree()
        self.write("src/net/transport.cc", TRANSPORT_CC)
        errors = self.run_lint({"wire-parity"})
        self.assertTrue(any("MessageTypeToString" in e and "kGone" in e
                            for e in errors), errors)

    def test_terminal_status_missing_protocol_entry_fails(self):
        self.write_terminal_status_tree()
        self.write("PROTOCOL.md", PROTOCOL_MD)
        errors = self.run_lint({"wire-parity"})
        self.assertTrue(any("PROTOCOL.md" in e and "kGone" in e
                            for e in errors), errors)

    def test_terminal_status_missing_annotation_fails(self):
        self.write_terminal_status_tree()
        self.write("src/net/transport.h", TRANSPORT_H.replace(
            "};", "  kGone = 4,\n};"))
        errors = self.run_lint({"wire-parity"})
        self.assertTrue(any("payload" in e and "kGone" in e for e in errors),
                        errors)

    # A batch envelope type (like the real kCloneBatch/kReportBatch) is an
    # ordinary struct-payload message: adding it without its golden frame,
    # decoder, or PROTOCOL entry must fail exactly like any other type.

    def write_batch_tree(self):
        self.write("src/net/transport.h", TRANSPORT_H.replace(
            "};", "  kEchoBatch = 9,  // payload: struct query::EchoBatch\n};"))
        self.write("src/net/transport.cc",
                   TRANSPORT_CC + "case MessageType::kEchoBatch:\n")
        self.write("src/query/echo.h", QUERY_H + """\
struct EchoBatch {
  void EncodeTo(serialize::Encoder* enc) const;
  static Status DecodeFrom(serialize::Decoder* dec, EchoBatch* out);
};
""")
        self.write("tests/wire_golden_test.cc", GOLDEN_CC +
                   "TEST(WireGoldenTest, EchoBatchFrame) "
                   "{ Use(net::MessageType::kEchoBatch); }\n")
        self.write("PROTOCOL.md", PROTOCOL_MD + "## EchoBatch (type 9)\n")

    def test_batch_type_consistent_tree_is_clean(self):
        self.write_batch_tree()
        self.assertEqual(self.run_lint({"wire-parity"}), [])

    def test_batch_type_missing_golden_frame_fails(self):
        self.write_batch_tree()
        self.write("tests/wire_golden_test.cc", GOLDEN_CC)
        errors = self.run_lint({"wire-parity"})
        self.assertTrue(any("[wire-parity]" in e and "kEchoBatch" in e
                            and "golden" in e for e in errors), errors)

    def test_batch_type_missing_decoder_fails(self):
        self.write_batch_tree()
        self.write("src/query/echo.h", QUERY_H)  # EchoBatch codec gone
        errors = self.run_lint({"wire-parity"})
        self.assertTrue(any("DecodeFrom" in e and "kEchoBatch" in e
                            for e in errors), errors)

    def test_batch_type_missing_protocol_entry_fails(self):
        self.write_batch_tree()
        self.write("PROTOCOL.md", PROTOCOL_MD)
        errors = self.run_lint({"wire-parity"})
        self.assertTrue(any("PROTOCOL.md" in e and "kEchoBatch" in e
                            for e in errors), errors)

    def test_stale_golden_reference_fails(self):
        self.write_consistent_tree()
        self.write("tests/wire_golden_test.cc",
                   GOLDEN_CC +
                   "TEST(WireGoldenTest, Gone) "
                   "{ Use(net::MessageType::kRetired); }\n")
        errors = self.run_lint({"wire-parity"})
        self.assertTrue(any("kRetired" in e and "not declared" in e
                            for e in errors), errors)

    # -- wal-parity ----------------------------------------------------------

    def write_persist_tree(self):
        self.write("src/server/persist.h", PERSIST_H)
        self.write("src/server/persist.cc", PERSIST_CC)
        self.write("tests/persist_golden_test.cc", PERSIST_GOLDEN_CC)
        self.write("PROTOCOL.md", PERSIST_PROTOCOL_MD)

    def test_wal_parity_consistent_tree_is_clean(self):
        self.write_consistent_tree()
        self.write_persist_tree()
        self.assertEqual(self.run_lint({"wire-parity", "wal-parity"}), [])

    def test_wal_parity_absent_persist_header_is_skipped(self):
        self.write_consistent_tree()  # no src/server/persist.h at all
        self.assertEqual(self.run_lint({"wal-parity"}), [])

    def test_wal_parity_missing_golden_image_fails(self):
        self.write_consistent_tree()
        self.write_persist_tree()
        self.write("tests/persist_golden_test.cc",
                   "TEST(PersistGoldenTest, A) "
                   "{ Use(server::WalRecordType::kCloneAdmitted); }\n")
        errors = self.run_lint({"wal-parity"})
        self.assertTrue(any("[wal-parity]" in e and "kCloneCompleted" in e
                            and "golden" in e for e in errors), errors)

    def test_wal_parity_missing_tostring_case_fails(self):
        self.write_consistent_tree()
        self.write_persist_tree()
        self.write("src/server/persist.cc",
                   "case WalRecordType::kCloneAdmitted:\n")
        errors = self.run_lint({"wal-parity"})
        self.assertTrue(any("WalRecordTypeToString" in e
                            and "kCloneCompleted" in e for e in errors),
                        errors)

    def test_wal_parity_missing_decoder_fails(self):
        self.write_consistent_tree()
        self.write_persist_tree()
        self.write("src/server/persist.h", PERSIST_H.replace(
            "  static Status DecodeFrom(serialize::Decoder* dec, "
            "WalCloneCompleted* out);\n", ""))
        errors = self.run_lint({"wal-parity"})
        self.assertTrue(any("DecodeFrom" in e and "kCloneCompleted" in e
                            for e in errors), errors)

    def test_wal_parity_missing_payload_annotation_fails(self):
        self.write_consistent_tree()
        self.write_persist_tree()
        self.write("src/server/persist.h", PERSIST_H.replace(
            "kCloneCompleted = 2,  // payload: struct server::WalCloneCompleted",
            "kCloneCompleted = 2,"))
        errors = self.run_lint({"wal-parity"})
        self.assertTrue(any("[wal-parity]" in e and "payload" in e
                            and "kCloneCompleted" in e for e in errors),
                        errors)

    def test_wal_parity_missing_protocol_entry_fails(self):
        self.write_consistent_tree()
        self.write_persist_tree()
        self.write("PROTOCOL.md",
                   PROTOCOL_MD + "## CloneAdmitted (wal record 1)\n")
        errors = self.run_lint({"wal-parity"})
        self.assertTrue(any("PROTOCOL.md" in e and "kCloneCompleted" in e
                            for e in errors), errors)

    def test_wal_parity_stale_golden_reference_fails(self):
        self.write_consistent_tree()
        self.write_persist_tree()
        self.write("tests/persist_golden_test.cc",
                   PERSIST_GOLDEN_CC +
                   "TEST(PersistGoldenTest, Gone) "
                   "{ Use(server::WalRecordType::kRetired); }\n")
        errors = self.run_lint({"wal-parity"})
        self.assertTrue(any("kRetired" in e and "not declared" in e
                            for e in errors), errors)

    # -- clock hygiene -------------------------------------------------------

    def test_steady_clock_outside_allowlist_fails(self):
        self.write_consistent_tree()
        self.write("src/core/engine.cc",
                   "auto t = std::chrono::steady_clock::now();\n")
        errors = self.run_lint({"clock"})
        self.assertTrue(any("[clock]" in e and "engine.cc" in e
                            for e in errors), errors)

    def test_rand_in_bench_fails(self):
        self.write_consistent_tree()
        self.write("bench/b.cc", "int x = rand();\n")
        errors = self.run_lint({"clock"})
        self.assertTrue(any("[clock]" in e and "bench" in e for e in errors),
                        errors)

    def test_clock_in_allowlisted_file_passes(self):
        self.write_consistent_tree()
        self.write("src/net/tcp.cc",
                   "auto t = std::chrono::steady_clock::now();\n")
        self.assertEqual(self.run_lint({"clock"}), [])

    def test_clock_with_allow_comment_passes(self):
        self.write_consistent_tree()
        self.write("src/net/tcp.h",
                   "// webdis-lint: allow(clock) — wall-clock timer store\n"
                   "std::chrono::steady_clock::time_point due;\n")
        self.assertEqual(self.run_lint({"clock"}), [])

    def test_clock_in_comment_or_string_passes(self):
        self.write_consistent_tree()
        self.write("src/core/engine.cc",
                   "// never use std::chrono::steady_clock here\n"
                   'const char* kDoc = "std::chrono::steady_clock";\n')
        self.assertEqual(self.run_lint({"clock"}), [])

    # -- naked new -----------------------------------------------------------

    def test_naked_new_fails(self):
        self.write_consistent_tree()
        self.write("src/core/engine.cc", "auto* p = new Engine();\n")
        errors = self.run_lint({"naked-new"})
        self.assertTrue(any("[naked-new]" in e for e in errors), errors)

    def test_naked_new_with_allow_comment_passes(self):
        self.write_consistent_tree()
        self.write("src/core/engine.cc",
                   "// webdis-lint: allow(naked-new) — private ctor factory\n"
                   "return EnginePtr(new Engine(kind));\n")
        self.assertEqual(self.run_lint({"naked-new"}), [])

    def test_make_unique_passes(self):
        self.write_consistent_tree()
        self.write("src/core/engine.cc",
                   "auto p = std::make_unique<Engine>();\n"
                   "int renewed = renew(foo);\n")
        self.assertEqual(self.run_lint({"naked-new"}), [])

    # -- lock ordering -------------------------------------------------------

    def test_lock_order_nested_without_annotation_fails(self):
        self.write_consistent_tree()
        self.write("src/server/cache.cc",
                   "Mutex mu_;\n"
                   "Mutex log_mu_;\n"
                   "void Flush() {\n"
                   "  MutexLock lock(&mu_);\n"
                   "  MutexLock inner(&log_mu_);\n"
                   "}\n")
        errors = self.run_lint({"lock-order"})
        self.assertTrue(any("[lock-order]" in e and "log_mu_" in e
                            and "WEBDIS_ACQUIRED_BEFORE" in e
                            for e in errors), errors)

    def test_lock_order_annotation_satisfies(self):
        self.write_consistent_tree()
        self.write("src/server/cache.cc",
                   "Mutex mu_ WEBDIS_ACQUIRED_BEFORE(log_mu_);\n"
                   "Mutex log_mu_;\n"
                   "void Flush() {\n"
                   "  MutexLock lock(&mu_);\n"
                   "  {\n"
                   "    MutexLock inner(&log_mu_);\n"
                   "  }\n"
                   "}\n")
        self.assertEqual(self.run_lint({"lock-order"}), [])

    def test_lock_order_annotation_cycle_fails(self):
        self.write_consistent_tree()
        self.write("src/server/cache.cc",
                   "Mutex a_ WEBDIS_ACQUIRED_BEFORE(b_);\n"
                   "Mutex b_ WEBDIS_ACQUIRED_BEFORE(a_);\n")
        errors = self.run_lint({"lock-order"})
        self.assertTrue(any("[lock-order]" in e and "cycle" in e
                            for e in errors), errors)

    def test_lock_order_nesting_edge_closes_cycle(self):
        # The annotated order says a_ before b_; a suppressed inversion in
        # another function still contributes its edge, so the union graph
        # must report the deadlock even though each site looks blessed.
        self.write_consistent_tree()
        self.write("src/server/cache.cc",
                   "Mutex a_ WEBDIS_ACQUIRED_BEFORE(b_);\n"
                   "Mutex b_;\n"
                   "void F() {\n"
                   "  MutexLock l1(&a_);\n"
                   "  MutexLock l2(&b_);\n"
                   "}\n"
                   "void G() {\n"
                   "  MutexLock l1(&b_);\n"
                   "  // webdis-lint: allow(lock-order) — test inversion\n"
                   "  MutexLock l2(&a_);\n"
                   "}\n")
        errors = self.run_lint({"lock-order"})
        self.assertTrue(any("cycle" in e and "a_" in e and "b_" in e
                            for e in errors), errors)
        self.assertFalse(any("WEBDIS_ACQUIRED_BEFORE(a_)" in e
                             for e in errors), errors)

    def test_lock_order_suppression_honored(self):
        self.write_consistent_tree()
        self.write("src/server/cache.cc",
                   "Mutex mu_;\n"
                   "Mutex log_mu_;\n"
                   "void Flush() {\n"
                   "  MutexLock lock(&mu_);\n"
                   "  // webdis-lint: allow(lock-order) — audited by hand\n"
                   "  MutexLock inner(&log_mu_);\n"
                   "}\n")
        self.assertEqual(self.run_lint({"lock-order"}), [])

    def test_lock_order_stale_annotation_fails(self):
        self.write_consistent_tree()
        self.write("src/server/cache.cc",
                   "Mutex mu_ WEBDIS_ACQUIRED_BEFORE(retired_mu_);\n")
        errors = self.run_lint({"lock-order"})
        self.assertTrue(any("[lock-order]" in e and "retired_mu_" in e
                            and "stale" in e for e in errors), errors)

    def test_lock_order_sequential_locks_pass(self):
        self.write_consistent_tree()
        self.write("src/server/cache.cc",
                   "Mutex mu_;\n"
                   "Mutex log_mu_;\n"
                   "void F() {\n"
                   "  { MutexLock l(&mu_); }\n"
                   "  { MutexLock l(&log_mu_); }\n"
                   "}\n")
        self.assertEqual(self.run_lint({"lock-order"}), [])

    def test_lock_order_chain_requires_every_pair(self):
        # a_ -> b_ and b_ -> c_ are annotated, but holding all three also
        # nests a_ over c_: transitive closure is not assumed, the direct
        # pair must be recorded too.
        self.write_consistent_tree()
        self.write("src/server/cache.cc",
                   "Mutex a_ WEBDIS_ACQUIRED_BEFORE(b_);\n"
                   "Mutex b_ WEBDIS_ACQUIRED_BEFORE(c_);\n"
                   "Mutex c_;\n"
                   "void F() {\n"
                   "  MutexLock l1(&a_);\n"
                   "  MutexLock l2(&b_);\n"
                   "  MutexLock l3(&c_);\n"
                   "}\n")
        errors = self.run_lint({"lock-order"})
        self.assertTrue(any("c_ acquired while a_ is held" in e
                            for e in errors), errors)

    # -- iteration determinism -----------------------------------------------

    def test_iter_determinism_unordered_in_encode_fails(self):
        self.write_consistent_tree()
        self.write("src/query/stats.cc",
                   "std::unordered_map<std::string, int> counts_;\n"
                   "void EncodeTo(serialize::Encoder* enc) {\n"
                   "  for (const auto& kv : counts_) {\n"
                   "    enc->PutU64(kv.second);\n"
                   "  }\n"
                   "}\n")
        errors = self.run_lint({"iter-determinism"})
        self.assertTrue(any("[iter-determinism]" in e and "counts_" in e
                            for e in errors), errors)

    def test_iter_determinism_sorted_materialization_passes(self):
        self.write_consistent_tree()
        self.write("src/query/stats.cc",
                   "std::unordered_map<std::string, int> counts_;\n"
                   "void EncodeTo(serialize::Encoder* enc) {\n"
                   "  std::vector<std::pair<std::string, int>> sorted(\n"
                   "      counts_.begin(), counts_.end());\n"
                   "  std::sort(sorted.begin(), sorted.end());\n"
                   "  for (const auto& kv : sorted) {\n"
                   "    enc->PutU64(kv.second);\n"
                   "  }\n"
                   "}\n")
        self.assertEqual(self.run_lint({"iter-determinism"}), [])

    def test_iter_determinism_suppression_honored(self):
        self.write_consistent_tree()
        self.write("src/query/stats.cc",
                   "std::unordered_map<std::string, int> counts_;\n"
                   "void EncodeTo(serialize::Encoder* enc) {\n"
                   "  // webdis-lint: allow(iter-determinism) — order-free sum\n"
                   "  for (const auto& kv : counts_) {\n"
                   "    total += kv.second;\n"
                   "  }\n"
                   "  enc->PutU64(total);\n"
                   "}\n")
        self.assertEqual(self.run_lint({"iter-determinism"}), [])

    def test_iter_determinism_non_serializing_function_passes(self):
        self.write_consistent_tree()
        self.write("src/query/stats.cc",
                   "std::unordered_set<int> seen_;\n"
                   "bool Contains(int x) const {\n"
                   "  for (int v : seen_) {\n"
                   "    if (v == x) return true;\n"
                   "  }\n"
                   "  return false;\n"
                   "}\n")
        self.assertEqual(self.run_lint({"iter-determinism"}), [])

    def test_iter_determinism_ordered_map_passes(self):
        self.write_consistent_tree()
        self.write("src/query/stats.cc",
                   "std::unordered_map<std::string, int> index_;\n"
                   "std::map<std::string, int> counts_;\n"
                   "void EncodeTo(serialize::Encoder* enc) {\n"
                   "  for (const auto& kv : counts_) {\n"
                   "    enc->PutU64(kv.second);\n"
                   "  }\n"
                   "}\n")
        self.assertEqual(self.run_lint({"iter-determinism"}), [])

    def test_iter_determinism_format_run_stats_flagged(self):
        self.write_consistent_tree()
        self.write("src/client/stats.cc",
                   "std::unordered_set<std::string> hosts_;\n"
                   "std::string FormatRunStats() {\n"
                   "  std::string out;\n"
                   "  for (const auto& h : hosts_) {\n"
                   "    out += h;\n"
                   "  }\n"
                   "  return out;\n"
                   "}\n")
        errors = self.run_lint({"iter-determinism"})
        self.assertTrue(any("[iter-determinism]" in e and "hosts_" in e
                            for e in errors), errors)

    def test_iter_determinism_counter_text_flagged(self):
        self.write_consistent_tree()
        self.write("src/client/stats.cc",
                   "std::unordered_map<std::string, Stats> per_host_;\n"
                   "std::string Render() {\n"
                   "  std::string out;\n"
                   "  for (const auto& [host, s] : per_host_) {\n"
                   "    AppendCounterText(kFields, s, \"  \", &out);\n"
                   "  }\n"
                   "  return out;\n"
                   "}\n")
        errors = self.run_lint({"iter-determinism"})
        self.assertTrue(any("[iter-determinism]" in e and "per_host_" in e
                            for e in errors), errors)

    def test_iter_determinism_structured_binding_flagged(self):
        self.write_consistent_tree()
        self.write("src/query/stats.cc",
                   "std::unordered_map<std::string, int> counts_;\n"
                   "void EncodeTo(serialize::Encoder* enc) {\n"
                   "  for (const auto& [name, n] : counts_) {\n"
                   "    enc->PutU64(n);\n"
                   "  }\n"
                   "}\n")
        errors = self.run_lint({"iter-determinism"})
        self.assertTrue(any("[iter-determinism]" in e and "counts_" in e
                            for e in errors), errors)

    # -- web interned tables ---------------------------------------------------

    GRAPH_H_INTERNED = """\
class WebGraph {
 private:
  common::StringInterner strings_;
  // webdis-lint: interned-tables-begin
  // Keys are views into the interner arena — std::string would copy.
  std::map<std::string_view, uint32_t> by_key_;
  std::map<std::string_view, std::map<std::string_view, uint32_t>>
      host_index_;
  std::set<uint32_t> retired_hosts_;
  // webdis-lint: interned-tables-end
  std::map<std::pair<std::string, uint64_t>, std::string> history_;
};
"""

    def test_web_interned_tables_clean_tree_passes(self):
        self.write_consistent_tree()
        self.write("src/web/graph.h", self.GRAPH_H_INTERNED)
        self.assertEqual(self.run_lint({"web-interned-tables"}), [])

    def test_web_interned_tables_raw_string_key_fails(self):
        self.write_consistent_tree()
        self.write("src/web/graph.h", self.GRAPH_H_INTERNED.replace(
            "std::map<std::string_view, uint32_t> by_key_;",
            "std::map<std::string, uint32_t> by_key_;"))
        errors = self.run_lint({"web-interned-tables"})
        self.assertTrue(any("[web-interned-tables]" in e
                            and "std::string" in e for e in errors), errors)

    def test_web_interned_tables_raw_string_value_fails(self):
        self.write_consistent_tree()
        self.write("src/web/graph.h", self.GRAPH_H_INTERNED.replace(
            "std::set<uint32_t> retired_hosts_;",
            "std::set<std::string> retired_hosts_;"))
        errors = self.run_lint({"web-interned-tables"})
        self.assertTrue(any("[web-interned-tables]" in e
                            and "retired" not in e for e in errors), errors)

    def test_web_interned_tables_outside_markers_exempt(self):
        # history_ (an opt-in test oracle) sits outside the markers and may
        # own full strings; only the audited region is constrained.
        self.write_consistent_tree()
        self.write("src/web/graph.h", self.GRAPH_H_INTERNED)
        errors = self.run_lint({"web-interned-tables"})
        self.assertFalse(any("history_" in e for e in errors), errors)

    def test_web_interned_tables_missing_markers_fail(self):
        self.write_consistent_tree()
        self.write("src/web/graph.h", self.GRAPH_H_INTERNED.replace(
            "  // webdis-lint: interned-tables-begin\n", ""))
        errors = self.run_lint({"web-interned-tables"})
        self.assertTrue(any("[web-interned-tables]" in e and "markers" in e
                            for e in errors), errors)

    def test_web_interned_tables_allow_comment_passes(self):
        self.write_consistent_tree()
        self.write("src/web/graph.h", self.GRAPH_H_INTERNED.replace(
            "  std::set<uint32_t> retired_hosts_;",
            "  // webdis-lint: allow(web-interned-tables) — audited bound\n"
            "  std::set<std::string> retired_hosts_;"))
        self.assertEqual(self.run_lint({"web-interned-tables"}), [])

    def test_web_interned_tables_absent_file_skipped(self):
        self.write_consistent_tree()  # no src/web/graph.h at all
        self.assertEqual(self.run_lint({"web-interned-tables"}), [])

    # -- end to end ----------------------------------------------------------

    def test_main_exit_codes(self):
        self.write_consistent_tree()
        self.assertEqual(webdis_lint.main(["--root", self.root]), 0)
        self.write("src/core/engine.cc", "auto* p = new Engine();\n")
        self.assertEqual(webdis_lint.main(["--root", self.root]), 1)
        self.assertEqual(webdis_lint.main(["--root", "/nonexistent/xyz"]), 2)


if __name__ == "__main__":
    unittest.main()
