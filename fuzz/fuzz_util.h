#ifndef WEBDIS_FUZZ_FUZZ_UTIL_H_
#define WEBDIS_FUZZ_FUZZ_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace webdis::fuzz {

/// Shared fuzz dispatchers — one per untrusted-byte surface. Each feeds the
/// input to the production decoder and, when the input parses, asserts the
/// round-trip fixpoint property: re-encoding the decoded value yields a
/// canonical byte image that decodes back and re-encodes byte-identically.
/// (The input itself need not be canonical — LEB128 varints accept redundant
/// continuation bytes — but one re-encoding must reach a fixed point.)
/// Malformed input must produce an explicit Corruption status; any crash,
/// sanitizer report, or fixpoint violation aborts the process, which is how
/// both libFuzzer and the plain corpus-replay driver report a finding.
///
/// FuzzHtml is the page-parser surface: any byte string is a page, so it
/// checks html::ParseDocument against the legacy differential oracle
/// (tests/legacy_parser.h) and the rel-infon span invariant — every span
/// inside the text buffer, starting and ending on a non-space byte.
///
/// FuzzUrl is the URL surface: the input is parsed both as an absolute URL
/// (html::ParseUrl) and as an href against a fixed base (html::ResolveUrl).
/// For every URL u either produces, ParseUrl(u.ResourceKey()) must succeed,
/// keep u's scheme, host and path, and give back the same resource key — the
/// key a node is stored and logged under names that node again.
///
/// All five return 0 (the libFuzzer convention for "input consumed").
int FuzzWireFrame(const uint8_t* data, size_t size);
int FuzzWalStream(const uint8_t* data, size_t size);
int FuzzSnapshot(const uint8_t* data, size_t size);
int FuzzHtml(const uint8_t* data, size_t size);
int FuzzUrl(const uint8_t* data, size_t size);

/// Writes the mechanical seed corpus under
/// `root`/{wire,wal,snapshot,html,url}:
/// one well-formed input per wire message type / WAL record type / snapshot
/// image (mirroring the golden objects in tests/wire_golden_test.cc and
/// tests/persist_golden_test.cc), synthetic and university pages plus the
/// hand-written parser edge cases, synthetic and university URLs plus
/// relative hrefs, plus the checked-in regression entries —
/// one malformed input per decoder hardening fix, kept so the bug class
/// stays covered by plain ctest replay forever. Returns the number of files
/// written, or -1 on I/O failure.
int WriteSeedCorpus(const std::string& root);

}  // namespace webdis::fuzz

#endif  // WEBDIS_FUZZ_FUZZ_UTIL_H_
