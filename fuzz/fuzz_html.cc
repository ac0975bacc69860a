// libFuzzer harness for the page parser: every input is a page, parsed by
// html::ParseDocument and checked against the legacy differential oracle and
// the rel-infon span invariant. Build with -DWEBDIS_FUZZ=ON under clang; see
// CONTRIBUTING.md "Fuzzing".
#include "fuzz/fuzz_util.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  return webdis::fuzz::FuzzHtml(data, size);
}
