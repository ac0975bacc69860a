// libFuzzer harness for URL parsing: every input is parsed as an absolute
// URL and as an href against a fixed base, and each result's resource key
// must parse back to the same node. Build with -DWEBDIS_FUZZ=ON under clang;
// see CONTRIBUTING.md "Fuzzing".
#include "fuzz/fuzz_util.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  return webdis::fuzz::FuzzUrl(data, size);
}
