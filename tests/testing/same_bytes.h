// Byte-identity assertion for whole index images.
//
// The maintenance and serving gates compare serialized images, which run to
// hundreds of kilobytes; EXPECT_EQ on two such strings prints both in full.
// SameBytes checks the same equality but reports only the two sizes and the
// first differing offset:
//
//   EXPECT_TRUE(SameBytes(Serialize(maintained), Serialize(rebuilt)))
//       << "seed " << seed;

#ifndef BIGINDEX_TESTS_TESTING_SAME_BYTES_H_
#define BIGINDEX_TESTS_TESTING_SAME_BYTES_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string_view>

namespace bigindex {
namespace testing {

/// Success iff `a` and `b` hold the same bytes; on failure the message names
/// both sizes and the first offset at which they differ.
inline ::testing::AssertionResult SameBytes(std::string_view a,
                                            std::string_view b) {
  if (a == b) return ::testing::AssertionSuccess();
  const size_t common = std::min(a.size(), b.size());
  const size_t offset =
      std::mismatch(a.begin(), a.begin() + common, b.begin()).first -
      a.begin();
  return ::testing::AssertionFailure()
         << "byte strings differ: sizes " << a.size() << " and " << b.size()
         << ", first difference at offset " << offset;
}

}  // namespace testing
}  // namespace bigindex

#endif  // BIGINDEX_TESTS_TESTING_SAME_BYTES_H_
