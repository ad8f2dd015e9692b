// Tests for the gather write under the frame writers: the short-write
// bookkeeping (ConsumeIovecs) at every split point of a 3-part frame, and
// WriteAllv delivering the parts in order over a real socket.

#include "net/socket.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "test_util.h"

namespace dpsp {
namespace {

/// Three buffers of the given sizes holding consecutive byte values, so
/// their concatenation is 0, 1, 2, ... and any misordered or skipped byte
/// shows.
std::vector<std::vector<uint8_t>> MakeParts(std::vector<size_t> sizes) {
  std::vector<std::vector<uint8_t>> parts;
  uint8_t next = 0;
  for (size_t size : sizes) {
    parts.emplace_back(size);
    for (uint8_t& b : parts.back()) b = next++;
  }
  return parts;
}

std::vector<iovec> Gather(std::vector<std::vector<uint8_t>>& parts) {
  std::vector<iovec> iov;
  for (std::vector<uint8_t>& part : parts) {
    iov.push_back({part.data(), part.size()});
  }
  return iov;
}

std::vector<uint8_t> Flatten(std::span<const iovec> parts) {
  std::vector<uint8_t> out;
  for (const iovec& part : parts) {
    const auto* p = static_cast<const uint8_t*>(part.iov_base);
    out.insert(out.end(), p, p + part.iov_len);
  }
  return out;
}

std::vector<uint8_t> Suffix(const std::vector<uint8_t>& bytes, size_t from) {
  return {bytes.begin() + static_cast<ptrdiff_t>(from), bytes.end()};
}

// A header, a prefix and a payload, as the frame writers send them, plus
// the shapes with an empty piece (a bare-header frame, a body-only one).
const std::vector<std::vector<size_t>> kFrameShapes = {
    {12, 8, 37}, {12, 0, 5}, {12, 20, 0}, {12, 0, 0}};

TEST(ConsumeIovecsTest, EverySplitPointLeavesExactlyTheUnsentSuffix) {
  for (const std::vector<size_t>& shape : kFrameShapes) {
    std::vector<std::vector<uint8_t>> parts = MakeParts(shape);
    std::vector<iovec> original = Gather(parts);
    const std::vector<uint8_t> whole = Flatten(original);
    for (size_t first = 0; first <= whole.size(); ++first) {
      // One short write of `first` bytes, then a second of `second`: the
      // list must track the unsent suffix through both advances.
      for (size_t second = 0; first + second <= whole.size(); ++second) {
        std::vector<iovec> iov = original;
        std::span<iovec> rest = net::ConsumeIovecs(iov, first);
        ASSERT_EQ(Flatten(rest), Suffix(whole, first))
            << "shape " << shape[1] << "/" << shape[2] << " after " << first;
        rest = net::ConsumeIovecs(rest, second);
        ASSERT_EQ(Flatten(rest), Suffix(whole, first + second))
            << "shape " << shape[1] << "/" << shape[2] << " after " << first
            << "+" << second;
        // sendmsg never sees a spent entry at the front, and a fully sent
        // frame leaves nothing behind.
        if (!rest.empty()) {
          EXPECT_GT(rest.front().iov_len, 0u);
        }
        EXPECT_EQ(rest.empty(), first + second == whole.size());
      }
    }
  }
}

TEST(WriteAllvTest, GatherWriteDeliversThePartsInOrder) {
  ASSERT_OK_AND_ASSIGN(net::Listener listener,
                       net::Listener::Bind("127.0.0.1", 0));
  ASSERT_OK_AND_ASSIGN(net::Socket writer,
                       net::Connect("127.0.0.1", listener.port()));
  ASSERT_OK_AND_ASSIGN(net::Socket reader, listener.Accept(5000));

  // Far more than the loopback socket buffers hold, so the write only
  // completes while the reader drains it.
  std::vector<std::vector<uint8_t>> parts = MakeParts({12, 8, 6u << 20});
  std::vector<iovec> iov = Gather(parts);
  const std::vector<uint8_t> whole = Flatten(iov);
  std::vector<uint8_t> received(whole.size());
  Status read;
  std::thread drain(
      [&] { read = reader.ReadAll(received.data(), received.size()); });
  ASSERT_OK(writer.WriteAllv(iov));
  drain.join();
  ASSERT_OK(read);
  EXPECT_TRUE(received == whole);

  // Empty parts are skipped, and an all-empty list sends nothing.
  std::vector<uint8_t> tail = {7, 8, 9};
  iovec sparse[] = {{nullptr, 0}, {tail.data(), tail.size()}, {nullptr, 0}};
  ASSERT_OK(writer.WriteAllv(sparse));
  iovec none[] = {{nullptr, 0}};
  ASSERT_OK(writer.WriteAllv(none));
  std::vector<uint8_t> got(tail.size());
  ASSERT_OK(reader.ReadAll(got.data(), got.size()));
  EXPECT_EQ(got, tail);
}

}  // namespace
}  // namespace dpsp
