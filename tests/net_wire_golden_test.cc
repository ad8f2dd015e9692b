// Pins the query wire format byte for byte. The round-trip tests elsewhere
// encode and decode with the same build, so they would still pass if both
// ends changed the layout together; these expected bytes were captured
// from a reference build and never move. A mismatch here is a protocol
// change every deployed peer would notice, not a stale constant.

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "net/protocol.h"
#include "net/socket.h"
#include "test_util.h"

namespace dpsp {
namespace {

std::string ToHex(std::span<const uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

// The golden strings group bytes by field; spaces are for the reader.
std::string Compact(std::string_view hex) {
  std::string out;
  for (char c : hex) {
    if (c != ' ') out.push_back(c);
  }
  return out;
}

std::vector<uint8_t> FromHex(std::string_view hex) {
  const std::string compact = Compact(hex);
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 1 < compact.size(); i += 2) {
    out.push_back(static_cast<uint8_t>(
        std::stoul(compact.substr(i, 2), nullptr, 16)));
  }
  return out;
}

// Negative ids, both int32 extremes and a multi-byte id in each lane.
const std::vector<VertexPair> kPairs = {
    {0, -1},
    {std::numeric_limits<int32_t>::max(), std::numeric_limits<int32_t>::min()},
    {-2, 7},
    {123456789, -123456789}};
constexpr uint32_t kHandle = 0x01020304u;

constexpr std::string_view kQueryRequestHex =
    "04030201 04000000 "          // handle id, pair count
    "00000000 ffffffff "          // (0, -1)
    "ffffff7f 00000080 "          // (INT32_MAX, INT32_MIN)
    "feffffff 07000000 "          // (-2, 7)
    "15cd5b07 eb32a4f8";          // (123456789, -123456789)

// Signed zeros, the smallest and largest subnormals, both infinities,
// NaNs carrying payloads (quiet, and negative), and an ordinary value.
const std::vector<uint64_t> kDistanceBits = {
    0x0000000000000000ull, 0x8000000000000000ull, 0x0000000000000001ull,
    0x000fffffffffffffull, 0x7ff0000000000000ull, 0xfff0000000000000ull,
    0x7ff80000deadbeefull, 0xfff8000000c0ffeeull, 0x3fd5555555555555ull};

constexpr std::string_view kQueryResponseHex =
    "09000000 "                   // distance count
    "0000000000000000 0000000000000080 0100000000000000 "
    "ffffffffffff0f00 000000000000f07f 000000000000f0ff "
    "efbeadde0000f87f eeffc0000000f8ff 555555555555d53f";

std::vector<double> Distances() {
  std::vector<double> out;
  for (uint64_t bits : kDistanceBits) out.push_back(std::bit_cast<double>(bits));
  return out;
}

TEST(NetWireGoldenTest, QueryRequestBodyBytesArePinned) {
  std::vector<uint8_t> body = net::EncodeQueryRequest(kHandle, kPairs);
  EXPECT_EQ(ToHex(body), Compact(kQueryRequestHex));

  ASSERT_OK_AND_ASSIGN(net::QueryRequest decoded,
                       net::DecodeQueryRequest(FromHex(kQueryRequestHex)));
  EXPECT_EQ(decoded.handle_id, kHandle);
  EXPECT_EQ(decoded.pairs, kPairs);
}

TEST(NetWireGoldenTest, QueryResponseBodyBytesArePinned) {
  std::vector<uint8_t> body = net::EncodeQueryResponse(Distances());
  EXPECT_EQ(ToHex(body), Compact(kQueryResponseHex));

  ASSERT_OK_AND_ASSIGN(std::vector<double> decoded,
                       net::DecodeQueryResponse(FromHex(kQueryResponseHex)));
  ASSERT_EQ(decoded.size(), kDistanceBits.size());
  for (size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(decoded[i]), kDistanceBits[i])
        << "distance " << i;
  }
}

TEST(NetWireGoldenTest, WrittenFramesArePinnedOnTheSocket) {
  ASSERT_OK_AND_ASSIGN(net::Listener listener,
                       net::Listener::Bind("127.0.0.1", 0));
  ASSERT_OK_AND_ASSIGN(net::Socket writer,
                       net::Connect("127.0.0.1", listener.port()));
  ASSERT_OK_AND_ASSIGN(net::Socket reader, listener.Accept(5000));

  // A query request, then an empty-bodied stats request: the header
  // alone must still go out whole.
  ASSERT_OK(net::WriteFrame(writer, net::MessageType::kQueryRequest,
                            net::EncodeQueryRequest(kHandle, kPairs)));
  ASSERT_OK(net::WriteFrame(writer, net::MessageType::kStatsRequest, {}));
  const std::string expected = Compact(
      "50535044 0600 0300 28000000 ") +  // magic, v6, QueryRequest, 40
      Compact(kQueryRequestHex) +
      Compact("50535044 0600 0500 00000000");  // magic, v6, Stats, 0
  std::vector<uint8_t> raw(expected.size() / 2);
  ASSERT_OK(reader.ReadAll(raw.data(), raw.size()));
  EXPECT_EQ(ToHex(raw), expected);
}

}  // namespace
}  // namespace dpsp
