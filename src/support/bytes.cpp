#include "support/bytes.h"

#include <cstring>

namespace snowwhite {
namespace bytes {

// Float arrays are copied as host memory, which is the little-endian
// on-disk layout only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "bytes::Writer/Reader::floats assume a little-endian host");

void Writer::floats(const std::vector<float> &Values) {
  size_t At = Out.size();
  Out.resize(At + Values.size() * sizeof(float));
  if (!Values.empty())
    std::memcpy(Out.data() + At, Values.data(), Values.size() * sizeof(float));
}

void Writer::string(std::string_view Text) {
  u64(Text.size());
  Out.insert(Out.end(), Text.begin(), Text.end());
}

bool Reader::floats(std::vector<float> &Values) {
  if (remaining() / sizeof(float) < Values.size())
    return false;
  if (!Values.empty())
    std::memcpy(Values.data(), Bytes.data() + Pos,
                Values.size() * sizeof(float));
  Pos += Values.size() * sizeof(float);
  return true;
}

bool Reader::raw(uint64_t Size, std::span<const uint8_t> &Out) {
  if (Size > remaining())
    return false;
  Out = Bytes.subspan(Pos, static_cast<size_t>(Size));
  Pos += static_cast<size_t>(Size);
  return true;
}

StringRead Reader::string(std::string &Out, uint64_t Cap) {
  StringRead Read;
  size_t Start = Pos;
  std::span<const uint8_t> Body;
  if (!u64(Read.Length))
    Read.Status = StringStatus::ShortLength;
  else if (Read.Length > Cap)
    Read.Status = StringStatus::OverCap;
  else if (!raw(Read.Length, Body))
    Read.Status = StringStatus::ShortBody;
  if (Read)
    Out.assign(Body.begin(), Body.end());
  else
    Pos = Start;
  return Read;
}

} // namespace bytes
} // namespace snowwhite
