#include "util/rng.hpp"

namespace cdse {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

Xoshiro256 Xoshiro256::for_stream(std::uint64_t seed, std::uint64_t stream) {
  // Mix the stream index through splitmix before seeding so adjacent
  // streams share no low-entropy structure.
  std::uint64_t sm = seed ^ (0x6a09e667f3bcc909ULL * (stream + 1));
  return Xoshiro256(splitmix64(sm));
}

Xoshiro256::result_type Xoshiro256::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Xoshiro256::uniform() {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

std::uint64_t Xoshiro256::below(std::uint64_t n) {
  // Lemire multiply-shift with rejection: the multiply-shift alone maps
  // 2^64 raw words onto n outputs unevenly whenever n does not divide
  // 2^64; re-drawing the (2^64 mod n)-sized residue window makes every
  // output hit by exactly floor(2^64 / n) raw words.
  unsigned __int128 m = static_cast<unsigned __int128>((*this)()) * n;
  std::uint64_t lo = static_cast<std::uint64_t>(m);
  if (lo < n) {  // cheap pre-filter: threshold only computed when it can matter
    const std::uint64_t t = (0 - n) % n;  // 2^64 mod n
    while (lo < t) {
      m = static_cast<unsigned __int128>((*this)()) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

}  // namespace cdse
