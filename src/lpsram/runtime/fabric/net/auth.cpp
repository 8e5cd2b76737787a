#include "lpsram/runtime/fabric/net/auth.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <random>
#include <vector>

#include "lpsram/util/error.hpp"

namespace lpsram::fabric {

namespace {

// SHA-256 (FIPS 180-4). Straightforward single-shot implementation; the
// fabric MACs are tiny (a few hundred bytes per handshake), so there is no
// need for streaming or vectorization.
constexpr std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void sha256_block(std::uint32_t state[8], const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i)
    w[i] = (std::uint32_t(block[4 * i]) << 24) |
           (std::uint32_t(block[4 * i + 1]) << 16) |
           (std::uint32_t(block[4 * i + 2]) << 8) |
           std::uint32_t(block[4 * i + 3]);
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kSha256K[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

}  // namespace

Sha256Digest sha256(const std::uint8_t* data, std::size_t size) {
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::size_t full = size / 64;
  for (std::size_t i = 0; i < full; ++i) sha256_block(state, data + 64 * i);

  // Final block(s): message tail, 0x80, zero pad, 64-bit big-endian length.
  std::uint8_t tail[128] = {0};
  const std::size_t rem = size - full * 64;
  if (rem > 0) std::memcpy(tail, data + full * 64, rem);  // data may be null
  tail[rem] = 0x80;
  const std::size_t tail_blocks = rem + 9 <= 64 ? 1 : 2;
  const std::uint64_t bits = std::uint64_t(size) * 8;
  for (int i = 0; i < 8; ++i)
    tail[tail_blocks * 64 - 1 - i] = std::uint8_t(bits >> (8 * i));
  for (std::size_t i = 0; i < tail_blocks; ++i)
    sha256_block(state, tail + 64 * i);

  Sha256Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = std::uint8_t(state[i] >> 24);
    out[4 * i + 1] = std::uint8_t(state[i] >> 16);
    out[4 * i + 2] = std::uint8_t(state[i] >> 8);
    out[4 * i + 3] = std::uint8_t(state[i]);
  }
  return out;
}

Sha256Digest hmac_sha256(const std::uint8_t* key, std::size_t key_size,
                         const std::uint8_t* msg, std::size_t msg_size) {
  std::uint8_t block_key[64] = {0};
  if (key_size > 64) {
    const Sha256Digest hashed = sha256(key, key_size);
    std::memcpy(block_key, hashed.data(), hashed.size());
  } else {
    std::memcpy(block_key, key, key_size);
  }

  std::vector<std::uint8_t> inner(64 + msg_size);
  for (int i = 0; i < 64; ++i) inner[std::size_t(i)] = block_key[i] ^ 0x36;
  std::memcpy(inner.data() + 64, msg, msg_size);
  const Sha256Digest inner_hash = sha256(inner.data(), inner.size());

  std::uint8_t outer[64 + 32];
  for (int i = 0; i < 64; ++i) outer[i] = block_key[i] ^ 0x5c;
  std::memcpy(outer + 64, inner_hash.data(), inner_hash.size());
  return sha256(outer, sizeof(outer));
}

bool constant_time_equal(const std::uint8_t* a, const std::uint8_t* b,
                         std::size_t size) noexcept {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < size; ++i) diff |= std::uint8_t(a[i] ^ b[i]);
  return diff == 0;
}

std::string load_token_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr)
    throw InvalidArgument("fabric: cannot read token file " + path +
                          ": " + std::strerror(errno));
  std::string token;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) token.append(buf, n);
  std::fclose(f);
  while (!token.empty() &&
         (token.back() == '\n' || token.back() == '\r' ||
          token.back() == ' ' || token.back() == '\t'))
    token.pop_back();
  if (token.empty())
    throw InvalidArgument("fabric: token file " + path +
                          " is empty — refusing an unauthenticated fabric");
  return token;
}

void fill_random_nonce(std::uint8_t* out, std::size_t size) {
  std::FILE* f = std::fopen("/dev/urandom", "rb");
  if (f != nullptr) {
    const std::size_t n = std::fread(out, 1, size, f);
    std::fclose(f);
    if (n == size) return;
  }
  std::random_device rd;
  for (std::size_t i = 0; i < size; ++i)
    out[i] = std::uint8_t(rd() & 0xff);
}

Sha256Digest handshake_mac(const std::string& token, char direction,
                           const NetHelloFields& hello,
                           const std::uint8_t* worker_nonce,
                           const std::uint8_t* server_nonce) {
  std::vector<std::uint8_t> transcript;
  transcript.reserve(1 + 4 + 4 + 8 + 8 + 1 + 2 * kNetNonceBytes);
  transcript.push_back(std::uint8_t(direction));
  const auto le32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) transcript.push_back(std::uint8_t(v >> (8 * i)));
  };
  const auto le64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) transcript.push_back(std::uint8_t(v >> (8 * i)));
  };
  le32(hello.protocol);
  le32(hello.worker_id);
  le64(hello.salt);
  le64(hello.fingerprint);
  transcript.push_back(hello.reconnect);
  transcript.insert(transcript.end(), worker_nonce,
                    worker_nonce + kNetNonceBytes);
  transcript.insert(transcript.end(), server_nonce,
                    server_nonce + kNetNonceBytes);
  return hmac_sha256(reinterpret_cast<const std::uint8_t*>(token.data()),
                     token.size(), transcript.data(), transcript.size());
}

}  // namespace lpsram::fabric
