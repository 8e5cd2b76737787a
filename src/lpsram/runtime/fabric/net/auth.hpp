// Authentication primitives for the multi-host fabric transport.
//
// Threat model (see DESIGN.md §"multi-host transport"): the campaign token
// authenticates workers and coordinator to each other and binds the
// handshake to this sweep's manifest — it provides *integrity and
// authenticity on a trusted network*, not confidentiality. Payloads travel
// in the clear; anyone who can read the token file can join the fleet. The
// token is always loaded from a file (never argv, which `ps` would leak) and
// never sent on the wire: both sides prove possession via HMAC-SHA256 over
// the handshake transcript, with direction labels so a challenge can never
// be reflected back, and fresh nonces so a captured handshake cannot be
// replayed.
//
// SHA-256 is implemented here (FIPS 180-4, ~100 lines) rather than pulling
// in a TLS library: the fabric needs exactly one MAC, and the dependency
// budget of the tree is zero.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace lpsram::fabric {

inline constexpr std::size_t kNetNonceBytes = 32;
inline constexpr std::size_t kNetMacBytes = 32;

using Sha256Digest = std::array<std::uint8_t, 32>;

Sha256Digest sha256(const std::uint8_t* data, std::size_t size);

Sha256Digest hmac_sha256(const std::uint8_t* key, std::size_t key_size,
                         const std::uint8_t* msg, std::size_t msg_size);

// Timing-safe comparison: examines every byte regardless of where the first
// mismatch sits, so a byte-at-a-time MAC forgery gains nothing from timing.
bool constant_time_equal(const std::uint8_t* a, const std::uint8_t* b,
                         std::size_t size) noexcept;

// Largest token file load_token_file reads. A token is a short shared
// secret; the cap keeps a --token-file pointed at /dev/zero or a large file
// from growing memory until the process dies.
inline constexpr std::size_t kMaxTokenFileBytes = 64 * 1024;

// Reads the shared campaign token from `path`, trimming trailing whitespace
// (editors append newlines). Throws InvalidArgument when the file is
// missing, unreadable, larger than kMaxTokenFileBytes, or trims to empty —
// an empty token would turn the handshake into a formality.
std::string load_token_file(const std::string& path);

// Fills `out` with cryptographically random bytes (/dev/urandom, falling
// back to std::random_device where it is unavailable).
void fill_random_nonce(std::uint8_t* out, std::size_t size);

// The NetHello fields both MACs are bound to: tampering with any of them in
// flight (downgrading the protocol, redirecting a worker id, splicing a
// handshake onto a different sweep) breaks verification.
struct NetHelloFields {
  std::uint32_t protocol = 0;
  std::uint32_t worker_id = 0;
  std::uint64_t salt = 0;
  std::uint64_t fingerprint = 0;
  std::uint8_t reconnect = 0;
};

// MAC over the handshake transcript. `direction` is 'S' for the server's
// proof (sent in NetChallenge) and 'W' for the worker's (sent in NetAuth);
// the label makes the two MACs distinct for identical transcripts, so a
// peer's proof can never be echoed back at it. Both nonces are covered:
// worker_nonce gives the worker freshness of the server's proof,
// server_nonce gives the server freshness of the worker's.
Sha256Digest handshake_mac(const std::string& token, char direction,
                           const NetHelloFields& hello,
                           const std::uint8_t* worker_nonce,
                           const std::uint8_t* server_nonce);

}  // namespace lpsram::fabric
