// Deterministic network fault injection for the multi-host fabric — the
// wire-level sibling of WorkerChaos (runtime/fabric/worker.hpp).
//
// run_chaos_proxy forwards bytes between one downstream client (the worker)
// and one upstream server, *frame-aware*: it buffers until it holds a
// complete wire frame ([u32 length][u32 crc32][body]), counts it, applies
// the configured fault, and only then forwards. Faults therefore land at
// exact message boundaries, which is what makes the kill/partition matrices
// deterministic — "cut the connection after the 3rd worker->coordinator
// frame" means the same thing on every run and every machine.
//
// Faults (all one-shot, 0 = disabled, counted per direction across the
// proxy's lifetime so they survive reconnects):
//   * cut_after_frames_*: forward the Nth frame, then close both sockets —
//     a disconnect at a message boundary. The proxy then accepts again, so
//     the worker's reconnect flows through the same (now clean) path.
//   * corrupt_frame_*: flip one byte in the Nth frame's body before
//     forwarding — the receiver's frame CRC must catch it and treat the
//     connection as trash, never act on the damaged message.
//   * wedge_after_frames_*: forward N frames, then swallow everything in
//     that direction while keeping both sockets open — the half-open /
//     wedged-peer case that only deadlines can unstick. The wedge lasts
//     until those deadlines tear the wedged connection down; the next
//     connection through the proxy flows clean.
//   * delay_s: sleep before forwarding every frame — reordering-free
//     delayed delivery, for exercising timeout margins.
//
// The proxy is a blocking single-threaded loop; tests run it in a forked
// child (fork with no threads anywhere keeps TSan/ASan happy) and SIGKILL it
// in teardown.
#pragma once

#include <cstdint>
#include <string>

#include "lpsram/runtime/fabric/net/net.hpp"

namespace lpsram::fabric {

struct NetChaos {
  // Worker -> coordinator direction ("up").
  std::uint64_t cut_after_frames_up = 0;
  std::uint64_t corrupt_frame_up = 0;
  std::uint64_t wedge_after_frames_up = 0;
  // Coordinator -> worker direction ("down").
  std::uint64_t cut_after_frames_down = 0;
  std::uint64_t corrupt_frame_down = 0;
  std::uint64_t wedge_after_frames_down = 0;
  // Fixed per-frame forwarding delay, both directions.
  double delay_s = 0.0;
};

// Serves `listener` (already listening), forwarding each accepted client to
// upstream_host:upstream_port under `chaos`. Returns only when accept fails
// hard (listener closed) — tests run it in a forked child and kill it.
void run_chaos_proxy(TcpListener& listener, const std::string& upstream_host,
                     int upstream_port, const NetChaos& chaos);

}  // namespace lpsram::fabric
