#include "net_chaos.hpp"

#include <cerrno>
#include <chrono>
#include <thread>
#include <vector>

#include "lpsram/runtime/journal.hpp"
#include "lpsram/util/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#define LPSRAM_HAVE_FABRIC_NET 1
#endif

namespace lpsram::fabric {

#ifdef LPSRAM_HAVE_FABRIC_NET

namespace {

std::uint32_t read_le32(const std::uint8_t* p) {
  return std::uint32_t(p[0]) | (std::uint32_t(p[1]) << 8) |
         (std::uint32_t(p[2]) << 16) | (std::uint32_t(p[3]) << 24);
}

bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

// One direction of the relay. Counters and the wedge latch live outside so
// they persist across reconnects — "cut after the 7th frame" counts frames
// over the proxy's whole life, not per connection.
struct Flow {
  std::uint64_t frames = 0;
  bool wedged = false;
  std::vector<std::uint8_t> buf;

  std::uint64_t cut_after = 0;
  std::uint64_t corrupt_at = 0;
  std::uint64_t wedge_after = 0;
  double delay_s = 0.0;

  // Pumps `n` fresh bytes through the frame scanner into `dst`. Returns
  // false when the connection pair should be torn down (cut fired or the
  // write side failed).
  bool pump(const std::uint8_t* data, std::size_t n, int dst) {
    if (wedged) return true;  // swallow silently; the socket stays open
    buf.insert(buf.end(), data, data + n);
    for (;;) {
      if (buf.size() < 8) return true;
      const std::uint32_t len = read_le32(buf.data());
      if (len == 0 || len > kJournalMaxRecordBytes) {
        // Not wire framing (a garbage peer): fall back to raw passthrough
        // so the proxy never wedges on input it cannot frame.
        const bool ok = write_all(dst, buf.data(), buf.size());
        buf.clear();
        return ok;
      }
      const std::size_t frame_size = 8 + std::size_t(len);
      if (buf.size() < frame_size) return true;
      ++frames;
      if (frames == corrupt_at) buf[frame_size - 1] ^= 0xff;
      if (delay_s > 0.0)
        std::this_thread::sleep_for(std::chrono::duration<double>(delay_s));
      if (!write_all(dst, buf.data(), frame_size)) return false;
      buf.erase(buf.begin(),
                buf.begin() + static_cast<std::ptrdiff_t>(frame_size));
      if (frames == cut_after) return false;  // disconnect at the boundary
      if (frames == wedge_after) {
        wedged = true;
        buf.clear();
        return true;
      }
    }
  }
};

}  // namespace

void run_chaos_proxy(TcpListener& listener, const std::string& upstream_host,
                     int upstream_port, const NetChaos& chaos) {
  Flow up;  // worker -> coordinator
  up.cut_after = chaos.cut_after_frames_up;
  up.corrupt_at = chaos.corrupt_frame_up;
  up.wedge_after = chaos.wedge_after_frames_up;
  up.delay_s = chaos.delay_s;
  Flow down;  // coordinator -> worker
  down.cut_after = chaos.cut_after_frames_down;
  down.corrupt_at = chaos.corrupt_frame_down;
  down.wedge_after = chaos.wedge_after_frames_down;
  down.delay_s = chaos.delay_s;

  for (;;) {
    // Wait for the next downstream client.
    pollfd lp{listener.fd(), POLLIN, 0};
    const int lready = ::poll(&lp, 1, -1);
    if (lready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    MessageChannel client = listener.accept(/*send_timeout_s=*/10.0);
    if (!client.is_open()) continue;
    MessageChannel server;
    try {
      server = tcp_connect(upstream_host, upstream_port,
                           /*connect_timeout_s=*/5.0, /*send_timeout_s=*/10.0);
    } catch (const Error&) {
      continue;  // upstream gone; drop the client, keep accepting
    }
    up.buf.clear();
    down.buf.clear();

    for (;;) {
      pollfd fds[2] = {{client.fd(), POLLIN, 0}, {server.fd(), POLLIN, 0}};
      const int ready = ::poll(fds, 2, -1);
      if (ready < 0) {
        if (errno == EINTR) continue;
        break;
      }
      bool closed = false;
      std::uint8_t chunk[4096];
      for (int i = 0; i < 2; ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const int src = i == 0 ? client.fd() : server.fd();
        const int dst = i == 0 ? server.fd() : client.fd();
        Flow& flow = i == 0 ? up : down;
        const ssize_t n = ::read(src, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0 || !flow.pump(chunk, static_cast<std::size_t>(n), dst)) {
          closed = true;
          break;
        }
      }
      if (closed) break;
    }
    client.close();
    server.close();
    // A wedge lives exactly as long as the wedged connection: once the
    // peers' deadlines tear it down, the next connection flows clean (the
    // frame counters are already past the trigger, so it cannot re-fire).
    up.wedged = false;
    down.wedged = false;
  }
}

#else  // !LPSRAM_HAVE_FABRIC_NET

void run_chaos_proxy(TcpListener&, const std::string&, int, const NetChaos&) {
  throw Error("fabric: chaos proxy requires a POSIX platform");
}

#endif  // LPSRAM_HAVE_FABRIC_NET

}  // namespace lpsram::fabric
