#include "probe.hpp"

#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace perfbench::host_clock {

namespace {

/// The probe's matrix: 4,096 rows of 7 entries each (a 7-point stencil on
/// a 16 × 16 × 16 block, neighbours wrapping around), every row averaging
/// its neighbours so that repeated products stay bounded.  About 400 KB:
/// in the L2 cache, like a grid-24 or grid-32 model's solver data.
constexpr int kSide = 16;
constexpr int kRows = kSide * kSide * kSide;
constexpr int kPerRow = 7;
constexpr double kTickS = 0.02;      ///< wall time between two probes
constexpr int kProducts = 6;         ///< matrix–vector products per probe
constexpr std::size_t kWindow = 15;  ///< probes in the speed's median (0.3 s)
constexpr std::size_t kMaxProbes = 1 << 16;

// Static storage: the tick handler may not allocate.
double g_val[kRows * kPerRow];
int g_col[kRows * kPerRow];
double g_x[kRows], g_y[kRows];
volatile double g_sink = 0.0;

struct State {
  bool running = false;
  double norm = 0.0;            ///< clock reading at last_end
  double last_end = 0.0;        ///< wall time the last probe ended
  double factor = 1.0;          ///< clock seconds per wall second since then
  double recent[kWindow] = {};  ///< the last kWindow probe times
  std::size_t probes = 0;
};
State g;
double g_times[kMaxProbes];
timer_t g_timer;

double wall() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void build_matrix() {
  const auto id = [](int i, int j, int k) {
    const auto wrap = [](int v) { return (v + kSide) % kSide; };
    return (wrap(k) * kSide + wrap(j)) * kSide + wrap(i);
  };
  for (int k = 0; k < kSide; ++k)
    for (int j = 0; j < kSide; ++j)
      for (int i = 0; i < kSide; ++i) {
        const int row = id(i, j, k);
        const int cols[kPerRow] = {row,
                                   id(i - 1, j, k), id(i + 1, j, k),
                                   id(i, j - 1, k), id(i, j + 1, k),
                                   id(i, j, k - 1), id(i, j, k + 1)};
        for (int e = 0; e < kPerRow; ++e) {
          g_col[row * kPerRow + e] = cols[e];
          g_val[row * kPerRow + e] = e == 0 ? 0.4 : 0.1;
        }
        g_x[row] = static_cast<double>(row % 17);
      }
}

/// The kernel: kProducts products, alternating between the two vectors.
void kernel() {
  double* in = g_x;
  double* out = g_y;
  for (int p = 0; p < kProducts; ++p) {
    for (int r = 0; r < kRows; ++r) {
      double acc = 0.0;
      for (int e = r * kPerRow; e < (r + 1) * kPerRow; ++e)
        acc += g_val[e] * in[g_col[e]];
      out[r] = acc;
    }
    std::swap(in, out);
  }
  g_sink = g_sink + in[kRows / 2];
}

/// Keeps a probe time and sets the clock's speed from the median of the
/// last kWindow (fewer just after start()).
void record(double seconds) {
  g.recent[g.probes % kWindow] = seconds;
  if (g.probes < kMaxProbes) g_times[g.probes] = seconds;
  ++g.probes;
  double window[kWindow];
  const std::size_t n = std::min(g.probes, kWindow);
  std::copy(g.recent, g.recent + n, window);
  std::nth_element(window, window + n / 2, window + n);
  g.factor = kProbeReferenceS / window[n / 2];
}

/// One tick: time the kernel, close the segment since the last probe at
/// the speed it started with, and set the next segment's speed.
void on_tick(int) {
  if (!g.running) return;  // a tick that was pending at stop()
  const int saved_errno = errno;
  const double t0 = wall();
  kernel();
  const double t1 = wall();
  g.norm += (t0 - g.last_end) * g.factor;
  g.last_end = t1;
  record(t1 - t0);
  errno = saved_errno;
}

/// Blocks the tick signal while in scope: now() reads the state without
/// a tick changing it half way.
class TickBlock {
 public:
  TickBlock() {
    sigset_t s;
    sigemptyset(&s);
    sigaddset(&s, SIGALRM);
    pthread_sigmask(SIG_BLOCK, &s, &old_);
  }
  ~TickBlock() { pthread_sigmask(SIG_SETMASK, &old_, nullptr); }

 private:
  sigset_t old_;
};

[[noreturn]] void fail(const char* what) {
  throw std::runtime_error(std::string("host clock: ") + what + ": " +
                           std::strerror(errno));
}

/// One probe outside a tick, for start().
double probe_once() {
  static const bool built = (build_matrix(), true);
  (void)built;
  const double t0 = wall();
  kernel();
  return wall() - t0;
}

}  // namespace

void start() {
  if (g.running) throw std::logic_error("host clock: already running");
  g = State{};
  for (int k = 0; k < 3; ++k) record(probe_once());

  // The handler stays installed after stop(), for a tick still pending.
  struct sigaction sa {};
  sa.sa_handler = on_tick;
  sa.sa_flags = SA_RESTART;  // a tick must not fail the program's I/O
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGALRM, &sa, nullptr) != 0) fail("sigaction");
  sigevent sev {};
  sev.sigev_notify = SIGEV_THREAD_ID;  // this thread, not any thread
  sev.sigev_signo = SIGALRM;
  sev._sigev_un._tid = gettid();  // sigev_notify_thread_id in newer headers
  if (timer_create(CLOCK_MONOTONIC, &sev, &g_timer) != 0) fail("timer_create");
  g.last_end = wall();
  g.running = true;
  const long tick_ns = static_cast<long>(kTickS * 1e9);
  itimerspec its {};
  its.it_interval.tv_nsec = its.it_value.tv_nsec = tick_ns;
  if (timer_settime(g_timer, 0, &its, nullptr) != 0) {
    const int err = errno;
    stop();
    errno = err;
    fail("timer_settime");
  }
}

void stop() {
  TickBlock block;
  if (!g.running) return;
  timer_delete(g_timer);
  g.norm += (wall() - g.last_end) * g.factor;
  g.running = false;
}

double now() {
  TickBlock block;
  if (!g.running) return g.norm;
  return g.norm + (wall() - g.last_end) * g.factor;
}

std::vector<double> probe_times() {
  TickBlock block;
  return {g_times, g_times + std::min(g.probes, kMaxProbes)};
}

}  // namespace perfbench::host_clock
