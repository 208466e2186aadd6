#pragma once
/// \file probe.hpp
/// \brief The host-speed clock: seconds at the reference machine's typical
///        speed, measured by a probe kernel timed every 20 ms on the
///        benchmark's own thread.
///
/// The reference machine is a share of a host whose speed drifts: in its
/// slow stretches, which last from about a second to over an hour, every
/// unit takes 20–40 % longer, and there are no hardware counters to count
/// the work instead.  While the clock runs, a timer interrupts the thread
/// every 20 ms and times a fixed kernel of the benchmark's own (it calls
/// no tacos code, so a change to the library moves the units and leaves
/// the probe alone).  Between two ticks the clock advances at wall speed
/// × kProbeReferenceS / (the median of the last 15 probe times): in a
/// slow stretch the probe slows as the units do and the clock slows with
/// it.  The kernel is what the workloads spend most of their time on —
/// sparse matrix–vector products in compressed rows with a working set in
/// the core's L2 cache — so the host mostly slows it as it slows them;
/// README.md ("Noise") gives a kind of slow stretch where it does not.
/// The probes' own time is left out of the clock.

#include <vector>

namespace perfbench {

/// The probe's typical time on the reference machine (its median over
/// most runs there): the clock's seconds are that machine's.
constexpr double kProbeReferenceS = 150e-6;

namespace host_clock {

/// Probes three times, then starts ticking on the calling thread; the
/// clock reads 0 here.  Throws if it is running already.
void start();
/// Stops probing; now() then stands still.
void stop();
/// Seconds at the reference speed since start(), less the probes' time.
double now();
/// Every probe time of the current (or last) start()…stop(), start()'s
/// three included, in seconds.
std::vector<double> probe_times();

}  // namespace host_clock

}  // namespace perfbench
